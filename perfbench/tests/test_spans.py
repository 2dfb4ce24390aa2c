import types

import pytest

from perfbench.spans import Tracer, covered, self_times


def span(sid, parent, t0, t1, name="x", root=None):
    return (sid, parent, root or sid, name, t0, t1, None)


def test_self_time_subtracts_nested_children():
    spans = [
        span(1, 0, 0.0, 10.0),
        span(2, 1, 1.0, 3.0),
        span(3, 1, 4.0, 8.0),
        span(4, 3, 5.0, 6.0),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 2.0 - 4.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(4.0 - 1.0)
    assert selfs[4] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        span(1, 0, 0.0, 10.0),
        span(2, 1, 2.0, 6.0),
        span(3, 1, 4.0, 7.0),
        span(4, 1, 9.0, 12.0),  # runs past its parent: only 9..10 counts
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 5.0 - 1.0)


def test_covered_merges_and_clips():
    assert covered([(1, 2), (1.5, 3), (5, 6)], 0, 10) == pytest.approx(3.0)
    assert covered([(-5, 2)], 0, 1) == pytest.approx(1.0)
    assert covered([], 0, 1) == 0.0


def test_traced_calls_nest_and_share_a_root():
    tracer = Tracer()
    inner = tracer.traced(lambda: None, "inner")
    outer = tracer.traced(lambda: inner(), "outer")
    outer()
    (i_id, i_parent, i_root, i_name, *_), (o_id, o_parent, o_root, o_name, *_) = (
        tracer.spans
    )
    assert (i_name, o_name) == ("inner", "outer")
    assert i_parent == o_id and o_parent == 0
    assert i_root == o_root == o_id


def test_wrap_and_unwrap_module_class_and_instance():
    module = types.ModuleType("m")
    module.f = lambda x: x + 1

    class Base:
        def g(self):
            return "g"

    class Child(Base):
        pass

    obj = Child()
    tracer = Tracer()
    assert tracer.wrap(module, "f", "f")
    assert tracer.wrap(Child, "g", "g")
    assert tracer.wrap(obj, "g", "obj.g")
    assert module.f(1) == 2 and obj.g() == "g" and Child().g() == "g"
    assert [s[3] for s in tracer.spans] == ["f", "g", "obj.g", "g"]
    tracer.unwrap_all()
    assert "g" not in vars(Child) and "g" not in vars(obj)
    assert module.f(1) == 2 and not hasattr(module.f, "__wrapped__")


def test_missing_name_is_noted_not_raised():
    module = types.ModuleType("m")
    tracer = Tracer()
    assert not tracer.wrap(module, "process_top_k_batch", "core.query.batch")
    assert not tracer.wrap_result(module, "get_jit_kernel", "core.native.call")
    assert tracer.missing == ["core.query.batch", "core.native.call"]


def test_wrap_result_traces_the_returned_callable():
    module = types.ModuleType("m")
    module.lookup = lambda: (lambda a: a * 2)
    tracer = Tracer()
    tracer.wrap_result(module, "lookup", "kernel")
    assert module.lookup()(3) == 6
    assert [s[3] for s in tracer.spans] == ["kernel"]
