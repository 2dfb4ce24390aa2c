"""Auto-kernel dispatch: ``native`` when the compiled walker is usable for
the shape, else ``csr`` — whatever the structure size or batch width.

The shape gates (d <= NATIVE_DISPATCH_MAX_DIM, n <= NATIVE_DISPATCH_MAX_NODES)
are pinned on both sides under the ``native_available`` fixture, which
simulates a loadable walker without building one; the compiler-less
fallback runs for real under ``REPRO_NATIVE_CC=none`` with a cleared
kernel slot.
"""

import numpy as np
import pytest

from repro.core import DLIndex, DLPlusIndex
from repro.core import dispatch
from repro.core.dispatch import (
    NATIVE_DISPATCH_MAX_DIM,
    NATIVE_DISPATCH_MAX_NODES,
    VALID_KERNELS,
    register_jit_kernel,
    select_kernel,
)
from repro.core.query import process_top_k, process_top_k_reference
from repro.data import generate
from repro.relation import normalize_weights
from repro.serving import QueryEngine
from repro.stats import AccessCounter

BATCH_WIDTHS = (1, 8, 128)


@pytest.fixture
def no_native(monkeypatch):
    """Dispatch as on a host where the native kernel cannot load."""
    monkeypatch.setattr(dispatch, "native_kernel_usable", lambda n, d: False)


@pytest.fixture
def native_available(monkeypatch):
    """Dispatch as on a host where the native kernel is loadable for
    every shape inside its contract, without actually building it."""
    monkeypatch.setattr(
        dispatch,
        "native_kernel_usable",
        lambda n, d: d <= NATIVE_DISPATCH_MAX_DIM
        and n <= NATIVE_DISPATCH_MAX_NODES,
    )


def _serve_every_width(engine, d: int) -> None:
    """Push batches of every width through ``engine`` and check each row
    bitwise (ids, scores, Definition 9 counts) against the oracle."""
    rng = np.random.default_rng(d)
    structure = engine.index.structure
    for width in BATCH_WIDTHS:
        weights = rng.dirichlet(np.ones(d), size=width)
        for w, result in zip(weights, engine.query_batch(weights, 5)):
            counter = AccessCounter()
            ids, scores = process_top_k_reference(
                structure, normalize_weights(w, d), 5, counter
            )
            assert result.ids.tobytes() == ids.tobytes()
            assert result.scores.tobytes() == scores.tobytes()
            assert (result.counter.real, result.counter.pseudo) == (
                counter.real,
                counter.pseudo,
            )


def test_dimension_threshold_both_sides(native_available):
    """The one dimension threshold left is the native contract's ceiling:
    native at d = NATIVE_DISPATCH_MAX_DIM, csr one dimension above."""
    for n in (100, 10**6):
        assert select_kernel(n_nodes=n, d=NATIVE_DISPATCH_MAX_DIM) == "native"
        assert select_kernel(n_nodes=n, d=NATIVE_DISPATCH_MAX_DIM + 1) == "csr"


def test_structure_argument_supplies_shape(no_native, monkeypatch):
    relation = generate("IND", 200, 3, seed=3)
    structure = DLIndex(relation).build().structure
    assert select_kernel(structure) == "csr"
    assert select_kernel(structure) == select_kernel(
        n_nodes=structure.n_nodes, d=structure.values.shape[1]
    )
    monkeypatch.setattr(dispatch, "native_kernel_usable", lambda n, d: True)
    assert select_kernel(structure) == "native"


def test_missing_shape_rejected():
    with pytest.raises(ValueError):
        select_kernel()
    with pytest.raises(ValueError):
        select_kernel(n_nodes=100)
    with pytest.raises(ValueError):
        select_kernel(d=2)


def test_valid_kernels_registry(no_native):
    assert VALID_KERNELS == ("auto", "reference", "csr", "native")
    # select_kernel only ever returns a concrete kernel auto may run —
    # never "auto", and never the "reference" oracle.
    for n in (100, 40_000, 10**6):
        for d in (1, 2, 4, NATIVE_DISPATCH_MAX_DIM + 1):
            assert select_kernel(n_nodes=n, d=d) == "csr"


def test_native_wins_every_solo_cell_when_available(native_available):
    """With the compiled walker loadable, availability is the only
    crossover: every in-contract shape dispatches native."""
    for n in (100, 32768, 10**6, NATIVE_DISPATCH_MAX_NODES):
        for d in range(1, NATIVE_DISPATCH_MAX_DIM + 1):
            assert select_kernel(n_nodes=n, d=d) == "native"


def test_native_at_every_batch_width(monkeypatch):
    """A loadable walker serves every query_batch row at widths 1, 8 and
    128 — no width hands a group to another kernel.  A registered walker
    that delegates to the csr kernel stands in for the C build, so the
    rule is checked on any host."""

    def walker(structure, weights, k, counter, prune=False, workspace=None):
        return process_top_k(structure, weights, k, counter, prune=prune)

    monkeypatch.setattr(dispatch, "_JIT_KERNEL", walker)
    engine = QueryEngine(
        DLPlusIndex(generate("ANT", 300, 3, seed=5)).build(), cache_size=0
    )
    _serve_every_width(engine, 3)
    stats = engine.stats()
    assert stats["kernel_native"] == float(sum(BATCH_WIDTHS))
    assert "kernel_csr" not in stats and "kernel_batch" not in stats


def test_compiler_masked_dispatches_csr_everywhere(
    isolated_native_state, monkeypatch, tmp_path
):
    """No compiler and an empty kernel slot: csr at every n, every
    d <= 7 and every batch width, bitwise against the oracle."""
    monkeypatch.setenv("REPRO_NATIVE_CC", "none")
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    register_jit_kernel(None)
    for n in (100, 32768, 10**6):
        for d in range(1, NATIVE_DISPATCH_MAX_DIM + 1):
            assert select_kernel(n_nodes=n, d=d) == "csr"
    for d in (2, 4):
        engine = QueryEngine(
            DLIndex(generate("IND", 300, d, seed=d)).build(), cache_size=0
        )
        _serve_every_width(engine, d)
        stats = engine.stats()
        assert stats["kernel_csr"] == float(sum(BATCH_WIDTHS))
        assert "kernel_native" not in stats and "kernel_batch" not in stats


def test_native_shape_gates(native_available):
    """Shapes outside the bitwise contract fall back to csr even when
    the library is loadable."""
    assert select_kernel(n_nodes=10**5, d=NATIVE_DISPATCH_MAX_DIM) == "native"
    assert select_kernel(n_nodes=10**5, d=NATIVE_DISPATCH_MAX_DIM + 1) == "csr"
    assert select_kernel(n_nodes=NATIVE_DISPATCH_MAX_NODES, d=4) == "native"
    assert select_kernel(n_nodes=NATIVE_DISPATCH_MAX_NODES + 1, d=4) == "csr"


def test_dispatch_dim_ceiling_mirrors_native_contract():
    """NATIVE_DISPATCH_MAX_DIM is a mirror of the kernel's own ceiling —
    pin them equal so neither can drift alone."""
    from repro.core.native import NATIVE_MAX_DIM

    assert NATIVE_DISPATCH_MAX_DIM == NATIVE_MAX_DIM


def test_native_kernel_usable_gates_shape_before_probe(monkeypatch):
    """The shape gates reject out-of-contract shapes without ever
    probing the build; in-contract shapes consult native_ready."""
    probes = []

    def fake_ready(warn=False):
        probes.append(warn)
        return False

    import repro.core.native as native_mod

    monkeypatch.setattr(native_mod, "native_ready", fake_ready)
    assert not dispatch.native_kernel_usable(1000, NATIVE_DISPATCH_MAX_DIM + 1)
    assert not dispatch.native_kernel_usable(NATIVE_DISPATCH_MAX_NODES + 1, 4)
    assert probes == []  # shape gates never reached the probe
    monkeypatch.setattr(dispatch, "_JIT_KERNEL", None)
    assert not dispatch.native_kernel_usable(1000, 4)
    assert probes == [True]  # auto path probes with warn=True
    # A registered kernel short-circuits the probe entirely.
    monkeypatch.setattr(dispatch, "_JIT_KERNEL", lambda *a, **kw: None)
    assert dispatch.native_kernel_usable(1000, 4)
    assert probes == [True]


def test_jit_slot_guarded(monkeypatch):
    """kernel='native' raises a clear error when the compiled walker
    cannot load and nothing is registered; a registered walker is
    returned."""
    from repro.core.dispatch import get_jit_kernel
    from repro.exceptions import KernelUnavailableError

    # Simulate a host where the native build already failed: slot empty,
    # one-shot autoload spent.
    monkeypatch.setattr(dispatch, "_JIT_KERNEL", None)
    monkeypatch.setattr(dispatch, "_AUTOLOAD_ATTEMPTED", True)
    with pytest.raises(KernelUnavailableError, match="no compiled walk kernel"):
        get_jit_kernel()
    sentinel = object()
    fake = lambda *a, **kw: sentinel  # noqa: E731
    monkeypatch.setattr(dispatch, "_JIT_KERNEL", fake)
    assert get_jit_kernel() is fake
    assert select_kernel(n_nodes=10**6, d=4) == "native"
    monkeypatch.setattr(dispatch, "_JIT_KERNEL", None)
    with pytest.raises(KernelUnavailableError):
        get_jit_kernel()


def test_register_none_rearms_autoload():
    """Clearing the slot re-arms the one-shot native autoload probe, so
    a later get_jit_kernel() may self-register the bundled walker."""
    prev_kernel = dispatch._JIT_KERNEL
    prev_flag = dispatch._AUTOLOAD_ATTEMPTED
    try:
        register_jit_kernel(None)
        assert dispatch._AUTOLOAD_ATTEMPTED is False
    finally:
        dispatch._JIT_KERNEL = prev_kernel
        dispatch._AUTOLOAD_ATTEMPTED = prev_flag
