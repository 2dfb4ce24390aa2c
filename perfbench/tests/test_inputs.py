import numpy as np

from perfbench import inputs


def test_relation_is_fixed(monkeypatch):
    monkeypatch.setattr(inputs, "N", 300)
    a, b = inputs.relation().matrix, inputs.relation().matrix
    assert a.shape == (300, inputs.D) and np.array_equal(a, b)


def test_weight_stream_is_seeded_and_fresh():
    indices = np.arange(3 * inputs.BLOCK + 5)
    rows = inputs.WeightStream(3).at(indices)
    again = inputs.WeightStream(3)
    # the same rows whatever order and grouping they are asked for in
    assert np.array_equal(again.at(indices[::-1]), rows[::-1])
    assert np.array_equal(again.at([7, inputs.BLOCK + 2]), rows[[7, inputs.BLOCK + 2]])
    assert not np.array_equal(inputs.WeightStream(4).at(indices[:10]), rows[:10])
    assert np.all(rows > 0)
    # fresh: no two reads share a weight vector
    assert np.unique(rows, axis=0).shape[0] == rows.shape[0]


def test_zipf_reads_are_seeded():
    a, b = inputs.ZipfReads(5), inputs.ZipfReads(5)
    assert np.array_equal(a.pool, b.pool)
    assert np.array_equal(a.reserve(100), b.reserve(2 * inputs.BLOCK)[: a.picks.shape[0]])
    assert not np.array_equal(a.picks, inputs.ZipfReads(6).reserve(100)[: a.picks.shape[0]])


def test_writes_alternate_and_repeat():
    live = np.arange(50)
    a, b = inputs.Writes(2), inputs.Writes(2)
    ops_a = [a.next(live) for _ in range(6)]
    ops_b = [b.next(live) for _ in range(6)]
    assert [op for op, _ in ops_a] == ["insert", "delete"] * 3
    for (op, x), (_, y) in zip(ops_a, ops_b):
        assert np.array_equal(x, y)
