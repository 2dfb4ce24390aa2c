from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import speed
from perfbench.record import Phase, Window


def answer(ids, real, pseudo, **extra):
    ids = np.asarray(ids)
    return SimpleNamespace(
        ids=ids, scores=ids / 10.0,
        counter=SimpleNamespace(real=real, pseudo=pseudo), **extra,
    )


def test_window_keeps_answers_and_failed_reads():
    window = Window(4, 3)
    window.add(7, 0.5, answer([1, 2, 3], 5, 1))
    window.add(8, 0.25, None)
    window.add(9, 0.75, answer([4, 5], 0, 0))
    positions, answers = window.answers()
    assert positions.tolist() == [0, 2]
    assert [ids.tolist() for ids, _ in answers] == [[1, 2, 3], [4, 5]]
    assert answers[1][1].tolist() == [0.4, 0.5]


def test_phase_folds_costs_misses_and_scaled_rates():
    window = Window(4, 3)
    window.add(0, 0.5, answer([1, 2, 3], 5, 1, shard_costs={0: 4, 1: 2}))
    window.add(1, 0.25, None)
    window.add(2, 0.75, answer([4, 5, 6], 0, 0, shard_costs={}))  # a cache hit
    window.errors.append("read 1: boom")
    phase = Phase()
    phase.close(window, 2.0, 1.5, 4.0)
    assert phase.reads == 3 and phase.failures == ["read 1: boom"]
    assert phase.costs().tolist() == [6, 0, 0]
    assert (phase.misses, phase.real, phase.pseudo, phase.shard) == (1, 5, 1, 6)
    assert (phase.elapsed, phase.cpu, phase.scaled) == (2.0, 1.5, 4.0)


def test_scale_uses_the_probes_around_the_window():
    half = speed.REFERENCE_S / 2
    assert speed.scale(3.0, 3.0, 0.0, half, half) == pytest.approx(6.0)
    assert speed.scale(3.0, 3.0, 0.0, speed.REFERENCE_S, 3 * speed.REFERENCE_S) == pytest.approx(1.5)
    # waiting off the CPU is kept as it is, stolen time is left out
    assert speed.scale(3.0, 1.0, 0.0, half, half) == pytest.approx(4.0)
    assert speed.scale(3.0, 1.0, 0.5, half, half) == pytest.approx(3.5)
    assert speed.scale(3.0, 1.0, 5.0, half, half) == pytest.approx(2.0)
    assert speed.probe() > 0 and speed.stolen() >= 0
