#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

Usage, from the repository root::

    python3 perfbench/run.py --workload solo_miss --seed 1 --seconds 10 --trace 0

Sets up ``SETUPS`` times (``setup_s`` is the median, at reference host
speed: see ``perfbench/speed.py``), warms up, then serves
for ``--seconds`` timed seconds, checking every answer against the oracle
between timed windows.  With
``--trace 1`` the first half is served untraced and the second half with
the layer wrappers installed; the run reports the per-layer metrics and
writes its spans under ``.bench_build/perfbench``.  The last line of
standard output is the JSON result.  Exits 2, printing no result, when the
repository sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 3

#: Failed operations printed in full.
SHOW_FAILURES = 20


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_paths() -> bool:
    """Serve the sources next to this directory; False when they are absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    sys.path[:0] = [str(src), str(ROOT)]
    return True


def execute(workload, seconds: float, trace: bool) -> dict:
    """Set up, warm up, serve, check and measure one workload.

    Untraced, the whole of ``seconds`` is one timed phase and the result
    holds the end-to-end metrics.  Traced, an untraced half is followed by
    a half with the layer wrappers installed, and the result holds the
    per-layer metrics.
    """
    from perfbench import layers, measure, speed, stats
    from perfbench.spans import Tracer, maybe_span
    from perfbench.workloads import trace_builds

    tracer = Tracer() if trace else None
    setup_s = []
    if tracer is not None:
        trace_builds(tracer)
    setup_wall_s = []
    for _ in range(SETUPS):
        workload.teardown()
        gc.collect()
        before = speed.probe()
        steal, cpu, start = speed.stolen(), time.process_time(), time.perf_counter()
        with maybe_span(tracer, "bench.setup"):
            workload.setup(tracer)
        cpu, took = time.process_time() - cpu, time.perf_counter() - start
        steal = speed.stolen() - steal
        setup_wall_s.append(took)
        setup_s.append(speed.scale(took, cpu, steal, before, speed.probe()))
    if tracer is not None:
        tracer.unwrap_all()
    phases = [workload.warmup()]
    # What setup and warm-up left is the program's standing state: move it
    # out of the collector's generations so collections in the timed phase
    # cost what the served path's own garbage costs.
    gc.collect()
    gc.freeze()
    if tracer is None:
        phases.append(workload.timed(seconds))
    else:
        phases.append(workload.timed(seconds / 2))
        before = workload.counts()
        workload.trace(tracer)
        try:
            phases.append(workload.timed(seconds / 2))
        finally:
            tracer.unwrap_all()
        after = workload.counts()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gc.unfreeze()
    failures = [failure for phase in phases for failure in phase.failures]
    failures += workload.check_state()
    run = {
        "attempted": sum(phase.reads + phase.writes for phase in phases),
        "failures": failures,
        "tracer": tracer,
    }
    if tracer is None:
        values, extras = measure.end_to_end(workload, setup_s, phases, peak_rss_mib)
        extras["setup_wall_s"] = stats.median(setup_wall_s)
        return {**run, "values": values, "units": measure.END_TO_END,
                "not_measured": [], "extras": extras}
    values, not_measured = measure.per_layer(
        tracer, workload, phases[-2], phases[-1], before, after
    )
    return {**run, "values": values, "units": layers.units(),
            "not_measured": not_measured,
            "extras": {"missing_wrappers": tracer.missing,
                       "unmeasured_layers": layers.UNMEASURED}}


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if not _import_paths():
        print(f"perfbench: no repository sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench.host import pin_blas_threads

    pin_blas_threads()
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(ROOT / ".bench_build" / "native")

    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    from perfbench.host import fingerprint
    from perfbench.workloads import WORKLOADS
    from repro.core.native import native_ready

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    # Compile or load the native kernel now, so no timed phase pays for it.
    native_ready(warn=True)

    workload = WORKLOADS[args.workload](args.seed, out_dir / f"run-{os.getpid()}")
    workload.workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = execute(workload, args.seconds, bool(args.trace))
        if args.trace:
            run["tracer"].write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        workload.close()
    values, units, failures = run["values"], run["units"], run["failures"]
    attempted, not_measured, extras = run["attempted"], run["not_measured"], run["extras"]

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": len(failures),
        "fail_frac": len(failures) / attempted,
        "not_measured": not_measured,
        **extras,
        "host": fingerprint(),
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, unit in units.items():
        note = " (not measured)" if name in not_measured else ""
        print(f"  {name:40s} {values[name]:14.6g} {unit}{note}")
    for name, value in extras.items():
        print(f"  {name:40s} {value}")
    print(f"  {'fail_frac':40s} {report['fail_frac']:14.6g} ({len(failures)}/{attempted})")
    for failure in failures[:SHOW_FAILURES]:
        print(f"  FAILED {failure}")
    print("host " + json.dumps(report["host"]))
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(
        json.dumps({**report, "failures": failures, "metrics": values}, indent=1)
    )
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
