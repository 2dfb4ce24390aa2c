"""The three workloads: what each sets up, serves, times and checks.

Each runs in one process on one thread (the gateway's coroutines share the
main thread's event loop) and drives only public entry points with their
defaults, so a later change to those defaults is what the benchmark sees.

* ``solo_miss`` — one closed-loop caller of ``QueryEngine.query`` over a
  snapshot-reopened DL+ index; fresh weights, so every read misses the
  cache.  Isolates engine -> dispatch -> native kernel.
* ``gateway_c16`` — sixteen closed-loop coroutines calling
  ``AsyncGateway.query`` on a default engine; fresh weights.  The only
  workload where coalescing and batch-width dispatch do the work.
* ``cluster_rw`` — one closed-loop caller of a default ``ClusterEngine``;
  Zipf(1.1) reads from a 20k-vector pool, and after every 400 reads one
  write (insert and delete alternate), which rebuilds a shard and prunes
  the cache.  Reads here go through the shard cursors.

A phase is served in windows.  Only a window is timed; its answers are
checked against the oracle once its timing has stopped, and then dropped.
"""

from __future__ import annotations

import asyncio
import shutil
import time
from pathlib import Path

import numpy as np

from perfbench import inputs, speed
from perfbench.check import ClusterMirror, Oracle, cluster_state
from perfbench.inputs import K
from perfbench.record import Phase, Window
from perfbench.spans import Tracer, maybe_span

clock = time.perf_counter
cpu_clock = time.process_time

CLIENTS = 16
READS_PER_WRITE = 400


def trace_builds(tracer: Tracer) -> None:
    """Wrap ``DLPlusIndex.build``; each span carries the stage seconds."""
    from repro.core import DLPlusIndex

    tracer.wrap(
        DLPlusIndex, "build", "core.build.index",
        lambda args, kwargs, result: dict(args[0].build_stats.stage_seconds),
    )


def trace_engine(tracer: Tracer, engine) -> None:
    """Wrap the names the single-node serving path calls through."""
    import repro.serving.engine as engine_module

    tracer.wrap(engine, "query", "serving.engine")
    tracer.wrap(
        engine, "query_batch", "serving.engine",
        lambda args, kwargs, result: args[0],
    )
    trace_cache(tracer, engine.cache)
    tracer.wrap(engine_module, "normalize_weights", "relation.normalize")
    tracer.wrap(engine_module, "select_kernel", "core.dispatch.select")
    tracer.wrap_result(engine_module, "get_jit_kernel", "core.native.call")
    tracer.wrap(
        engine_module, "process_top_k_batch", "core.query.batch",
        lambda args, kwargs, result: int(np.shape(args[1])[0]),
    )


def trace_cache(tracer: Tracer, cache) -> None:
    tracer.wrap(cache, "make_key", "serving.cache.key")
    tracer.wrap(cache, "get", "serving.cache.get")
    tracer.wrap(cache, "put", "serving.cache.put")
    tracer.wrap(
        cache, "prune", "serving.cache.prune",
        lambda args, kwargs, result: result,
    )


def kernel_counts(engine) -> dict[str, float]:
    return {
        key[len("kernel_"):]: value
        for key, value in engine.stats().items()
        if key.startswith("kernel_")
    }




class Workload:
    """Shared shape: set up, then serve and check phases window by window."""

    name = ""
    #: Reads between two checks.
    window_reads = 1024
    warmup_reads = 1000
    #: Reads that fix ``tuples_per_read``: the first this many served after
    #: setup, warm-up included, the same reads for a seed however fast the
    #: run is.
    exact_reads = 2000

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.next = 0
        self.window = Window(self.window_reads, K)

    def setup(self, tracer: Tracer | None) -> None:
        """Generate the data, build and reach ready to serve (timed)."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Drop what :meth:`setup` built."""

    def prepare(self, reads: int) -> None:
        """Generate the inputs of the next ``reads`` reads (not timed)."""

    def serve_window(self, reads: int, deadline: float) -> None:
        """Serve up to ``reads`` reads into :attr:`window`, stopping at
        ``deadline``."""
        raise NotImplementedError

    def steps(self, reads: int, deadline: float) -> list:
        """The window's timed steps (callables), timed one by one with a
        host speed probe between them."""
        return [lambda: self.serve_window(reads, deadline)]

    def check(self, window: Window) -> list[str]:
        """One message per wrong answer or failed write of ``window``."""
        raise NotImplementedError

    def serve(self, reads: int | None, seconds: float) -> Phase:
        """Serve windows until ``reads`` reads or ``seconds`` timed seconds."""
        phase = Phase()
        window = self.window
        after = speed.probe()
        while True:
            left = seconds - phase.elapsed
            todo = self.window_reads if reads is None else min(
                self.window_reads, reads - phase.reads
            )
            if left <= 0 or todo <= 0:
                return phase
            window.clear()
            self.prepare(todo)
            elapsed = cpu = scaled = 0.0
            for step in self.steps(todo, clock() + left):
                before = after
                steal, cpu_start, start = speed.stolen(), cpu_clock(), clock()
                step()
                took, busy = clock() - start, cpu_clock() - cpu_start
                steal = speed.stolen() - steal
                after = speed.probe()
                elapsed += took
                cpu += busy
                scaled += speed.scale(took, busy, steal, before, after)
            phase.close(window, elapsed, cpu, scaled)
            phase.failures += self.check(window)

    def warmup(self) -> Phase:
        return self.serve(self.warmup_reads, float("inf"))

    def timed(self, seconds: float) -> Phase:
        return self.serve(None, seconds)

    def trace(self, tracer: Tracer) -> None:
        """Install the layer wrappers for a traced phase."""
        raise NotImplementedError

    def exact_cost(self, phases: list[Phase]) -> float:
        """Definition-9 accesses per read over the run's fixed first reads."""
        index = np.concatenate([phase.indices() for phase in phases])
        cost = np.concatenate([phase.costs() for phase in phases])
        wanted = index < self.exact_reads
        if wanted.sum() != self.exact_reads:
            raise RuntimeError(
                f"{self.name}: only {int(wanted.sum())} of the first "
                f"{self.exact_reads} reads were served; the run is too short"
            )
        return float(cost[wanted].sum()) / self.exact_reads

    def check_state(self) -> list[str]:
        """One message if the program's state after the run is wrong."""
        return []

    def counts(self) -> dict:
        """Cumulative counters the per-layer metrics take deltas of."""
        return {}

    def close(self) -> None:
        self.teardown()
        shutil.rmtree(self.workdir, ignore_errors=True)


class _FreshReads(Workload):
    """Shared by the two fresh-weight workloads: one engine, one stream."""

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.stream = inputs.WeightStream(seed)
        self.engine = None
        self.oracle = None
        #: The next window's weight vectors, from read :attr:`next` on.
        self.rows = None

    def weights(self, indices) -> np.ndarray:
        return self.stream.at(indices)

    def prepare(self, reads: int) -> None:
        self.rows = self.stream.at(np.arange(self.next, self.next + reads))

    def check(self, window: Window) -> list[str]:
        positions, answers = window.answers()
        indices = window.index[positions]
        if self.oracle is None:
            self.oracle = Oracle(inputs.relation().matrix)
        messages = self.oracle.check(self.stream.at(indices), K, answers)
        return [
            f"read {index}: {message}"
            for index, message in zip(indices, messages) if message
        ]

    def counts(self) -> dict:
        stats = self.engine.cache.stats()
        return {
            "kernels": kernel_counts(self.engine),
            "cache": (stats["hits"], stats["misses"]),
        }


class SoloMiss(_FreshReads):
    name = "solo_miss"

    def setup(self, tracer: Tracer | None) -> None:
        from repro.core import DLPlusIndex
        from repro.io import open_snapshot, save_snapshot
        from repro.serving import QueryEngine

        path = self.workdir / f"snapshot-{len(list(self.workdir.iterdir()))}"
        index = DLPlusIndex(inputs.relation())
        index.build()
        with maybe_span(tracer, "io.snapshot.save"):
            save_snapshot(index, path)
        with maybe_span(tracer, "io.snapshot.open"):
            served = open_snapshot(path)
        self.engine = QueryEngine(served)

    def teardown(self) -> None:
        self.engine = None

    def serve_window(self, reads: int, deadline: float) -> None:
        query, add, rows = self.engine.query, self.window.add, self.rows
        errors, first = self.window.errors, self.next
        for i in range(first, first + reads):
            t0 = clock()
            if t0 >= deadline:
                break
            try:
                result = query(rows[i - first], K)
            except Exception as exc:  # counted as a failed read
                result = None
                errors.append(f"read {i}: {exc!r}")
            add(i, clock() - t0, result)
            self.next = i + 1

    def trace(self, tracer: Tracer) -> None:
        trace_engine(tracer, self.engine)


class GatewayC16(_FreshReads):
    name = "gateway_c16"

    window_reads = 32 * CLIENTS

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.gateway = None
        self.loop = None

    def setup(self, tracer: Tracer | None) -> None:
        from repro.core import DLPlusIndex
        from repro.serving import AsyncGateway, QueryEngine

        index = DLPlusIndex(inputs.relation())
        self.engine = QueryEngine(index)
        self.gateway = AsyncGateway(self.engine)
        self.loop = asyncio.new_event_loop()

    def teardown(self) -> None:
        if self.loop is not None:
            self.loop.run_until_complete(self.gateway.aclose())
            self.loop.close()
        self.loop = self.gateway = self.engine = None

    async def _clients(self, reads: int, deadline: float) -> None:
        query, add, rows = self.gateway.query, self.window.add, self.rows
        errors, first = self.window.errors, self.next
        end = first + reads

        async def client() -> None:
            while True:
                t0 = clock()
                i = self.next
                if t0 >= deadline or i >= end:
                    return
                self.next = i + 1
                try:
                    result = await query(rows[i - first], K)
                except Exception as exc:  # counted as a failed read
                    result = None
                    errors.append(f"read {i}: {exc!r}")
                add(i, clock() - t0, result)

        await asyncio.gather(*(client() for _ in range(CLIENTS)))

    def serve_window(self, reads: int, deadline: float) -> None:
        self.loop.run_until_complete(self._clients(reads, deadline))

    def trace(self, tracer: Tracer) -> None:
        trace_engine(tracer, self.engine)

    def counts(self) -> dict:
        batch = self.gateway.metrics.as_dict()
        return {
            **super().counts(),
            "flushes": (batch["batches"], batch["batch_rows"]),
        }


class ClusterRW(Workload):
    """A window is one cycle: 400 reads, then one write, timed as two steps."""

    name = "cluster_rw"

    window_reads = READS_PER_WRITE
    warmup_reads = 2 * READS_PER_WRITE
    #: Six cycles: over four, the spread between seeds (which reads hit the
    #: cache) was 0.05 of the median; over six, 0.02.
    exact_reads = 6 * READS_PER_WRITE

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.reads = inputs.ZipfReads(seed)
        self.writes = None
        self.cluster = None
        #: The live tuples the cluster should hold, replayed from the writes.
        self.mirror = None
        #: The window's write: ``(op, argument, returned id or None)``, or
        #: ``None`` when it raised.
        self.write = None

    def setup(self, tracer: Tracer | None) -> None:
        from repro.cluster import ClusterEngine

        self.cluster = ClusterEngine(inputs.relation())

    def teardown(self) -> None:
        self.cluster = self.mirror = None

    def prepare(self, reads: int) -> None:
        if self.mirror is None:
            self.mirror = ClusterMirror(inputs.relation().matrix)
            self.writes = inputs.Writes(self.seed)
        self.reads.reserve(self.next + reads)

    def steps(self, reads: int, deadline: float) -> list:
        """``reads`` reads, then one write, whatever the deadline."""
        return [lambda: self.serve_reads(reads), self.serve_write]

    def serve_reads(self, reads: int) -> None:
        query, add = self.cluster.query, self.window.add
        pool, picks, errors = self.reads.pool, self.reads.picks, self.window.errors
        for i in range(self.next, self.next + reads):
            t0 = clock()
            try:
                result = query(pool[picks[i]], K)
            except Exception as exc:  # counted as a failed read
                result = None
                errors.append(f"read {i}: {exc!r}")
            add(i, clock() - t0, result)
        self.next += reads

    def serve_write(self) -> None:
        op, arg = self.writes.next(self.mirror.ids)
        self.write = None
        t0 = clock()
        try:
            if op == "insert":
                self.write = (op, arg, self.cluster.insert(arg))
            else:
                self.cluster.delete(arg)
                self.write = (op, arg, None)
        except Exception as exc:  # counted as a failed write
            self.window.errors.append(f"{op} {arg!r}: {exc!r}")
        finally:
            self.window.write_s.append(clock() - t0)

    def check(self, window: Window) -> list[str]:
        """Reads against the state they were served from, then the write,
        which the mirror replays."""
        positions, answers = window.answers()
        indices = window.index[positions]
        ids, matrix = self.mirror.state()
        messages = Oracle(matrix, ids).check(
            self.reads.pool[self.reads.picks[indices]], K, answers
        )
        failures = [
            f"read {index}: {message}"
            for index, message in zip(indices, messages) if message
        ]
        if self.write is not None:
            op, arg, gid = self.write
            if op == "insert":
                want = self.mirror.insert(arg)
                if gid != want:
                    failures.append(f"insert returned id {gid}, expected {want}")
            else:
                self.mirror.delete(arg)
        return failures

    def check_state(self) -> list[str]:
        """The cluster's live tuples must equal the mirror's after the writes."""
        ids, rows = cluster_state(self.cluster)
        want_ids, want_rows = self.mirror.state()
        if np.array_equal(ids, want_ids) and np.array_equal(rows, want_rows):
            return []
        return [
            f"cluster holds {ids.shape[0]} tuples, mirror {want_ids.shape[0]}; "
            "their ids or values differ"
        ]

    def trace(self, tracer: Tracer) -> None:
        import repro.cluster.coordinator as coordinator
        from repro.cluster import Shard, ShardCursor

        cluster = self.cluster
        tracer.wrap(cluster, "query", "cluster.coordinator")
        tracer.wrap(cluster, "insert", "cluster.write")
        tracer.wrap(cluster, "delete", "cluster.write")
        trace_cache(tracer, cluster.cache)
        tracer.wrap(coordinator, "normalize_weights", "relation.normalize")
        tracer.wrap(Shard, "cursor", "cluster.shard.cursor")
        tracer.wrap(ShardCursor, "fetch", "core.cursor.fetch")
        tracer.wrap(Shard, "insert", "cluster.shard.rebuild")
        tracer.wrap(Shard, "delete", "cluster.shard.rebuild")
        trace_builds(tracer)

    def counts(self) -> dict:
        stats = self.cluster.cache.stats()
        return {"cache": (stats["hits"], stats["misses"])}


WORKLOADS = {cls.name: cls for cls in (SoloMiss, GatewayC16, ClusterRW)}
