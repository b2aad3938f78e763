"""The workloads: set-up, timed window, answer checks, metrics.

Every workload serves n=20k, d=4, k=10 IND data (:mod:`gen`), from one
process and one caller or event loop.

* ``cold_uniform`` — closed loop, one caller, ``GIREngine.topk`` with
  i.i.d. uniform weights and the default cache of 128: nearly every read
  misses, so the miss path (BRS, phase 1, FP phase 2, assemble, cache
  insert) does the work and serve, cluster and the hit path do none.
* ``hot_catalog`` — closed loop, one caller, ``GIREngine.topk`` with a
  cache of 512 over a Zipf(1.1) catalog of 384 exactly repeated vectors;
  set-up serves every catalog vector once, so every timed read is a full
  hit and the pipeline does no work.
* ``serve_burst_rw`` — open loop into ``ServeFront`` (default config)
  over a 2-shard process ``ShardedGIREngine`` (kd partitioner, parallel
  fan-out): Poisson background reads, flash-crowd bursts and small write
  bursts, stepping through a fixed rate ladder. The only workload that
  crosses serve, cluster, wire, merge, the write fence and write-time
  invalidation.

``cold_uniform`` and ``serve_burst_rw`` are the gated workloads of
``BENCHMARK.json`` (:data:`GATED`). ``hot_catalog`` runs with the same
command but is not gated: its set-up serves the whole catalog, about
10 s on a 2-vCPU host, five times a run, which leaves no room in the
benchmark's time budget for runs long enough to be steady.

``run(name, seed, seconds, trace)`` returns a :class:`Result`. Untraced,
it sets up five times (``setup_s`` is the median), measures one window
and checks every answer. The closed loops report set-up time, read
latency and throughput at a reference host speed (:mod:`hostspeed`),
with the wall-clock read figures printed and recorded beside them; the
open loop reports wall-clock time. Traced, it sets up once and measures
one window in which the probes are in for half the reads — every other
read of a closed loop, two of every four ladder rounds of the open
loop — so traced and untraced reads see the same state; the per-layer
numbers come from the traced reads, and the ratio of the two halves'
median read latency is the tracing overhead.
"""

from __future__ import annotations

import asyncio
import contextvars
import gc
import statistics
from array import array
from collections import Counter
from dataclasses import asdict, dataclass, field
from time import perf_counter

import numpy as np

import gen
import hostspeed
import probes
from spans import Tracer, layer_totals, self_times

from repro import GIREngine, ShardedGIREngine, scan_topk
from repro.serve import ServeConfig, ServeError, ServeFront, replay_serial_check
from repro.serve.replay import DeleteLog, InsertLog, ReadLog

__all__ = ["WORKLOADS", "GATED", "LAYER_UNITS", "Result", "run", "pct"]

#: Why each workload exists (the property it isolates).
WORKLOADS = {
    "cold_uniform": "distinct uniform reads against a 128-entry cache: nearly all misses, so the miss path (BRS, phase 1, FP phase 2, cache insert) does the work",
    "hot_catalog": "Zipf reads over a warmed 384-vector catalog that fits a 512-entry cache: every read is a full hit, so only the hit path (grid, matvec, rescoring) works",
    "serve_burst_rw": "open-loop bursts, background reads and 20% writes into the front door over a 2-process cluster: batching, coalescing, fan-out, merge and the write fence work",
}
#: The workloads of ``BENCHMARK.json``.
GATED = ("cold_uniform", "serve_burst_rw")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 5
#: ``hot_catalog`` cache capacity, catalog size and Zipf skew.
HOT_CAPACITY, HOT_CATALOG, HOT_ZIPF = 512, 384, 1.1
#: Reads generated per closed-loop stream (cycled if a window needs more).
STREAM_LEN = {"cold_uniform": 4_000, "hot_catalog": 40_000}
#: Closed loops sample the host factor (:mod:`hostspeed`) between reads
#: this often.
HOST_SAMPLE_S = 1.0
#: ``serve_burst_rw`` latency limit on a ladder step's read p95.
SERVE_P95_LIMIT_MS = 250.0
#: Closed-loop windows are cut into equal parts of about this many
#: seconds (the open loop into its ladder rounds, ``gen.SERVE.round_s``);
#: read_p50_ms / read_p95_ms are the median over the parts of each part's
#: percentile, so one stall moves one part.
PART_S = 5.0


def pct(values, q: float) -> float:
    """Linear-interpolated percentile; ``inf`` entries (failed reads)
    count as over any limit."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


@dataclass
class Result:
    workload: str
    params: dict
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)
    #: End-to-end metrics (name → (value, unit, samples or None)).
    e2e: dict = field(default_factory=dict)
    #: Printed and recorded, not in ``BENCHMARK.json``: metrics that exist
    #: on some workloads only, are 0 on a correct run, or are too unsteady
    #: on a shared host to gate.
    extra: dict = field(default_factory=dict)
    #: Per-layer metrics (traced runs).
    layers: dict = field(default_factory=dict)
    #: Measured share of the property the workload exists for.
    property_share: dict = field(default_factory=dict)
    steps: list = field(default_factory=list)
    spans: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


# -- set-up -------------------------------------------------------------------


def _timed_setups(build, reps: int, clock: hostspeed.HostClock | None = None):
    """Run ``build`` ``reps`` times; keep the last object, return the median
    time. Earlier objects are released (``close``) before the next. With a
    clock, each time is taken at the reference host speed, by the factor
    sampled just before its set-up."""
    times = []
    obj = None
    for _ in range(reps):
        if obj is not None:
            _release(obj)
            obj = None
            gc.collect()
        host = clock.sample() if clock is not None else 1.0
        t0 = perf_counter()
        obj = build()
        times.append((perf_counter() - t0) / host)
    return obj, statistics.median(times), times


def _release(obj) -> None:
    if isinstance(obj, tuple):  # (cluster, front)
        cluster, front = obj
        asyncio.run(front.close())
        cluster.close()


# -- closed loop -----------------------------------------------------------------


class _Reads:
    """Compact per-read record of a closed-loop window: start offsets and
    latencies in float arrays, provenance as counts, and page / candidate
    counts for the reads that ran the pipeline. Kept small so that the
    benchmark's own bookkeeping does not grow with throughput and show up
    in ``peak_rss_mb``."""

    def __init__(self) -> None:
        self.at = array("d")
        self.lat_ms = array("d")
        #: Host factor (:mod:`hostspeed`) in force when each read ran.
        self.host = array("d")
        self.sources: Counter = Counter()
        #: (pages read, phase-2 candidates) of each read that was not a full hit.
        self.misses: list[tuple[int, int]] = []

    def add(self, at: float, lat_ms: float, resp, host: float) -> None:
        self.at.append(at)
        self.lat_ms.append(lat_ms)
        self.host.append(host)
        self.sources[resp.source] += 1
        if resp.source != "cache":
            self.misses.append((
                resp.pages_read,
                resp.gir_stats.phase2_candidates if resp.gir_stats else 0,
            ))

    def share(self, source: str) -> float:
        return self.sources[source] / len(self.lat_ms)


@dataclass
class _Window:
    #: Untraced reads (every read of an untraced run).
    plain: _Reads = field(default_factory=_Reads)
    #: Reads served with the probes installed (traced runs).
    traced: _Reads = field(default_factory=_Reads)
    #: Weight-vector bytes → (weights, Counter of the ordered ids served).
    answers: dict = field(default_factory=dict)
    #: Cache counter deltas summed over the traced reads.
    grid_probes: int = 0
    grid_negatives: int = 0
    capacity_evictions: int = 0
    #: Window time spent serving reads (the host-speed samples excluded).
    wall_s: float = 0.0
    clock: hostspeed.HostClock = field(default_factory=hostspeed.HostClock)

    @property
    def count(self) -> int:
        return len(self.plain.lat_ms) + len(self.traced.lat_ms)


def _cache_counters(engine) -> tuple[int, int, int]:
    probes_, negatives = engine.cache.grid_counters()
    return probes_, negatives, engine.cache.capacity_evictions


def _closed_window(engine, stream, seconds: float, tracer: Tracer | None = None) -> _Window:
    """One caller, back to back, for ``seconds``. With a tracer, every
    other read runs with the probes installed, so traced and untraced
    reads see the same cache state and their latencies compare. The host
    factor is sampled between reads every ``HOST_SAMPLE_S``."""
    reqs = stream.requests
    win = _Window()
    i = 0
    gc.collect()
    host = win.clock.sample()
    spent0 = win.clock.spent_s
    t_start = perf_counter()
    deadline = t_start + seconds
    next_sample = t_start + HOST_SAMPLE_S
    while True:
        req = reqs[i % len(reqs)]
        traced = tracer is not None and i % 2 == 1
        if traced:
            before = _cache_counters(engine)
            installed = probes.install(probes.ENGINE_PROBES, tracer)
        t0 = perf_counter()
        resp = engine.topk(req.weights, req.k)
        t1 = perf_counter()
        if traced:
            installed.remove()
            after = _cache_counters(engine)
            win.grid_probes += after[0] - before[0]
            win.grid_negatives += after[1] - before[1]
            win.capacity_evictions += after[2] - before[2]
        (win.traced if traced else win.plain).add(t0 - t_start, (t1 - t0) * 1e3, resp, host)
        key = req.weights.tobytes()
        if key not in win.answers:
            win.answers[key] = (req.weights, Counter())
        win.answers[key][1][resp.ids] += 1
        i += 1
        if t1 >= deadline:
            break
        if t1 >= next_sample:
            host = win.clock.sample()
            next_sample = perf_counter() + HOST_SAMPLE_S
    win.wall_s = perf_counter() - t_start - (win.clock.spent_s - spent0)
    return win


def _check_closed(engine, answers: dict) -> int:
    """Ordered ids of every answer against ``scan_topk`` over the live
    rows, run once per distinct vector. Returns the wrong answers."""
    live = engine.table.live_mask
    bad = 0
    for w, served in answers.values():
        truth = tuple(scan_topk(engine.points, w, gen.K, live=live).ids)
        bad += sum(n for ids, n in served.items() if tuple(ids) != truth)
    return bad


def _closed_setup(name: str, seed: int, stream, params: dict):
    if name == "cold_uniform":
        return lambda: GIREngine(gen.dataset(seed))
    catalog = gen.catalog_of(stream)
    params["catalog_served"] = len(catalog)

    def build():
        engine = GIREngine(gen.dataset(seed), cache_capacity=HOT_CAPACITY)
        for w in catalog:
            engine.topk(w, gen.K)
        return engine

    return build


def _closed_params(name: str, seed: int) -> dict:
    p = {"n": gen.N, "d": gen.D, "k": gen.K, "family": "IND", "seed": seed,
         "loop": "closed", "callers": 1, "method": "fp",
         "stream_len": STREAM_LEN[name]}
    if name == "cold_uniform":
        p.update(weights="uniform [0.1, 0.9]^d", cache_capacity=128)
    else:
        p.update(weights="zipf_clustered spread=0", cache_capacity=HOT_CAPACITY,
                 catalog=HOT_CATALOG, zipf_s=HOT_ZIPF)
    return p


def _closed_stream(name: str, seed: int):
    if name == "cold_uniform":
        return gen.cold_stream(seed, STREAM_LEN[name])
    return gen.hot_stream(seed, STREAM_LEN[name], HOT_CATALOG, HOT_ZIPF)


def _run_closed(name: str, seed: int, seconds: float, trace: bool) -> Result:
    stream = _closed_stream(name, seed)
    res = Result(name, _closed_params(name, seed))
    build = _closed_setup(name, seed, stream, res.params)
    setup_clock = hostspeed.HostClock()
    engine, setup_s, setup_all = _timed_setups(build, 1 if trace else SETUP_REPS, setup_clock)
    tracer = Tracer() if trace else None
    win = _closed_window(engine, stream, seconds, tracer)
    res.attempted = win.count
    res.failed = _check_closed(engine, win.answers)
    res.checks["scan_topk_all_answers"] = res.failed == 0
    reads = win.traced if trace else win.plain
    if name == "cold_uniform":
        res.property_share["miss_share"] = reads.share("computed")
    else:
        res.property_share["full_hit_share"] = reads.share("cache")
    if trace:
        res.layers = _closed_layers(engine, tracer, win)
        res.spans = tracer.to_rows()
        return res
    wall = reads.lat_ms
    # Each read's latency at the reference host speed.
    lat = [ms / f for ms, f in zip(wall, reads.host)]
    n_parts = max(1, round(seconds / PART_S))
    part_s = seconds / n_parts
    parts: list[list[float]] = [[] for _ in range(n_parts)]
    wall_parts: list[list[float]] = [[] for _ in range(n_parts)]
    for at, ms, wall_ms in zip(reads.at, lat, wall):
        parts[min(int(at / part_s), n_parts - 1)].append(ms)
        wall_parts[min(int(at / part_s), n_parts - 1)].append(wall_ms)
    qps_wall = len(wall) / win.wall_s
    # The run's host factor, weighted by the time each read took.
    host = sum(wall) / sum(lat)
    res.e2e = {
        "setup_s": (setup_s, "s", len(setup_all)),
        "read_p50_ms": (_median_of_parts(parts, 50), "ms", len(lat)),
        "read_qps": (qps_wall * host, "1/s", len(lat)),
    }
    res.extra["read_p95_ms"] = (_median_of_parts(parts, 95), "ms", len(lat))
    if len(lat) >= 1000:
        res.extra["read_p99_ms"] = (pct(lat, 99), "ms", len(lat))
    res.extra.update({
        "read_p50_ms_wall": (_median_of_parts(wall_parts, 50), "ms", len(wall)),
        "read_p95_ms_wall": (_median_of_parts(wall_parts, 95), "ms", len(wall)),
        "read_qps_wall": (qps_wall, "1/s", len(wall)),
        "failed_frac": (res.failed / res.attempted, "ratio", res.attempted),
    })
    res.params["host_speed"] = win.clock.summary()
    res.params["setup_host_factors"] = setup_clock.samples
    res.params["reads_per_part"] = [len(p) for p in parts]
    res.params["setup_s_each"] = setup_all
    return res


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _closed_layers(engine, tracer: Tracer, win: _Window) -> dict:
    layers = layer_totals(tracer.spans)
    reads = win.traced
    misses = reads.misses

    def row(name: str) -> dict:
        return layers.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def self_ms(name: str) -> float:
        return _ratio(row(name)["self_s"] * 1e3, row(name)["calls"])

    def mean_ms(name: str) -> float:
        return _ratio(row(name)["total_s"] * 1e3, row(name)["calls"])

    e2e_s = sum(reads.lat_ms) / 1e3
    self_s = {name: r["self_s"] for name, r in sorted(layers.items())}
    out = _zero_layers()
    out.update({
        "engine.topk_self_ms": self_ms("engine"),
        "engine.full_hit_ratio": reads.share("cache"),
        "cache.lookup_us": mean_ms("cache.lookup") * 1e3,
        "cache.index_rows": float(engine.cache.stats()["index_rows"]),
        "cache.grid_negative_ratio": _ratio(win.grid_negatives, win.grid_probes),
        "cache.insert_ms": mean_ms("cache.insert"),
        "cache.capacity_evictions": float(win.capacity_evictions),
        "brs.self_ms": self_ms("brs"),
        "index.pages_per_miss": _ratio(sum(p for p, _ in misses), len(misses)),
        "phase1.self_ms": self_ms("phase1"),
        "assemble.self_ms": self_ms("assemble"),
        "phase2.self_ms": self_ms("phase2"),
        "phase2.candidates_per_miss": _ratio(sum(c for _, c in misses), len(misses)),
        "fp.build_fan_ms": mean_ms("fp.build_fan"),
        "fp.refine_fans_ms": mean_ms("fp.refine_fans"),
        "fp.add_point_calls_per_miss": _ratio(tracer.counters.get("add_point", 0.0), len(misses)),
        "trace.residual_frac": (e2e_s - sum(self_s.values())) / e2e_s,
        "trace.overhead_frac": statistics.median(reads.lat_ms)
        / statistics.median(win.plain.lat_ms) - 1.0,
    })
    out["_self_s"] = self_s
    out["_e2e_s"] = e2e_s
    return out


# -- open loop -----------------------------------------------------------------------


def _serve_params(seed: int, rounds: int, step_s: float) -> dict:
    return {
        "n": gen.N, "d": gen.D, "k": gen.K, "family": "IND", "seed": seed,
        "loop": "open", "event_loops": 1, "method": "fp",
        "engine": "ShardedGIREngine(shards=2, partitioner=kd, backend=process, parallel=True)",
        "serve_config": "ServeConfig() defaults",
        "rounds": rounds, "step_s": step_s, "p95_limit_ms": SERVE_P95_LIMIT_MS,
        **asdict(gen.SERVE),
    }


def _serve_build(seed: int):
    hot = gen.serve_hot_vectors(seed)

    def build():
        cluster = ShardedGIREngine(
            gen.dataset(seed), shards=2, partitioner="kd",
            backend="process", parallel=True,
        )
        # The hot vectors are popular preferences the cluster has served
        # before the crowd arrives: a burst tests batching and coalescing,
        # not a cold miss that every seed would pay differently.
        for w in hot:
            cluster.topk(w, gen.K)
        return cluster, ServeFront(cluster, ServeConfig())

    return build


@dataclass
class _OpRecord:
    op: gen.ScheduledOp
    sched: float
    send: float = 0.0
    done: float = 0.0
    out: object = None
    error: str | None = None
    traced: bool = False

    @property
    def latency_ms(self) -> float:
        return (self.done - self.sched) * 1e3 if self.error is None else float("inf")


async def _open_loop(front, schedule, offset, request_var, on_round) -> tuple[list, float]:
    """Send every op at its scheduled instant (``op.at - offset`` seconds
    after the window starts) regardless of replies. ``on_round(k)`` runs
    before the first op of ladder round ``k`` is sent and returns the
    tracer for that round's ops, or ``None``."""
    records: list[_OpRecord] = []
    tasks = []

    async def fire(rec: _OpRecord, tracer) -> None:
        rec.send = perf_counter()
        if tracer is not None:
            rid = tracer.new_request()
            request_var.set(rid)
        op = rec.op
        try:
            if op.kind == "read":
                rec.out = await front.topk(op.vector, gen.K)
            elif op.kind == "insert":
                rec.out = await front.insert(op.vector)
            else:
                rec.out = await front.delete(op.rid)
        except ServeError as exc:
            rec.error = type(exc).__name__
        except Exception as exc:  # an engine failure is a failed op, not a crash
            rec.error = f"{type(exc).__name__}: {exc}"
        rec.done = perf_counter()
        if tracer is not None:
            tracer.record("loadgen", rec.sched, rec.send, request=rid)

    t_start = perf_counter() + 0.02
    current, tracer = None, None
    for op in schedule:
        rec = _OpRecord(op, t_start + op.at - offset)
        records.append(rec)
        delay = rec.sched - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        if op.round != current:
            current = op.round
            tracer = on_round(current)
        rec.traced = tracer is not None
        tasks.append(asyncio.create_task(fire(rec, tracer)))
    await asyncio.gather(*tasks)
    on_round(None)
    return records, t_start


def _depth(records, t: float) -> int:
    """Operations due by ``t`` and not yet answered at ``t``."""
    return sum(r.sched <= t < r.done for r in records)


def _serve_window(front, schedule, step_s, on_round=None, request_var=None):
    """The ladder rounds through a started-then-drained front door.
    Returns the op records, the window start and per-step stats."""

    async def main():
        await front.start()
        try:
            return await _open_loop(
                front, schedule, 0.0, request_var, on_round or (lambda k: None))
        finally:
            await front.close()

    gc.collect()
    records, t_start = asyncio.run(main())
    return records, t_start, _ladder_steps(records, t_start, step_s)


def _ladder_steps(records, t_start, step_s) -> list[dict]:
    """Per ladder step, pooled over the rounds: read percentiles from the
    scheduled send time, and the backlog test on every (round, step)
    segment — the depth at the segment's end above its start."""
    ladder = gen.SERVE.ladder
    steps = []
    for step, rate in enumerate(ladder):
        mine = [r for r in records if r.op.step == step]
        reads = [r.latency_ms for r in mine if r.op.kind == "read"]
        grew = 0
        rounds = sorted({r.op.round for r in mine})
        for rnd in rounds:
            lo = t_start + (rnd * len(ladder) + step) * step_s
            grew += _depth(records, lo + step_s) > _depth(records, lo)
        p95 = pct(reads, 95)
        backlogged = grew * 2 > len(rounds)
        steps.append({
            "rate_ops_per_s": rate, "reads": len(reads),
            "read_p50_ms": pct(reads, 50), "read_p95_ms": p95,
            "segments": len(rounds), "segments_backlogged": grew,
            "backlogged": backlogged,
            "meets_limit": p95 <= SERVE_P95_LIMIT_MS and not backlogged,
        })
    return steps


def _median_of_parts(parts: list[list[float]], q: float) -> float:
    """Median over a run's parts (ladder rounds, quarter windows) of each
    part's percentile: one bad stall moves one part, not the figure."""
    return statistics.median(pct(p, q) for p in parts if p)


def _spot_check(log, data_points) -> tuple[int, int]:
    """``scan_topk`` over the live rows at chosen points of the commit
    order: the first read after every write and every 8th read. Returns
    (checked, mismatches)."""
    rows = [np.asarray(p, dtype=np.float64) for p in data_points]
    live = [True] * len(rows)
    checked = bad = 0
    after_write = False
    n_reads = 0
    for entry in log:
        if isinstance(entry, InsertLog):
            assert entry.rid == len(rows)
            rows.append(np.asarray(entry.point, dtype=np.float64))
            live.append(True)
            after_write = True
        elif isinstance(entry, DeleteLog):
            live[entry.rid] = False
            after_write = True
        elif isinstance(entry, ReadLog):
            if after_write or n_reads % 8 == 0:
                truth = scan_topk(np.stack(rows), entry.weights, entry.k,
                                  live=np.asarray(live)).ids
                checked += 1
                bad += tuple(truth) != tuple(entry.ids)
            after_write = False
            n_reads += 1
    return checked, bad


def _check_serve(seed, log, records) -> tuple[dict, int]:
    checks = {}
    replay = replay_serial_check(log, GIREngine(gen.dataset(seed)))
    checks["replay_serial_check"] = replay["all_match"]
    checked, spot_bad = _spot_check(log, gen.dataset(seed).points)
    checks["scan_topk_spot_checks"] = spot_bad == 0
    served = Counter(
        (r.op.vector.tobytes(), tuple(r.out.ids)) for r in records
        if r.op.kind == "read" and r.error is None
    )
    logged = Counter(
        (np.asarray(e.weights).tobytes(), tuple(e.ids)) for e in log if isinstance(e, ReadLog)
    )
    checks["responses_equal_log"] = served == logged
    wrong = replay["mismatches"] + spot_bad + sum((served - logged).values())
    checks["_detail"] = {"replayed_reads": replay["requests"], "replayed_writes": replay["writes"],
                         "spot_checked": checked}
    return checks, wrong


def _serve_stats_snapshot(cluster, front) -> dict:
    return {"serve": front.stats.to_dict(), "cluster": cluster.cluster_stats(),
            "cache": cluster.cache.stats(), "shards": cluster.shard_stats()}


def _run_serve(seed: int, seconds: float, trace: bool) -> Result:
    rounds, step_s = gen.serve_layout(seconds)
    schedule = gen.serve_schedule(seed, step_s, rounds)
    res = Result("serve_burst_rw", _serve_params(seed, rounds, step_s))
    (cluster, front), setup_s, setup_all = _timed_setups(
        _serve_build(seed), 1 if trace else SETUP_REPS)
    try:
        rss = _rss_mb(with_children=True)
        snap0 = _serve_stats_snapshot(cluster, front)
        if not trace:
            records, t_start, steps = _serve_window(front, schedule, step_s)
        else:
            # Rounds alternate untraced / traced as A B B A (so drift over
            # the window cancels out of the overhead estimate); the probes
            # go in and out at round boundaries.
            tracer = Tracer(adopters=probes.ROUTER_ADOPTERS)
            request_var = contextvars.ContextVar("request", default=None)
            installed: list = []

            def on_round(k):
                traced = k is not None and (k % 4) in (1, 2)
                if traced and not installed:
                    installed.extend([probes.install(probes.ROUTER_PROBES, tracer),
                                      probes.install_serve(tracer, request_var)])
                elif not traced:
                    while installed:
                        installed.pop().remove()
                return tracer if traced else None

            try:
                records, t_start, steps = _serve_window(
                    front, schedule, step_s, on_round, request_var)
            finally:
                on_round(None)
        snap1 = _serve_stats_snapshot(cluster, front)
        if trace:
            res.layers = _serve_layers(tracer, records, snap0, snap1)
            res.spans = tracer.to_rows()
        rss = max(rss, _rss_mb(with_children=True))
    finally:
        cluster.close()
    res.steps = steps
    res.attempted = len(records)
    errors = sum(r.error is not None for r in records)
    checks, wrong = _check_serve(seed, front.log, records)
    res.params["check_detail"] = checks.pop("_detail")
    res.checks = checks
    res.failed = errors + wrong
    reads = [r for r in records if r.op.kind == "read"]
    writes = [r for r in records if r.op.kind != "read"]
    res.property_share = {
        "fan_in": front.stats.fan_in_ratio,
        "write_share": len(writes) / len(records),
    }
    res.params["peak_rss_mb"] = rss
    if trace:
        return res
    # Wall-clock figures: the open loop's reads run in the shard workers
    # and wait in queues, which a host factor sampled in this process does
    # not track (on a 2-vCPU VM, scaling by a factor sampled around the
    # window spread the read p95 of nine seeds over 0.49 of its median,
    # against 0.16 for the wall-clock figure). The read p95 is printed, not
    # gated: over ten seeds its quartiles spread 0.35 of its median, as
    # single stalls of the two shard workers and the router on two vCPUs
    # come and go.
    read_lat = [r.latency_ms for r in reads]
    write_lat = [r.latency_ms for r in writes]
    by_round = [[r.latency_ms for r in reads if r.op.round == k] for k in range(rounds)]
    last = max(r.done for r in reads)
    ok = [s["rate_ops_per_s"] for s in steps if s["meets_limit"]]
    res.e2e = {
        "setup_s": (setup_s, "s", len(setup_all)),
        "read_p50_ms": (_median_of_parts(by_round, 50), "ms", len(read_lat)),
        "read_qps": (len(reads) / (last - t_start), "1/s", len(reads)),
    }
    res.extra.update({
        "read_p95_ms": (_median_of_parts(by_round, 95), "ms", len(read_lat)),
        "write_p50_ms": (pct(write_lat, 50), "ms", len(write_lat)),
        "write_p90_ms": (pct(write_lat, 90), "ms", len(write_lat)),
        "sustained_rps": (max(ok) if ok else 0.0, "1/s", len(steps)),
        "failed_frac": (res.failed / res.attempted, "ratio", res.attempted),
    })
    res.params["reads_per_part"] = [len(p) for p in by_round]
    res.params["setup_s_each"] = setup_all
    return res


def _serve_layers(tracer: Tracer, records, snap0, snap1) -> dict:
    """Per-layer metrics of a traced ``serve_burst_rw`` window. Times come
    from the spans of the traced rounds; counters and the loop's own
    records cover the whole window (neither depends on tracing)."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    s0, s1 = snap0["serve"], snap1["serve"]

    def d(key: str) -> float:
        return s1[key] - s0[key]

    def root(sp):
        while sp.parent is not None:
            sp = by_id[sp.parent]
        return sp

    def durations(name: str) -> list:
        return [s.duration * 1e3 for s in spans if s.name == name]

    def mean(values) -> float:
        return statistics.fmean(values) if values else 0.0

    ok = [r for r in records if r.error is None]
    reads = [r for r in ok if r.op.kind == "read"]
    writes = [r for r in ok if r.op.kind != "read"]
    inserts = [r for r in writes if r.op.kind == "insert"]
    batches = [s for s in spans if s.name == "cluster"]
    sent = sum(s.attrs.get("n", 0) for s in batches)
    wire_read = [s for s in spans if s.name == "cluster.wire" and root(s).name == "cluster"]
    shard_children: dict[int, list] = {}
    for s in spans:
        if s.name == "cluster.shard" and s.parent is not None:
            shard_children.setdefault(s.parent, []).append(s.duration * 1e3)
    stragglers = [max(v) - min(v) for v in shard_children.values() if len(v) > 1]

    def shard_delta(key: str) -> float:
        return sum(b[key] - a[key] for a, b in zip(snap0["shards"], snap1["shards"]))

    lookups = sum(shard_delta(k) for k in ("cache_full_hits", "cache_partial_hits", "cache_misses"))
    c0, c1 = snap0["cluster"], snap1["cluster"]
    k0, k1 = snap0["cache"], snap1["cache"]
    cl_hits = c1["cluster_full_hits"] - c0["cluster_full_hits"]
    cl_miss = c1["cluster_misses"] - c0["cluster_misses"]
    shard_rtt = durations("cluster.shard")

    # Request trees: the loop's send lag and the front door call.
    request_spans = [s for s in spans if s.name in ("loadgen", "serve")]
    request_self = {}
    for sp_id, self_s in self_times(request_spans).items():
        name = by_id[sp_id].name
        request_self[name] = request_self.get(name, 0.0) + self_s
    traced = [r for r in ok if r.traced]
    e2e_s = sum(r.done - r.sched for r in traced)
    traced_reads = [r.latency_ms for r in reads if r.traced]
    plain_reads = [r.latency_ms for r in reads if not r.traced]
    out = _zero_layers()
    out.update({
        "serve.queue_wait_p95_ms": pct([r.out.wait_ms for r in reads], 95),
        "serve.batch_size_mean": _ratio(d("engine_requests"), d("engine_batch_calls")),
        "serve.fan_in": _ratio(d("reads_served"), d("engine_requests")),
        "serve.coalesce_success_ratio": _ratio(d("coalesced_served"), d("coalesce_attached")),
        "serve.shed_count": d("shed"),
        "serve.fence_wait_ms": mean([
            (r.done - r.send) * 1e3 - r.out.service_ms for r in writes]),
        "cluster.cache_hit_ratio": _ratio(cl_hits, cl_hits + cl_miss),
        "cluster.merge_ms": mean(durations("cluster.merge")),
        "cluster.wire_ms": _ratio(sum(s.duration for s in wire_read) * 1e3, sent),
        "cluster.wire_bytes_per_read": _ratio(
            sum(s.attrs.get("bytes", 0) for s in wire_read), sent),
        "cluster.shard_rtt_p50_ms": pct(shard_rtt, 50) if shard_rtt else 0.0,
        "cluster.shard_rtt_p95_ms": pct(shard_rtt, 95) if shard_rtt else 0.0,
        "cluster.straggler_ms": mean(stragglers),
        "cluster.write_rtt_ms": mean(durations("cluster.shard_write")),
        "engine.full_hit_ratio": _ratio(shard_delta("cache_full_hits"), lookups),
        "engine.update_evictions_per_write": _ratio(shard_delta("update_evictions"), len(writes)),
        "engine.prescreen_lps_per_insert": _ratio(
            sum(r.out.update.prescreen_lps for r in inserts), len(inserts)),
        "cache.lookup_batch_us": mean(durations("cache.lookup_batch")) * 1e3,
        "cache.index_rows": float(k1["index_rows"]),
        "cache.grid_negative_ratio": _ratio(
            k1["grid_negatives"] - k0["grid_negatives"], k1["grid_probes"] - k0["grid_probes"]),
        "cache.insert_ms": mean(durations("cache.insert")),
        "cache.capacity_evictions": float(k1["capacity_evictions"] - k0["capacity_evictions"]),
        "index.pages_per_miss": _ratio(shard_delta("page_reads"), shard_delta("cache_misses")),
        "loadgen.lag_p99_ms": pct([(r.send - r.sched) * 1e3 for r in records], 99),
        "trace.residual_frac": (e2e_s - sum(request_self.values())) / e2e_s,
        "trace.overhead_frac": statistics.median(traced_reads) / statistics.median(plain_reads) - 1.0,
    })
    out["_self_s"] = request_self
    out["_e2e_s"] = e2e_s
    # Engine-thread work serves batches, not single requests: its self
    # times are reported on their own, against the traced rounds' wall time.
    out["_engine_thread_self_s"] = {
        name: row["self_s"]
        for name, row in sorted(layer_totals(
            [s for s in spans if s.name not in ("loadgen", "serve")]).items())
    }
    return out


#: Every per-layer metric, in report order, with its unit. Workloads that
#: do not cross a layer in the benchmark process report 0 for it.
LAYER_UNITS = {
    "serve.queue_wait_p95_ms": "ms", "serve.batch_size_mean": "count",
    "serve.fan_in": "ratio", "serve.coalesce_success_ratio": "ratio",
    "serve.shed_count": "count", "serve.fence_wait_ms": "ms",
    "cluster.cache_hit_ratio": "ratio", "cluster.merge_ms": "ms",
    "cluster.wire_ms": "ms", "cluster.wire_bytes_per_read": "B",
    "cluster.shard_rtt_p50_ms": "ms", "cluster.shard_rtt_p95_ms": "ms",
    "cluster.straggler_ms": "ms", "cluster.write_rtt_ms": "ms",
    "engine.topk_self_ms": "ms", "engine.full_hit_ratio": "ratio",
    "engine.update_evictions_per_write": "count",
    "engine.prescreen_lps_per_insert": "count",
    "cache.lookup_us": "us", "cache.lookup_batch_us": "us",
    "cache.index_rows": "count", "cache.grid_negative_ratio": "ratio",
    "cache.insert_ms": "ms", "cache.capacity_evictions": "count",
    "brs.self_ms": "ms", "index.pages_per_miss": "count",
    "phase1.self_ms": "ms", "assemble.self_ms": "ms",
    "phase2.self_ms": "ms", "phase2.candidates_per_miss": "count",
    "fp.build_fan_ms": "ms", "fp.refine_fans_ms": "ms",
    "fp.add_point_calls_per_miss": "count",
    "loadgen.lag_p99_ms": "ms",
    "trace.residual_frac": "ratio", "trace.overhead_frac": "ratio",
}


def _zero_layers() -> dict:
    return {name: 0.0 for name in LAYER_UNITS}


def _rss_mb(with_children: bool) -> float:
    """Peak resident set (VmHWM) of this process plus its live children."""
    import os

    def hwm(pid) -> float:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    total = hwm("self")
    if with_children:
        for tid in os.listdir("/proc/self/task"):
            try:
                with open(f"/proc/self/task/{tid}/children") as fh:
                    total += sum(hwm(pid) for pid in fh.read().split())
            except OSError:
                pass
    return total


def run(name: str, seed: int, seconds: float, trace: bool) -> Result:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")
    if name == "serve_burst_rw":
        res = _run_serve(seed, seconds, trace)
    else:
        res = _run_closed(name, seed, seconds, trace)
        res.params["peak_rss_mb"] = _rss_mb(with_children=False)
    res.params["why"] = WORKLOADS[name]
    if not trace:
        res.e2e["peak_rss_mb"] = (res.params["peak_rss_mb"], "MB", None)
    return res
