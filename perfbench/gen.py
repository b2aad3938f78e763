"""Workload inputs, made from the ``--seed`` argument alone.

The same seed gives the same dataset, request streams and arrival
schedule; the program under test receives only these generated inputs.
Each workload draws from its own child of one ``SeedSequence``, so the
dataset of a seed is the same whichever workload is run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import independent
from repro.engine import uniform_workload, zipf_clustered_workload

__all__ = [
    "N",
    "D",
    "K",
    "SERVE",
    "ScheduledOp",
    "ServeParams",
    "seed_streams",
    "dataset",
    "cold_stream",
    "hot_stream",
    "catalog_of",
    "serve_hot_vectors",
    "serve_layout",
    "serve_schedule",
]

#: Dataset size, dimensionality and result size of every workload.
N, D, K = 20_000, 4, 10


def seed_streams(seed: int) -> dict[str, np.random.Generator]:
    """Independent generators for the dataset and each workload's inputs."""
    names = ("data", "cold", "hot", "serve", "serve_hot")
    children = np.random.SeedSequence(seed).spawn(len(names))
    return {name: np.random.default_rng(c) for name, c in zip(names, children)}


def dataset(seed: int):
    """The IND dataset: ``N`` uniform, independent records in ``[0, 1)^D``."""
    data_seed = int(seed_streams(seed)["data"].integers(2**31))
    return independent(n=N, d=D, seed=data_seed)


def cold_stream(seed: int, count: int):
    """I.i.d. uniform preference vectors: nearly every read is distinct."""
    return uniform_workload(D, count, k=K, rng=seed_streams(seed)["cold"])


def hot_stream(seed: int, count: int, catalog: int, zipf_s: float):
    """Zipf-popular reads over a fixed catalog of preference vectors,
    repeated exactly (``spread=0``)."""
    return zipf_clustered_workload(
        D, count, k=K, clusters=catalog, zipf_s=zipf_s, spread=0.0,
        rng=seed_streams(seed)["hot"],
    )


def catalog_of(stream) -> list[np.ndarray]:
    """Distinct request vectors of a stream, in order of first appearance."""
    seen: dict[bytes, np.ndarray] = {}
    for req in stream:
        seen.setdefault(req.weights.tobytes(), req.weights)
    return list(seen.values())


@dataclass(frozen=True)
class ServeParams:
    """Shape of the open-loop read/write mix of ``serve_burst_rw``.

    Reads come mostly in flash-crowd bursts: cheap for the engine (one
    leader, the rest coalesced or hits), so a run holds enough reads for
    steady percentiles while the engine thread stays well below its knee.
    The slow reads are the bursts' tweaked members (each falls back to its
    own engine pass) and the uniform background reads (misses).
    """

    #: Offered rates, operations per second, one per ladder step.
    ladder: tuple[float, ...] = (8.0, 14.0, 20.0)
    #: One pass through the ladder (a round) lasts about this long; a run
    #: holds as many rounds back to back as fit its window, so a longer
    #: run gives more rounds to take the median over.
    round_s: float = 5.0
    #: Share of operations that are inserts or deletes.
    write_share: float = 0.2
    #: Share of operations that are flash-crowd burst reads; the rest of
    #: the reads are uniform background reads.
    burst_share: float = 0.75
    #: Reads per flash-crowd burst.
    burst_len: int = 8
    #: Burst reads are released within this window of the burst start.
    burst_release_ms: float = 3.0
    #: Distinct hot vectors the bursts aim at (served once in set-up).
    hot: int = 12
    #: Share of a burst after its first read that repeats the hot vector
    #: exactly; the first read always does. (A crowd led by a tweaked
    #: read sends all its exact copies back through the engine at once:
    #: one burst-sized clump whose presence or absence alone would decide
    #: the read p95 of a run.)
    duplicate_fraction: float = 0.85
    #: Std-dev of the tweak applied to the rest of a burst.
    spread: float = 0.004
    #: Share of writes that are inserts; the rest delete initial records.
    insert_fraction: float = 0.25
    #: Writes per write burst, spaced ``write_gap_ms`` apart. Each write
    #: fences the reads behind it, so a long write burst would stall a
    #: whole read burst at once.
    write_burst: int = 2
    write_gap_ms: float = 1.0


#: The gated configuration.
SERVE = ServeParams()


@dataclass(frozen=True)
class ScheduledOp:
    """One open-loop arrival, ``at`` seconds after the window starts."""

    at: float
    round: int
    step: int
    kind: str  # "read" | "insert" | "delete"
    #: Read weights or insert point; ``None`` for deletes.
    vector: np.ndarray | None = None
    rid: int = -1
    #: "background" | "burst" | "write".
    origin: str = "background"


def serve_hot_vectors(seed: int) -> np.ndarray:
    """The flash crowds' hot preference vectors, uniform in ``[0.15, 0.85]^D``."""
    return seed_streams(seed)["serve_hot"].random((SERVE.hot, D)) * 0.7 + 0.15


def serve_layout(seconds: float) -> tuple[int, float]:
    """(rounds, step seconds) of a ``seconds``-long window: the whole
    rounds of about ``SERVE.round_s`` that fit, stretched to fill the
    window exactly, and at least four (a traced run alternates untraced
    and traced rounds A B B A). Below about 15 s a step at the lowest
    rate is too short to hold a burst, and the schedule is refused."""
    rounds = max(4, round(seconds / SERVE.round_s))
    return rounds, seconds / (rounds * len(SERVE.ladder))


def serve_schedule(seed: int, step_s: float, rounds: int) -> list[ScheduledOp]:
    """The arrival schedule of ``rounds`` ladders back to back, sorted by
    send time.

    Per step of ``step_s`` seconds at rate ``r``: ``round(r * step_s)``
    operations, of which ``write_share`` are writes (``insert_fraction``
    of them inserts, the rest deletes, in bursts of ``write_burst``),
    ``burst_share`` are reads in flash-crowd bursts of ``burst_len``
    (released within ``burst_release_ms``), and the rest uniform
    background reads. Arrival instants of background reads, burst starts
    and write-burst starts are uniform over the step given their count —
    a Poisson schedule conditioned on its count, so every seed offers
    exactly the same load. Deletes take initial rids in a seeded order,
    each at most once.
    """
    params = SERVE
    rng = seed_streams(seed)["serve"]
    hot = serve_hot_vectors(seed)
    victims = iter(rng.permutation(N).tolist())
    ops: list[ScheduledOp] = []
    for rnd in range(rounds):
        for step, rate in enumerate(params.ladder):
            t0 = (rnd * len(params.ladder) + step) * step_s
            ops.extend(_step(rng, hot, victims, t0, rnd, step, rate, step_s, params))
    ops.sort(key=lambda op: op.at)
    return ops


def _step(rng, hot, victims, t0, rnd, step, rate, step_s, params) -> list[ScheduledOp]:
    total = int(round(rate * step_s))
    writes = int(round(params.write_share * total))
    bursts = max(1, min(int(round(params.burst_share * total / params.burst_len)),
                        (total - writes) // params.burst_len))
    background = total - writes - bursts * params.burst_len
    if background < 0:
        raise ValueError(f"step {step}: rate {rate} too low for one burst")
    ops = [
        ScheduledOp(float(t0 + at), rnd, step, "read", rng.random(D) * 0.8 + 0.1)
        for at in np.sort(rng.random(background)) * step_s
    ]
    for at in rng.random(bursts) * step_s:
        centre = hot[int(rng.integers(params.hot))]
        offsets = np.sort(rng.random(params.burst_len)) * params.burst_release_ms / 1e3
        for j, off in enumerate(offsets):
            if j == 0 or rng.random() < params.duplicate_fraction:
                w = centre
            else:
                w = np.clip(centre + rng.normal(0.0, params.spread, D), 0.01, 1.0)
            ops.append(ScheduledOp(
                float(t0 + at + off), rnd, step, "read", np.array(w), origin="burst",
            ))
    left = writes
    while left > 0:
        size = min(params.write_burst, left)
        start = float(rng.random() * step_s)
        for j in range(size):
            at = t0 + start + j * params.write_gap_ms / 1e3
            if rng.random() < params.insert_fraction:
                ops.append(ScheduledOp(at, rnd, step, "insert", rng.random(D), origin="write"))
            else:
                ops.append(ScheduledOp(at, rnd, step, "delete", rid=next(victims), origin="write"))
        left -= size
    return ops
