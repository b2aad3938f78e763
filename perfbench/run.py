"""The repo benchmark: one command per workload, every answer checked.

Run from the repository root::

    python3 perfbench/run.py --workload cold_uniform --seed 1 --seconds 15 --trace 0

Workloads: ``cold_uniform``, ``serve_burst_rw`` (the gated pair) and
``hot_catalog`` (see :mod:`workloads`). With ``--trace 0`` the run reports
the end-to-end metrics of ``BENCHMARK.json`` — on the closed loops, set-up
time, read latency and throughput at a reference host speed (see
:mod:`hostspeed`); with
``--trace 1`` a separate traced run reports the per-layer metrics. The human-readable report (provenance,
every metric with its unit and sample count, the ladder steps, the
checks) goes to standard output first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The full
record — and, for traced runs, every span — is written under
``.perfbench_out/``.

Exit status: 0 when every answer was verified, 1 on a wrong or failed
answer, 2 when the program's source tree is not under the working
directory.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: One BLAS thread per process: the process cluster forks one worker per
#: shard onto a small host, and spinning BLAS pools in every process make
#: the numbers depend on thread contention rather than on the program.
#: Set before numpy is first imported; recorded in the provenance.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")


def _git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git`` without running git; ``unknown``
    outside a git checkout."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref:"):
            return ref
        name = ref.split(None, 1)[1]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _provenance(root: Path, args) -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    res = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    prov = _provenance(root, args)

    print(f"workload {res.workload}: {res.params['why']}")
    print("provenance: " + json.dumps(prov))
    print("parameters: " + json.dumps({k: v for k, v in res.params.items() if k != "why"}))
    for name, share in res.property_share.items():
        print(f"property   {name:<28} {_fmt(share)}")
    if args.trace:
        metrics = {
            name: {"value": float(res.layers[name]), "unit": unit}
            for name, unit in workloads.LAYER_UNITS.items()
        }
        for name, m in metrics.items():
            print(f"layer      {name:<34} {_fmt(m['value']):>12} {m['unit']}")
        e2e_s = res.layers["_e2e_s"]
        print(f"traced requests' end-to-end time: {_fmt(e2e_s)} s, by layer self time:")
        for name, self_s in res.layers["_self_s"].items():
            print(f"self time  {name:<34} {_fmt(self_s):>12} s  {_fmt(self_s / e2e_s):>10} of end-to-end")
        for name, self_s in res.layers.get("_engine_thread_self_s", {}).items():
            print(f"engine thread self time  {name:<20} {_fmt(self_s):>12} s")
    else:
        metrics = {
            name: {"value": float(v), "unit": unit}
            for name, (v, unit, _) in res.e2e.items()
        }
        for name, (v, unit, n) in {**res.e2e, **res.extra}.items():
            gated = "" if name in res.e2e else "  (reported, not in BENCHMARK.json)"
            samples = f"n={n}" if n is not None else ""
            print(f"end-to-end {name:<16} {_fmt(v):>12} {unit:<6} {samples}{gated}")
    for step in res.steps:
        print("ladder     " + json.dumps(step))
    for name, ok in res.checks.items():
        print(f"check      {name:<28} {'ok' if ok else 'FAILED'}")

    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{res.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "provenance": prov, "workload": res.workload, "params": res.params,
        "property_share": res.property_share, "checks": res.checks,
        "attempted": res.attempted, "failed": res.failed,
        "end_to_end": {k: {"value": v, "unit": u, "samples": n}
                       for k, (v, u, n) in {**res.e2e, **res.extra}.items()},
        "per_layer": res.layers, "ladder": res.steps,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if res.spans:
        with gzip.open(out_dir / f"{stem}-spans.json.gz", "wt") as fh:
            json.dump({"columns": ["id", "parent", "request", "name", "start_s", "end_s"],
                       "spans": res.spans}, fh)

    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }))
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
