"""Benchmark of pappa: one workload, one seed, one run.

    python3 bench/run.py --workload diagrams --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it measures the package in ``src/``.
Each measured process is a fresh interpreter started with
``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1`` in its environment
(set before numpy loads) and a fixed ``PYTHONHASHSEED``.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, ``op_p50_ms``,
``op_p90_ms``, ``peak_rss_mb`` and ``setup_s`` (the median of
``SETUP_SAMPLES`` process starts).  ``--trace 1`` reports the per-layer
metrics of ``tracer.py`` and the tracing overhead.  The full record,
with the versions, thread settings and seed, goes to
``bench/results/``; the last line of standard output is the JSON summary
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("diagrams", "circuits", "protocols", "verify")
SETUP_SAMPLES = 7
PROCESS_TIMEOUT_S = 170
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def start_worker(args, *extra: str) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON record."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED_ENV)
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--started", repr(started), *extra,
    ]
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=PROCESS_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "pappa" / "__init__.py").is_file():
        print(f"error: no pappa package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    out_dir = HERE / "results"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            record = start_worker(args, "--spans-out", str(out_dir / f"spans-{tag}.jsonl"))
            setups = [record["setup"]]
        else:
            probes = [start_worker(args, "--setup-only")["setup"] for _ in range(SETUP_SAMPLES - 1)]
            record = start_worker(args)
            setups = probes + [record["setup"]]
            record["metrics"]["setup_s"] = {"value": statistics.median(s["s"] for s in setups), "unit": "s"}
            record["raw_metrics"]["setup_s"] = {"value": statistics.median(s["raw_s"] for s in setups), "unit": "s"}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["setup_samples"] = setups
    record["workload"] = args.workload
    record["seconds"] = args.seconds
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    env = record["env"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} rounds={record['rounds']} "
          f"ops/round={record['ops_per_round']} sha={env['git_sha']} python={env['python']} "
          f"numpy={env['numpy']} blas={env['blas']} threads={env['threads']} nproc={env['nproc']}")
    for msg in record["check_failures"]:
        print(f"check failed: {msg}")
    for name in record.get("absent", []):
        print(f"absent layer: {name}")
    for key in record.get("count_drift", []):
        print(f"count differs between traced rounds: {key}")
    summary = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
