"""One measured process of the benchmark; started by ``run.py``, not by hand.

The launcher starts this file in a fresh interpreter with the BLAS and
OpenMP thread counts pinned to one, and passes the CLOCK_MONOTONIC time
at which it started the process.  Phases:

1. set-up: import ``pappa``, run the workload's warm-up ops (the same for
   every seed).  ``setup_s`` runs from process start to here.
2. timed rounds: the seeded batch, op after op, again and again until the
   time is up (whole rounds only).  With ``--trace 1`` the rounds
   alternate untraced and traced.
3. check pass: the batch once more, untimed, each output checked.

Host pace.  On a shared host the speed of the same instructions drifts
by tens of percent within seconds (see README.md).  After every op the
worker times a short fixed reference kernel (``reference``) that uses no
pappa code.  The latencies of a round are scaled by the ratio of
``NOMINAL_REFERENCE_S`` to the median reference sample of the round,
raised to ``PACE_EXPONENT``, so the reported times are seconds at the
host's nominal pace.  The raw figures
are kept in the record beside the scaled ones.

The last line of standard output is one JSON record for the launcher.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# median time of ``reference`` on the host described in README.md
NOMINAL_REFERENCE_S = 75e-6
# slope of log(batch time) against log(reference time) on that host
PACE_EXPONENT = 0.75


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--started", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import pappa

    if Path(pappa.__file__).resolve().parent != ROOT / "src" / "pappa":
        print(f"error: imported pappa from {pappa.__file__}, not from this checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    for op in workloads.warmup_ops(args.workload):
        op.run()
    setup_raw = monotonic() - args.started
    setup = {"raw_s": setup_raw, "s": setup_raw * pace_factor([reference() for _ in range(100)])}
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    batch = workloads.WORKLOADS[args.workload](args.seed)
    record = measure(batch, args)
    record["setup"] = setup
    record["env"] = environment(args.seed)
    print(json.dumps(record))
    return 0


# ---------------------------------------------------------------------------
# host pace
# ---------------------------------------------------------------------------

_REF_MATRIX = np.random.default_rng(0).normal(size=(32, 32)) + 0j
_REF_VECTOR = np.ones(8192, dtype=complex)


def reference() -> float:
    """Time one fixed kernel: Python loop, small matmul, a 128 KiB pass.

    It runs straight after an op, with the caches as the op left them;
    on this host that tracks the host's pace better than a warm run.
    """
    a, v = _REF_MATRIX, _REF_VECTOR
    t0 = time.perf_counter()
    acc = 0
    for i in range(300):
        acc += i * i % 7
    [divmod(i, 3) for i in range(60)]
    a @ a
    np.abs(v).sum()
    return time.perf_counter() - t0


def pace_factor(samples) -> float:
    return (NOMINAL_REFERENCE_S / statistics.median(samples)) ** PACE_EXPONENT


# ---------------------------------------------------------------------------
# timed rounds
# ---------------------------------------------------------------------------


class Round:
    """One pass over the batch: op latencies (None if an op failed), the
    reference sample taken after each op, and the round's pace factor."""

    def __init__(self, batch, tracer=None):
        clock = time.perf_counter
        self.lat: list[float | None] = []
        self.refs: list[float] = []
        gc.collect()
        for i, op in enumerate(batch):
            if tracer is not None:
                tracer.op = i
            t0 = clock()
            try:
                op.run()
                self.lat.append(clock() - t0)
            except Exception as exc:  # counted as failed
                self.lat.append(None)
                print(f"op failed: {op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            self.refs.append(reference())
        self.factor = pace_factor(self.refs)

    @property
    def failed(self) -> int:
        return sum(x is None for x in self.lat)

    def latencies(self, paced: bool = True) -> list[float | None]:
        f = self.factor if paced else 1.0
        return [None if x is None else x * f for x in self.lat]


def op_latencies(rounds: list[Round], paced: bool = True) -> list[float]:
    """Each op's median latency over the rounds; ops that ever failed are left out.

    The ops are deterministic, so what varies from round to round is the host.
    """
    return [
        statistics.median(samples)
        for samples in zip(*(r.latencies(paced) for r in rounds))
        if None not in samples
    ]


def measure(batch, args) -> dict:
    # at least three rounds, and 100 op samples for the latency percentiles
    min_rounds = 3 if args.trace else max(3, -(-100 // len(batch)))
    deadline = time.perf_counter() + args.seconds
    plain: list[Round] = []
    traced: list[tuple[Round, dict, dict, list | None]] = []
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    while True:
        # with tracing, untraced and traced rounds alternate
        if tracer is not None and len(plain) > len(traced):
            tracer.begin_round(keep_spans=not traced)
            tracer.install()
            try:
                rnd = Round(batch, tracer)
            finally:
                tracer.uninstall()
            traced.append((rnd, tracer.self_s, tracer.counts, tracer.spans))
        else:
            plain.append(Round(batch))
        done = len(plain) >= min_rounds and (tracer is None or len(traced) == len(plain))
        if done and time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    fails = check_pass(batch)
    record = {
        "correct": not fails,
        "attempted": len(batch) * len(plain),
        "failed": sum(r.failed for r in plain),
        "check_failures": fails[:20],
        "rounds": len(plain),
        "ops_per_round": len(batch),
        "round_walls_s": [sum(op_latencies([r])) for r in plain],
        "raw_round_walls_s": [sum(op_latencies([r], paced=False)) for r in plain],
        "reference_median_s": statistics.median(x for r in plain for x in r.refs),
        "op_latencies_s": dict(zip(
            (op.name for op, *lat in zip(batch, *(r.lat for r in plain)) if None not in lat),
            op_latencies(plain),
        )),
    }
    if tracer is None:
        record["metrics"] = latency_metrics(plain, paced=True)
        record["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        record["raw_metrics"] = latency_metrics(plain, paced=False)
        return record
    from tracer import layer_metrics

    # self times at the nominal pace
    scaled = [
        ({k: v * rnd.factor for k, v in self_s.items()}, counts) for rnd, self_s, counts, _ in traced
    ]
    metrics, drift = layer_metrics(scaled, tracer.absent)
    metrics["trace.overhead_s"] = {
        "value": sum(op_latencies([r for r, *_ in traced])) - sum(op_latencies(plain)),
        "unit": "s",
    }
    record["metrics"] = metrics
    record["absent"] = sorted(tracer.absent)
    record["count_drift"] = drift
    record["traced_round_walls_s"] = [sum(op_latencies([r])) for r, *_ in traced]
    if args.spans_out:
        write_spans(Path(args.spans_out), batch, traced[0][3])
    return record


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of
    all order statistics, so two ops that swap ranks move it little."""
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 200  # midpoint-rule steps per order statistic
    weights = []
    for i in range(n):
        ts = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)) for t in ts))
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def latency_metrics(rounds: list[Round], paced: bool) -> dict:
    """The batch time and the 50th and 90th percentiles over the batch's ops."""
    per_op = op_latencies(rounds, paced)
    return {
        "wall_s": {"value": sum(per_op), "unit": "s"},
        "op_p50_ms": {"value": 1e3 * hd_quantile(per_op, 0.5), "unit": "ms"},
        "op_p90_ms": {"value": 1e3 * hd_quantile(per_op, 0.9), "unit": "ms"},
    }


def check_pass(batch) -> list[str]:
    fails = []
    for op in batch:
        try:
            out = op.run()
        except Exception as exc:
            fails.append(f"{op.name}: raised {type(exc).__name__}: {exc}")
            continue
        fails += [f"{op.name}: {msg}" for msg in op.check(out)]
    return fails


def write_spans(path: Path, batch, spans) -> None:
    """The spans of the first traced round, one JSON object a line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for op, span_id, parent, name, start, end in spans:
            fh.write(
                json.dumps(
                    {"op": op, "op_name": batch[op].name, "id": span_id, "parent": parent,
                     "name": name, "start": start, "end": end}
                )
                + "\n"
            )


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    import platform

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pappa").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read from .git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
