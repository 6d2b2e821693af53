"""Per-layer tracing from outside the program.

Wrappers replace module and class attributes of ``pappa`` (every binding
of the same function object in every ``pappa`` module, so names imported
with ``from .gates import kron_all`` are wrapped too).  A span records
its name, start, end, parent span and the op it ran in; the self time of
a span is its duration minus the time of its child spans.  A few
functions are only counted, because they run once per matrix entry and
a span would cost more than they do.

Nothing is installed unless the benchmark is run with ``--trace 1``, and
``uninstall`` restores every original binding.  A target that the
program no longer has is reported as absent, not as zero.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter

# (layer name, module, attribute): wrapped as a timed span
SPANS = [
    ("gates.kron_all", "pappa.gates", "kron_all"),
    ("gates.sft_matrix", "pappa.gates", "sft_matrix"),
    ("gates.apply_full_matrix", "pappa.gates", "apply_full_matrix"),
    ("gates.apply_site_gate", "pappa.gates", "apply_site_gate"),
    ("gates.apply_controlled", "pappa.gates", "apply_controlled"),
    ("gates.project_site", "pappa.gates", "project_site"),
    ("gates.measure", "pappa.gates", "measure"),
    ("evaluator.evaluate", "pappa.evaluator", "evaluate"),
    ("evaluator.charge_word", "pappa.evaluator", "charge_word"),
    ("evaluator.kernel.cap", "pappa.evaluator", "_cap_matrix"),
    ("evaluator.kernel.cup", "pappa.evaluator", "_cup_matrix"),
    ("evaluator.kernel.braid", "pappa.evaluator", "_braid_matrix"),
    ("evaluator.kernel.charge_run", "pappa.evaluator", "_charge_run_matrix"),
    ("evaluator.kernel.sym", "pappa.gates", "sym_gate"),
    ("entangle.max_state", "pappa.entangle", "max_state"),
    ("entangle.entanglement_entropy", "pappa.entangle", "entanglement_entropy"),
    ("entangle.partial_trace", "pappa.entangle", "partial_trace"),
    ("protocols.run", "pappa.protocols", "run"),
    ("protocols.run_branches", "pappa.protocols", "run_branches"),
    ("protocols.initial_state", "pappa.protocols", "_initial_state"),
    ("clifford.generate_group", "pappa.clifford", "generate_group"),
    ("clifford.key", "pappa.clifford", "PhaselessUnitary.key"),
    ("clifford.is_clifford", "pappa.clifford", "is_clifford"),
    ("dsl.parse", "pappa.dsl", "parse_diagram"),
    ("dsl.parse", "pappa.dsl", "parse_circuit"),
    ("dsl.parse", "pappa.dsl", "parse_protocol"),
] + [
    (f"verify.suite.{name}", "pappa.verify", f"suite_{name}")
    for name in ("relations", "sft", "entropy", "clifford", "tricks", "protocols")
]

# (counter name, module, attribute): counted, not timed
COUNTS = [
    ("phases.eps_pow", "pappa.phases", "PhaseRing.eps_pow"),
    ("clifford.canonicalize", "pappa.clifford", "PhaselessUnitary.of"),
    ("protocols.replay", "pappa.protocols", "_run"),
]


def _entries_of_result(result, args) -> int:
    return int(result.size)


def _entries_of_matrix_arg(result, args) -> int:
    return int(args[1].size)


class Tracer:
    """Spans and counts for one process; ``begin_round`` resets the totals."""

    def __init__(self):
        self.stack: list[list] = []  # [span id, child time]
        self.spans: list[tuple] | None = None  # (op, id, parent, name, start, end)
        self.op = -1
        self.next_id = 0
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.in_branches = 0
        self.patches: list[tuple] = []
        self.missing: set[str] = set()
        self.present: set[str] = set()

    # -- rounds ------------------------------------------------------------

    def begin_round(self, keep_spans: bool) -> None:
        self.self_s = Counter()
        self.counts = Counter()
        self.spans = [] if keep_spans else None

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, on_exit=None):
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self.self_s[name] += dur - frame[1]
                self.counts[name + ".calls"] += 1
                if on_exit is not None and result is not None:
                    on_exit(result, args)
                if self.spans is not None:
                    self.spans.append((self.op, span_id, parent, name, start, end))

        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hooks(self):
        def entries(name, of):
            def hook(result, args):
                self.counts[name + ".entries"] += of(result, args)
            return hook

        def branches(result, args):
            self.counts["protocols.branches_kept"] += len(result)

        def group(result, args):
            self.counts["clifford.bfs_elements"] += result.order

        return {
            "gates.kron_all": entries("gates.kron_all", _entries_of_result),
            "gates.apply_full_matrix": entries("gates.apply_full_matrix", _entries_of_matrix_arg),
            "protocols.run_branches": branches,
            "clifford.generate_group": group,
        }

    def _branch_scope(self, fn):
        """run_branches: count the executor replays made inside it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.in_branches += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.in_branches -= 1

        return wrapper

    def _replay_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.in_branches:
                self.counts["protocols.branch_runs"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        """Wrap every target; ``uninstall`` undoes it exactly."""
        if self.patches:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        for name, module, attr in SPANS:
            def wrap(fn, name=name):
                if name == "protocols.run_branches":
                    fn = self._branch_scope(fn)
                return self._span(name, fn, hooks.get(name))

            self._patch(name, module, attr, wrap)
        for name, module, attr in COUNTS:
            if name == "protocols.replay":
                self._patch(name, module, attr, self._replay_counter)
            else:
                self._patch(name, module, attr, functools.partial(self._counter, name))

    def _patch(self, name: str, module: str, attr: str, make) -> None:
        mod = sys.modules.get(module)
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        raw = owner.__dict__.get(leaf) if owner is not None else None
        if raw is None:
            self.missing.add(name)
            return
        self.present.add(name)
        if owner_name:  # a method or classmethod on a class
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            self.patches.append((owner, leaf, raw, "attr"))
            setattr(owner, leaf, new)
            return
        new = make(raw)
        # every binding of the same object in any pappa module or its dicts
        for mname, m in list(sys.modules.items()):
            if mname != "pappa" and not mname.startswith("pappa."):
                continue
            for key, value in list(vars(m).items()):
                if value is raw:
                    self.patches.append((m, key, raw, "attr"))
                    setattr(m, key, new)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is raw:
                            self.patches.append((value, k, raw, "item"))
                            value[k] = new

    @property
    def absent(self) -> set[str]:
        """Layers none of whose targets the program has."""
        return self.missing - self.present

    def uninstall(self) -> None:
        for owner, key, raw, how in reversed(self.patches):
            if how == "item":
                owner[key] = raw
            else:
                setattr(owner, key, raw)
        self.patches = []


# ---------------------------------------------------------------------------
# per-layer metrics from the per-round totals
# ---------------------------------------------------------------------------

CALLS = [
    "phases.eps_pow", "gates.kron_all", "gates.sft_matrix", "gates.apply_full_matrix",
    "gates.apply_site_gate", "gates.apply_controlled", "gates.project_site", "gates.measure",
    "evaluator.evaluate", "evaluator.charge_word",
] + [f"evaluator.kernel.{k}" for k in ("cap", "cup", "braid", "charge_run", "sym")] + [
    "entangle.max_state", "protocols.run", "protocols.run_branches", "protocols.initial_state",
    "clifford.generate_group", "clifford.canonicalize", "clifford.is_clifford", "dsl.parse",
]
SELF_S = [
    "gates.sft_matrix", "gates.apply_site_gate", "gates.apply_controlled", "gates.project_site",
    "evaluator.evaluate", "evaluator.charge_word",
] + [f"evaluator.kernel.{k}" for k in ("cap", "cup", "braid", "charge_run", "sym")] + [
    "entangle.max_state", "entangle.entanglement_entropy", "entangle.partial_trace",
    "protocols.run_branches", "clifford.generate_group", "clifford.key",
    "clifford.is_clifford", "dsl.parse",
] + [
    f"verify.suite.{name}"
    for name in ("relations", "sft", "entropy", "clifford", "tricks", "protocols")
]
EXACT = {
    "gates.kron_all.entries": "gates.kron_all",
    "gates.apply_full_matrix.entries": "gates.apply_full_matrix",
    "protocols.branch_runs": "protocols.replay",
    "protocols.branches_kept": "protocols.run_branches",
    "clifford.bfs_elements": "clifford.generate_group",
}


def layer_metrics(rounds: list[tuple[Counter, Counter]], absent: set[str]) -> tuple[dict, list[str]]:
    """Metrics from the totals of each traced round.

    Counts come from the first round; every later round must repeat them
    exactly (the second return value lists any that do not).  Self times
    are medians over the rounds.
    """
    counts0 = rounds[0][1]
    drift = {
        key for _, c in rounds[1:] for key in set(c) | set(counts0) if c[key] != counts0[key]
    }
    out: dict[str, dict] = {}
    for name in CALLS:
        if name not in absent:
            out[f"{name}.calls"] = {"value": counts0[f"{name}.calls"], "unit": "count"}
    for name in SELF_S:
        if name not in absent:
            out[f"{name}.self_s"] = {
                "value": statistics.median(r[0].get(name, 0.0) for r in rounds), "unit": "s"
            }
    for metric, source in EXACT.items():
        if source not in absent:
            out[metric] = {"value": counts0[metric], "unit": "count"}
    if not absent & {"protocols.replay", "protocols.run_branches"}:
        runs = counts0["protocols.branch_runs"]
        kept = counts0["protocols.branches_kept"]
        out["protocols.branch_yield"] = {"value": kept / runs if runs else 0.0, "unit": "ratio"}
    return out, sorted(drift)
