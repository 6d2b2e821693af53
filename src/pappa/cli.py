"""Command-line entry point.

Subcommands, each with only the flags it reads::

    pappa diagram eval FILE.pd [--d D] [--emit matrix|report]
    pappa circuit run FILE.pc [--seed S] [--emit state|report]
    pappa protocol run FILE.pp --d D [--seed S]
    pappa verify SUITE [--d D] [--n N] [--tol T] [--jobs J]

Reports are plain ``key=value`` lines with a final ``PASS`` or ``FAIL``;
identical flags, seed and files yield a byte-identical report.  Exit
codes: 0 success, 1 verification failure, 2 parse/usage error, reported
as one ``error: ...`` line on stderr.  ``verify --d`` defaults to 2 and
``--jobs`` is accepted and ignored.  ``verify --n`` (default 3, at least
1) is read by the ``sft`` suite only, so it is refused unless ``sft`` runs
(alone or through ``all``).  A ``verify`` run is refused before any suite
starts when a suite's widest dense array (``verify.DENSE_WIDTH``; for
``sft``, its SFT matrix of d**(2 max(n, 3)) entries) exceeds
``MAX_ENTRIES``.  The environment variable ``PAPPA_TOL`` overrides the
default tolerance; a tolerance outside (0, 1], from either, is refused.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from itertools import accumulate
from pathlib import Path

from . import dsl, protocols, verify
from .diagrams import _gen_width_delta
from .evaluator import evaluate
from .gates import QState
from .phases import make_phase_ring

MAX_ENTRIES = 2**20


def _default_tol() -> float:
    env = os.environ.get("PAPPA_TOL")
    return _check_tol(float(env)) if env else 1e-9


def _check_tol(tol: float) -> float:
    # above 1 the flags stored as a residual of 1.0 would pass, and nan fails every suite
    if not 0 < tol <= 1:
        raise ValueError(f"tolerance must lie in (0, 1], got {tol}")
    return tol


def _fmt_complex(z: complex) -> str:
    return f"{z.real:+.12e}{z.imag:+.12e}j"


def _check_dims(d: int, n: int) -> None:
    # d >= 2 passes the bound within bit_length factors, so the power stays small
    if d ** min(max(n, 1), MAX_ENTRIES.bit_length()) > MAX_ENTRIES:
        raise ValueError(f"dimension overflow: d**n = {d}**{n} exceeds {MAX_ENTRIES} entries")


def _check_block(d: int, w: int) -> None:
    """Refuse when the widest block on ``w`` qudits (two at most) exceeds the bound."""
    w = min(w, 2)
    if d ** (2 * w) > MAX_ENTRIES:
        raise ValueError(
            f"block overflow: a {w}-qudit block has d**{2 * w} = {d}**{2 * w} entries, "
            f"over {MAX_ENTRIES}"
        )


def _cmd_diagram(args) -> int:
    diagram = dsl.parse_diagram(Path(args.file).read_text(encoding="utf-8"), args.file)
    if args.d is not None:
        diagram = dataclasses.replace(diagram, d=args.d)
    d = diagram.d
    # evaluate's accumulator: d**(peak width) rows, d**n_in columns
    peak = max(accumulate(map(_gen_width_delta, diagram.flat()), initial=diagram.in_points)) // 2
    _check_dims(d, peak + diagram.in_points // 2)
    _check_block(d, peak)
    ring = make_phase_ring(d)
    op = evaluate(ring, diagram)
    print(f"d={d}")
    print(f"in_points={diagram.in_points}")
    print(f"out_points={diagram.out_points}")
    if op.matrix.size == 1:
        z = op.matrix[0, 0]
        print(f"scalar={_fmt_complex(z)}")
        if abs(z.imag) < 1e-12:
            print(f"scalar_real={z.real:.12g}")
    if args.emit == "matrix":
        for i in range(op.matrix.shape[0]):
            row = " ".join(_fmt_complex(z) for z in op.matrix[i])
            print(f"row{i}={row}")
    print("PASS")
    return 0


def _cmd_circuit(args) -> int:
    text = Path(args.file).read_text(encoding="utf-8")
    d, n = dsl.circuit_header(text, args.file)
    _check_dims(d, n)
    _check_block(d, n)
    circ = dsl.parse_circuit(text, args.file)
    ring = make_phase_ring(circ.d)
    state, regs = dsl.run_circuit(ring, circ, seed=args.seed)
    print(f"d={circ.d}")
    print(f"n={circ.n}")
    print(f"seed={args.seed}")
    for reg in sorted(regs):
        print(f"outcome_{reg}={regs[reg]}")
    if args.emit == "state":
        for i, amp in enumerate(state.vector):
            if abs(amp) > 1e-12:
                print(f"amp{i}={_fmt_complex(amp)}")
    print("PASS")
    return 0


def _cmd_protocol(args) -> int:
    script = dsl.parse_protocol(Path(args.file).read_text(encoding="utf-8"), args.d, args.file)
    _check_dims(args.d, script.n_sites)
    _check_block(args.d, script.n_sites)
    ring = make_phase_ring(args.d)
    psi = None
    if script.input_sites:
        psi = QState.zero(args.d, len(script.input_sites))
    tr = protocols.run(ring, script, psi, seed=args.seed)
    print(f"d={args.d}")
    print(f"seed={args.seed}")
    for reg in sorted(tr.outcomes):
        print(f"outcome_{reg}={tr.outcomes[reg]}")
    print(f"edits={tr.edits}")
    print(f"cdits={tr.cdits}")
    print("PASS")
    return 0


def _cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    if args.n is not None and "sft" not in names:
        raise ValueError(f"--n is read by the sft suite only, not by {args.suite}")
    if args.n is not None and args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    widest = max(verify.DENSE_WIDTH[nm] for nm in names)
    if args.n is not None:
        widest = max(widest, 2 * args.n)  # the sft suite's SFT matrix on n qudits
    _check_dims(args.d, widest)
    tol = _default_tol() if args.tol is None else _check_tol(args.tol)
    results = [verify.run_suite(nm, args.d, tol, n=args.n) for nm in names]
    ok = True
    print(f"d={args.d}")
    print(f"tol={tol:.3e}")
    for res in results:
        for key, value in res.lines:
            print(f"{res.name}.{key}={value}")
        print(f"{res.name}.max_residual={res.worst:.6e}")
        ok = ok and res.passed
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so ``main`` reports them as every other refusal."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="pappa", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pd = sub.add_parser("diagram", help="evaluate a .pd diagram file")
    pd.add_argument("action", choices=("eval",))
    pd.add_argument("file")
    pd.add_argument("--d", type=int, help="qudit degree (default: the file header's)")
    pd.add_argument("--emit", choices=("matrix", "report"), default="report")
    pd.set_defaults(run=_cmd_diagram)

    pc = sub.add_parser("circuit", help="run a .pc circuit file")
    pc.add_argument("action", choices=("run",))
    pc.add_argument("file")
    pc.add_argument("--seed", type=int, default=0, help="random seed")
    pc.add_argument("--emit", choices=("state", "report"), default="report")
    pc.set_defaults(run=_cmd_circuit)

    pp = sub.add_parser("protocol", help="run a .pp protocol file")
    pp.add_argument("action", choices=("run",))
    pp.add_argument("file")
    pp.add_argument("--d", type=int, required=True, help="qudit degree")
    pp.add_argument("--seed", type=int, default=0, help="random seed")
    pp.set_defaults(run=_cmd_protocol)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=(*verify.SUITES, "all"))
    pv.add_argument("--d", type=int, default=2, help="qudit degree")
    pv.add_argument("--n", type=int, help="qudit count (sft suite)")
    pv.add_argument("--tol", type=float, help="tolerance (default: PAPPA_TOL or 1e-9)")
    pv.add_argument(
        "--jobs", type=int, default=1, help="accepted and ignored; suites run one after another"
    )
    pv.set_defaults(run=_cmd_verify)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except (ValueError, dsl.ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
