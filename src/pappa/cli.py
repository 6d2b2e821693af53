"""Command-line entry point.

Subcommands::

    pappa diagram eval FILE.pd [--d D] [--emit matrix|report]
    pappa circuit run FILE.pc [--seed S] [--emit state|report]
    pappa protocol run FILE.pp --d D [--seed S]
    pappa verify SUITE [--d D] [--tol T]

Reports are plain ``key=value`` lines with a final ``PASS`` or ``FAIL``;
identical flags, seed and files yield a byte-identical report.  Exit
codes: 0 success, 1 verification failure, 2 parse/usage error.  The
environment variable ``PAPPA_TOL`` overrides the default tolerance.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from itertools import accumulate

import numpy as np

from . import dsl, protocols, verify
from .diagrams import _gen_width_delta
from .evaluator import evaluate
from .gates import QState
from .phases import make_phase_ring

MAX_ENTRIES = 2**20


def _default_tol() -> float:
    env = os.environ.get("PAPPA_TOL")
    return float(env) if env else 1e-9


def _fmt_complex(z: complex) -> str:
    return f"{z.real:+.12e}{z.imag:+.12e}j"


def _check_dims(d: int, n: int) -> None:
    if d**max(n, 1) > MAX_ENTRIES:
        raise SystemExit2(f"dimension overflow: d**n = {d}**{n} exceeds {MAX_ENTRIES} entries")


class SystemExit2(Exception):
    """Usage or parse failure (exit code 2)."""


def _cmd_diagram(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        diagram = dsl.parse_diagram(fh.read(), args.file)
    if args.d:
        diagram = dataclasses.replace(diagram, d=args.d)
    d = diagram.d
    ring = make_phase_ring(d)
    # evaluate's accumulator: d**(widest width) rows, d**n_in columns
    widths = accumulate(map(_gen_width_delta, diagram.flat()), initial=diagram.in_points)
    _check_dims(d, max(diagram.out_points, *widths) // 2 + diagram.in_points // 2)
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
    with open(args.file, encoding="utf-8") as fh:
        circ = dsl.parse_circuit(fh.read(), args.file)
    _check_dims(circ.d, circ.n)
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
    if not args.d:
        raise SystemExit2("protocol run requires --d")
    with open(args.file, encoding="utf-8") as fh:
        script = dsl.parse_protocol(fh.read(), args.d, args.file)
    _check_dims(args.d, script.n_sites)
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
    for name in names:
        if name not in verify.SUITES:
            raise SystemExit2(
                f"unknown suite {name!r}; choose from {', '.join(verify.SUITES)} or all"
            )
    tol = args.tol
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


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--d", type=int, default=None, help="qudit degree")
    shared.add_argument("--n", type=int, default=None, help="qudit count (suite dependent)")
    shared.add_argument("--seed", type=int, default=0, help="random seed")
    shared.add_argument("--tol", type=float, default=_default_tol(), help="tolerance")
    shared.add_argument("--emit", choices=("matrix", "state", "report"), default="report")
    shared.add_argument(
        "--jobs", type=int, default=1, help="accepted and ignored; suites run one after another"
    )

    p = argparse.ArgumentParser(prog="pappa", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pd = sub.add_parser("diagram", parents=[shared], help="evaluate a .pd diagram file")
    pd.add_argument("action", choices=("eval",))
    pd.add_argument("file")

    pc = sub.add_parser("circuit", parents=[shared], help="run a .pc circuit file")
    pc.add_argument("action", choices=("run",))
    pc.add_argument("file")

    pp = sub.add_parser("protocol", parents=[shared], help="run a .pp protocol file")
    pp.add_argument("action", choices=("run",))
    pp.add_argument("file")

    pv = sub.add_parser("verify", parents=[shared], help="run a verification suite")
    pv.add_argument("suite")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.d is None and args.command == "verify":
        args.d = 2
    try:
        if args.command == "diagram":
            return _cmd_diagram(args)
        if args.command == "circuit":
            return _cmd_circuit(args)
        if args.command == "protocol":
            return _cmd_protocol(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except dsl.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
