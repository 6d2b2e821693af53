"""Text formats for diagrams (.pd), circuits (.pc) and protocols (.pp).

Diagram files: a header ``diagram d=<int> in=<int> out=<int>`` then the
generators in reading order, top to bottom and left to right, one or
more per line; line breaks carry no meaning.  Generators are ``cap@i``,
``cup@i``, ``chg@i:k:tier``, ``b+@i``, ``b-@i``, ``sym@i:m`` and
``box NAME@i:w:c``.  Strand indices are 0-based.  ``#`` starts a comment.

Circuit files: ``circuit d=<int> n=<int>`` then statements ``gate X@2``,
``gate F^-1@1``, ``ctrl X c=1 t=2``, ``sft``, ``measure@1 -> m1`` and
``cond m1 apply Z^-m1 @3``.  Sites are 1-based.  A circuit is a protocol
of one party that owns every qudit: ``parse_circuit`` returns a
``Circuit``, a ``protocols.ProtocolScript``, and ``run_circuit`` runs it
through ``protocols.run``, which holds O(1) states on a sampled run.

Protocol files: ``party A: q1 q3``, ``resource max2: q2 q4``,
``input: q1``, ``gate F^-1 @q1``, ``ctrl X c=q1 t=q2``,
``meter q2 -> m1``, ``send A->B m1``, ``cond m1 apply Z^-m1 @q4``,
``output: q3 q4``.  Sites are written ``q<N>`` with N 1-based.  Each party,
the ``input`` and the ``output`` are declared once; a second
declaration is refused.

A ``.pc`` or ``.pp`` statement is picked by its first word, and each word
has one pattern.  Both formats build ``gate``, ``ctrl``, ``cond`` and
``measure``/``meter`` steps with one function.  A parser checks only the
text; the rules of a script are checked once, when the parser builds the
immutable ``ProtocolScript``, and a refusal names the offending line.
"""

from __future__ import annotations

import re
from dataclasses import astuple

from . import protocols
from .diagrams import Box, BraidNeg, BraidPos, Cap, Charge, Cup, DiagScalar, Diagram, Sym
from .gates import QState
from .phases import PhaseRing


class ParseError(Exception):
    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


def _clean_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


# ---------------------------------------------------------------------------
# diagrams
# ---------------------------------------------------------------------------

# One row per generator kind: token, class, the integer arguments written
# after '@' (constructor order, after a box's name), and how many of them a
# token must give.  A box token is ``box NAME@...``.
_KINDS = (
    ("cap", Cap, ("i",), 1),
    ("cup", Cup, ("i",), 1),
    ("b+", BraidPos, ("i",), 1),
    ("b-", BraidNeg, ("i",), 1),
    ("chg", Charge, ("i", "k", "tier"), 2),
    ("sym", Sym, ("i", "m"), 2),
    ("box", Box, ("i", "w", "c"), 3),
)
_BY_TOKEN = {kind[0]: kind for kind in _KINDS}
_BY_CLASS = {kind[1]: kind for kind in _KINDS}
_TOKEN_RE = re.compile(r"box\s+\S+|\S+")
_PLAIN = "|".join(re.escape(kind[0]) for kind in _KINDS if kind[1] is not Box)
_GEN_RE = re.compile(rf"^(?:({_PLAIN})|box\s+(\w+))@(-?\d+(?::-?\d+)*)$")


def _parse_generator(token: str, line: str, path: str, lineno: int):
    m = _GEN_RE.match(token)
    if m:
        kind, name, numbers = m.groups()
        _, cls, args, required = _BY_TOKEN[kind or "box"]
        ints = [int(a) for a in numbers.split(":")]
        if required <= len(ints) <= len(args):
            return cls(name, *ints) if name else cls(*ints)
    if token.split()[0] == "box":
        raise ParseError(path, lineno, f"bad box {line!r}")
    if not m:
        raise ParseError(path, lineno, f"bad generator {token!r}")
    usage = ":".join(args[:required]) + "".join(f"[:{a}]" for a in args[required:])
    raise ParseError(path, lineno, f"{kind} needs @{usage} in {token!r}")


def parse_diagram(text: str, path: str = "<diagram>") -> Diagram:
    lines = list(_clean_lines(text))
    if not lines:
        raise ParseError(path, 1, "empty diagram file")
    lineno, header = lines[0]
    m = re.match(r"^diagram\s+d=(\d+)\s+in=(\d+)\s+out=(\d+)$", header)
    if not m:
        raise ParseError(path, lineno, f"bad header {header!r}")
    d, in_points, out_points = (int(g) for g in m.groups())
    gens = tuple(
        _parse_generator(tok, line, path, lineno)
        for lineno, line in lines[1:]
        for tok in _TOKEN_RE.findall(line)
    )
    try:
        return Diagram(d, in_points, out_points, gens)
    except ValueError as exc:
        raise ParseError(path, lines[-1][0], str(exc)) from exc


def format_diagram(diagram: Diagram) -> str:
    """Render a diagram back into the .pd text form, one generator per line.

    Raises ValueError for what the form cannot hold: a diagram scalar other
    than 1, or a daggered box.  Nothing in ``pappa`` calls it; it is kept
    for the parse/format round-trip property the tests check.
    """
    if diagram.scalar != DiagScalar():
        raise ValueError(f".pd cannot hold the diagram scalar {diagram.scalar}")
    out = [f"diagram d={diagram.d} in={diagram.in_points} out={diagram.out_points}"]
    for gen in diagram.gens:
        token, _, args, _ = _BY_CLASS[type(gen)]
        values = astuple(gen)
        if isinstance(gen, Box):
            if gen.dagger:
                raise ValueError(f".pd cannot hold the daggered box {gen.name!r}")
            token, values = f"box {gen.name}", values[1:]
        out.append(f"{token}@" + ":".join(map(str, values[: len(args)])))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# circuits
# ---------------------------------------------------------------------------


CIRCUIT_PARTY = "circuit"


class Circuit(protocols.ProtocolScript):
    """A parsed .pc file: the script of one party, ``CIRCUIT_PARTY``, owning every qudit."""

    n = property(lambda self: self.n_sites)
    ops = property(lambda self: self.steps)


_GATE_TOKEN = re.compile(r"^([XYZFG])(?:\^(-?\d+))?$")
_COND_GATE = re.compile(r"^([XYZFG])\^(-?)(?:(\d+)\*)?(\w+)$")


def _parse_gate_token(token: str, path: str, lineno: int) -> tuple[str, int]:
    m = _GATE_TOKEN.match(token)
    if not m:
        raise ParseError(path, lineno, f"bad gate token {token!r}")
    return m.group(1), int(m.group(2) or 1)


def _cond_pattern(site_re: str) -> re.Pattern:
    """``cond REG apply GATE @SITE``, SITE matching ``site_re``."""
    return re.compile(rf"^cond\s+(\w+)\s+apply\s+(\S+)\s*@({site_re})$")


def _parse_cond(m: re.Match, path: str, lineno: int):
    """Read a ``_cond_pattern`` match whose GATE must be ``GATE^[-][c*]REG``.

    Returns (register, gate name, coefficient, site token).
    """
    reg, gate_tok = m.group(1), m.group(2)
    gm = _COND_GATE.match(gate_tok)
    if not gm or gm.group(4) != reg:
        raise ParseError(
            path, lineno, f"conditional gate {gate_tok!r} must use register {reg!r}"
        )
    coeff = int(gm.group(3) or 1) * (-1 if gm.group(2) == "-" else 1)
    return reg, gm.group(1), coeff, m.group(3)


_KEYWORD = re.compile(r"\w*")


def _statement(patterns: dict, line: str, path: str, lineno: int) -> tuple[str, re.Match]:
    """The line's first word and its pattern's match; any other line is refused."""
    word = _KEYWORD.match(line).group()
    pattern = patterns.get(word)
    m = pattern.match(line) if pattern else None
    if m is None:
        raise ParseError(path, lineno, f"unrecognized statement {line!r}")
    return word, m


def _step(word: str, m: re.Match, site, owner: dict[int, str], path: str, lineno: int):
    """The step of a ``gate``, ``ctrl``, ``cond`` or ``measure``/``meter`` match, whose
    groups are the same in .pc and .pp; ``site`` reads the format's site tokens."""

    def party_of(s: int) -> str:
        if s not in owner:
            raise ParseError(path, lineno, f"site q{s + 1} not owned by any party")
        return owner[s]

    if word == "gate":
        name, power = _parse_gate_token(m.group(1), path, lineno)
        s = site(m.group(2), lineno)
        return protocols.GateStep(party_of(s), name, s, power)
    if word == "ctrl":
        name, power = _parse_gate_token(m.group(1), path, lineno)
        c, t = site(m.group(2), lineno), site(m.group(3), lineno)
        return protocols.CtrlStep(party_of(c), name, c, t, power)
    if word == "cond":
        reg, name, coeff, tok = _parse_cond(m, path, lineno)
        s = site(tok, lineno)
        return protocols.CondStep(party_of(s), name, s, reg, coeff)
    s = site(m.group(1), lineno)
    return protocols.MeasureStep(party_of(s), s, m.group(2))


def _built(cls, path: str, lines: dict[tuple[str, int], int], **fields):
    """The script ``cls(**fields)``; its ``LocalityError`` is reported at line ``lines[where]``."""
    try:
        return cls(**fields)
    except protocols.LocalityError as exc:
        raise ParseError(path, lines[exc.where], str(exc)) from exc


_CIRCUIT_HEADER = re.compile(r"^circuit\s+d=(\d+)\s+n=(\d+)$")
_CIRCUIT_STATEMENTS = {
    "sft": re.compile(r"^sft$"),
    "gate": re.compile(r"^gate\s+(\S+)@(\d+)$"),
    "ctrl": re.compile(r"^ctrl\s+(\S+)\s+c=(\d+)\s+t=(\d+)$"),
    "measure": re.compile(r"^measure@(\d+)\s*->\s*(\w+)$"),
    "cond": _cond_pattern(r"\d+"),
}


def circuit_header(text: str, path: str = "<circuit>") -> tuple[int, int]:
    """The (d, n) of a .pc header, which a caller can bound before the O(n) script is built."""
    lineno, header = next(_clean_lines(text), (1, ""))
    m = _CIRCUIT_HEADER.match(header)
    if not m:
        raise ParseError(path, lineno, f"bad header {header!r}" if header else "empty circuit file")
    return int(m.group(1)), int(m.group(2))


def parse_circuit(text: str, path: str = "<circuit>") -> Circuit:
    d, n = circuit_header(text, path)
    owner = dict.fromkeys(range(n), CIRCUIT_PARTY)
    steps: list[protocols.Step] = []
    lines: dict[tuple[str, int], int] = {}  # LocalityError.where -> line number

    def site(tok: str, lineno: int) -> int:
        s = int(tok)
        if not 1 <= s <= n:
            raise ParseError(path, lineno, f"site {s} outside 1..{n}")
        return s - 1

    for lineno, line in list(_clean_lines(text))[1:]:
        word, m = _statement(_CIRCUIT_STATEMENTS, line, path, lineno)
        lines[("step", len(steps))] = lineno
        if word == "sft":
            steps.append(protocols.SftStep(CIRCUIT_PARTY))
        else:
            steps.append(_step(word, m, site, owner, path, lineno))
    parties = {CIRCUIT_PARTY: tuple(owner)}
    return _built(Circuit, path, lines, d=d, n_sites=n, parties=parties, resources=(), steps=steps)


def run_circuit(
    ring: PhaseRing, circ: Circuit, seed: int | None = 0
) -> tuple[QState, dict[str, int]]:
    """Run a parsed circuit from |0...0> as a one-party protocol; returns (state, outcomes)."""
    tr = protocols.run(ring, circ, seed=seed)
    return tr.final_state, tr.outcomes


# ---------------------------------------------------------------------------
# protocols
# ---------------------------------------------------------------------------


_SITE = re.compile(r"^q(\d+)$")
_PROTOCOL_STATEMENTS = {
    "party": re.compile(r"^party\s+(\w+)\s*:\s*(.+)$"),
    "resource": re.compile(r"^resource\s+max(\d+)\s*:\s*(.+)$"),
    "input": re.compile(r"^input\s*:\s*(.+)$"),
    "output": re.compile(r"^output\s*:\s*(.+)$"),
    "gate": re.compile(r"^gate\s+(\S+)\s*@(q\d+)$"),
    "ctrl": re.compile(r"^ctrl\s+(\S+)\s+c=(q\d+)\s+t=(q\d+)$"),
    "meter": re.compile(r"^meter\s+(q\d+)\s*->\s*(\w+)$"),
    "send": re.compile(r"^send\s+(\w+)\s*->\s*(\w+)\s+(\w+)$"),
    "cond": _cond_pattern(r"q\d+"),
}


def parse_protocol(text: str, d: int, path: str = "<protocol>") -> protocols.ProtocolScript:
    parties: dict[str, tuple[int, ...]] = {}
    resources: list[protocols.Resource] = []
    steps: list[protocols.Step] = []
    declared = {"input": (), "output": ()}
    owner: dict[int, str] = {}
    lines: dict[tuple[str, int], int] = {}  # LocalityError.where -> line number

    def site(tok: str, lineno: int) -> int:
        m = _SITE.match(tok)
        if not m:
            raise ParseError(path, lineno, f"bad site token {tok!r} (want qN)")
        return int(m.group(1)) - 1

    for lineno, line in _clean_lines(text):
        word, m = _statement(_PROTOCOL_STATEMENTS, line, path, lineno)
        if word == "party":
            name = m.group(1)
            if name in parties:
                raise ParseError(path, lineno, f"party {name} declared twice")
            lines[("party", len(parties))] = lineno
            parties[name] = tuple(site(tok, lineno) for tok in m.group(2).split())
            for s in parties[name]:
                if s in owner:
                    raise ParseError(path, lineno, f"site q{s + 1} already owned by {owner[s]}")
                owner[s] = name
        elif word == "resource":
            sites = tuple(site(tok, lineno) for tok in m.group(2).split())
            if len(sites) != int(m.group(1)):
                raise ParseError(path, lineno, "resource arity does not match sites")
            lines[("resource", len(resources))] = lineno
            resources.append(protocols.Resource(sites))
        elif word in declared:  # input, output
            if (word, 0) in lines:
                raise ParseError(path, lineno, f"{word} declared twice")
            declared[word] = tuple(site(tok, lineno) for tok in m.group(1).split())
            lines[(word, 0)] = lineno
        else:
            lines[("step", len(steps))] = lineno
            if word == "send":
                steps.append(protocols.SendStep(*m.groups()))
            else:
                steps.append(_step(word, m, site, owner, path, lineno))
    return _built(
        protocols.ProtocolScript, path, lines,
        d=d,
        n_sites=max(owner) + 1 if owner else 0,
        parties=parties,
        resources=resources,
        steps=steps,
        input_sites=declared["input"],
        output_sites=declared["output"],
    )
