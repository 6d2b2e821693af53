"""Totality of the command line: mutated input ends in a report or one error line.

A fixed-seed fuzz deletes, duplicates and inserts spans of valid ``.pd``,
``.pc`` and ``.pp`` texts and runs each through ``cli.main``.  Every run
must exit 0, or exit 2 with empty stdout and exactly one ``error:`` line
on stderr, with a small tracemalloc peak: no traceback, no other exit
code, no unbounded allocation.
"""

import io
import random
import sys
import tracemalloc

import pytest

from pappa.cli import main

DIAGRAM = """\
diagram d=2 in=4 out=4
chg@0:1 chg@3:-1:1
b+@1
cap@2
sym@3:1
cup@2
b-@0 chg@2:2
"""

CIRCUIT = """\
circuit d=2 n=3
gate F@1
gate Y^-1@2
ctrl X c=1 t=2
sft
measure@1 -> m1
measure@2 -> m2
cond m1 apply Z^-m1 @3
cond m2 apply X^m2 @3
"""

PROTOCOL = """\
party alice: q1 q2
party bob: q3
input: q1
resource max2: q2 q3
ctrl X c=q1 t=q2
gate F^-1 @q1
meter q1 -> m1
meter q2 -> m2
send alice->bob m1
send alice->bob m2
cond m2 apply X^m2 @q3
cond m1 apply Z^m1 @q3
output: q3
"""

CASES = {
    "pd": (DIAGRAM, ["diagram", "eval"], []),
    "pc": (CIRCUIT, ["circuit", "run"], ["--emit", "state"]),
    "pp": (PROTOCOL, ["protocol", "run"], ["--d", "2"]),
}

TOKENS = [
    "2**40", "q99", "999999999999", "99999999999999999999", "n=1000000000",
    "-", "@", ":", "^", "\n", " ",
]


def mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.choice((1, 1, 2, 3))):
        at = rng.randrange(len(text) + 1)
        kind = rng.randrange(3)
        if kind == 0:  # delete a span
            text = text[:at] + text[at + rng.randint(1, 8) :]
        elif kind == 1:  # duplicate a span in place
            span = text[at : at + rng.randint(1, 24)]
            text = text[:at] + span + text[at:]
        else:  # insert a token
            text = text[:at] + rng.choice(TOKENS) + text[at:]
    return text


def run_cli(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


@pytest.mark.parametrize("ext", sorted(CASES))
def test_mutated_texts_end_in_a_report_or_one_error_line(tmp_path, capsys, ext):
    base, command, flags = CASES[ext]
    rng = random.Random(f"totality-{ext}")
    path = tmp_path / f"mutant.{ext}"
    refused = 0
    tracemalloc.start()
    try:
        for i in range(200):
            text = base if i == 0 else mutate(rng, base)
            path.write_text(text)
            tracemalloc.reset_peak()
            code, out = run_cli([*command, str(path), *flags])
            peak = tracemalloc.get_traced_memory()[1]
            err = capsys.readouterr().err
            where = f"mutant {i}:\n{text}"
            # far below one state of MAX_ENTRIES complex entries (16 MiB)
            assert peak < 4 * 2**20, (peak, where)
            if code == 0:
                assert out.endswith("PASS\n") and err == "", where
            else:
                assert code == 2, where
                assert out == "", where
                assert err.startswith("error: ") and err.count("\n") == 1, where
                refused += 1
    finally:
        tracemalloc.stop()
    # the fuzz reaches both outcomes
    assert 0 < refused < 199


# past int64, and 1 mod 4d for d = 2 and 3, so every exponent below reduces to 1
HUGE = 12 * 10**20 + 1

REDUCED = [
    ("pd", "diagram d=3 in=4 out=4\nchg@0:{k} chg@3:-{k}:2\nsym@1:{k}\nb+@1 chg@1:{k}\n",
     ["--emit", "matrix"]),
    ("pc", "circuit d=3 n=2\ngate X^{k}@1\ngate Y^-{k}@2\nmeasure@1 -> m1\n"
     "cond m1 apply G^-{k}*m1 @2\n", ["--emit", "state"]),
    ("pc", "circuit d=2 n=2\ngate F^{k}@1\ngate Z^-{k}@1\n", ["--emit", "state"]),
]


@pytest.mark.parametrize("ext, text, flags", REDUCED, ids=["pd", "pc-cond", "pc-fourier"])
def test_exponents_past_int64_are_reduced_exactly(tmp_path, ext, text, flags):
    command, path = CASES[ext][1], tmp_path / f"exponents.{ext}"
    reports = []
    for k in (1, HUGE):
        path.write_text(text.format(k=k))
        code, out = run_cli([*command, str(path), *flags])
        assert code == 0, text.format(k=k)
        reports.append(out)
    assert reports[0] == reports[1]
