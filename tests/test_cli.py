"""Command-line interface: reports, determinism, exit codes."""

import io
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from pappa import verify
from pappa.cli import main


def run_cli(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


@pytest.fixture()
def loop_pd(tmp_path):
    p = tmp_path / "loop.pd"
    p.write_text("diagram d=2 in=0 out=0\ncap@0\ncup@0\n")
    return str(p)


@pytest.fixture()
def teleport_pp(tmp_path):
    p = tmp_path / "teleport.pp"
    p.write_text(
        "party alice: q1 q2\n"
        "party bob: q3\n"
        "input: q1\n"
        "resource max2: q2 q3\n"
        "ctrl X c=q1 t=q2\n"
        "gate F^-1 @q1\n"
        "meter q1 -> m1\n"
        "meter q2 -> m2\n"
        "send alice->bob m1\n"
        "send alice->bob m2\n"
        "cond m2 apply X^m2 @q3\n"
        "cond m1 apply Z^m1 @q3\n"
        "output: q3\n"
    )
    return str(p)


def test_diagram_eval_loop_scalar_sqrt_d(loop_pd):
    code, out = run_cli(["diagram", "eval", loop_pd, "--d", "4"])
    assert code == 0
    assert "scalar_real=2" in out
    assert out.strip().endswith("PASS")


def test_verify_sft_report(capsys):
    code, out = run_cli(["verify", "sft", "--d", "3", "--n", "2"])
    assert code == 0
    assert "sft.cross_oracle_n2=" in out
    assert out.strip().endswith("PASS")
    worst = [l for l in out.splitlines() if l.startswith("sft.max_residual=")]
    assert float(worst[0].split("=")[1]) < 1e-9


def test_verify_all_suites():
    code, out = run_cli(["verify", "all", "--d", "2"])
    assert code == 0
    for name in ("relations", "sft", "entropy", "clifford", "tricks", "protocols"):
        assert f"{name}.max_residual=" in out
    assert out.strip().endswith("PASS")


def test_verify_jobs_parallel_matches_serial():
    _, serial = run_cli(["verify", "all", "--d", "2"])
    _, parallel = run_cli(["verify", "all", "--d", "2", "--jobs", "3"])
    assert serial == parallel


def test_verify_report_does_not_depend_on_blas_threads():
    """Threaded LAPACK rounds differently, so no reported residual may rest on a numerical inverse."""
    root = Path(__file__).resolve().parent.parent
    for suite in ("sft", "clifford", "tricks"):
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": threads}
            env.update(OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "pappa.cli", "verify", suite, "--d", "5"],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr[-2000:]
            outs.append(proc.stdout)
        assert outs[0] == outs[1], suite


def test_protocol_run_transcript(teleport_pp):
    code, out = run_cli(["protocol", "run", teleport_pp, "--d", "2", "--seed", "7"])
    assert code == 0
    assert "edits=1" in out
    assert "cdits=2" in out


def test_byte_identical_reports(loop_pd, teleport_pp):
    for argv in (
        ["diagram", "eval", loop_pd, "--d", "4", "--emit", "matrix"],
        ["protocol", "run", teleport_pp, "--d", "2", "--seed", "7"],
        ["verify", "relations", "--d", "3"],
    ):
        _, first = run_cli(argv)
        _, second = run_cli(argv)
        assert first == second
        assert first.encode() == second.encode()


def test_seed_changes_protocol_outcomes(teleport_pp):
    outs = set()
    for seed in range(8):
        _, out = run_cli(["protocol", "run", teleport_pp, "--d", "2", "--seed", str(seed)])
        outs.add(out)
    assert len(outs) > 1


def test_parse_error_exit_code_2(tmp_path):
    bad = tmp_path / "bad.pd"
    bad.write_text("diagram d=2 in=0 out=0\nzap@0\n")
    code, _ = run_cli(["diagram", "eval", str(bad)])
    assert code == 2


def test_missing_file_exit_code_2():
    code, _ = run_cli(["diagram", "eval", "/nonexistent/nо.pd"])
    assert code == 2


def test_unknown_suite_exit_code_2():
    code, _ = run_cli(["verify", "nonsense"])
    assert code == 2


def test_unknown_flag_exit_code_2():
    code, _ = run_cli(["verify", "sft", "--frobnicate"])
    assert code == 2


def test_dimension_overflow_exit_code_2(tmp_path):
    big = tmp_path / "big.pc"
    big.write_text("circuit d=2 n=25\n")
    code, _ = run_cli(["circuit", "run", str(big)])
    assert code == 2


def test_circuit_header_is_bounded_before_the_script_is_built(tmp_path, capsys):
    big = tmp_path / "big.pc"
    big.write_text("circuit d=2 n=1000000\ngate Q@1\n")
    code, _ = run_cli(["circuit", "run", str(big)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: dimension overflow: d**n = 2**1000000 ")


def test_huge_circuit_header_is_refused_in_constant_memory(tmp_path, capsys):
    big = tmp_path / "huge.pc"
    big.write_text("circuit d=2 n=1000000000\n")
    tracemalloc.start()
    try:
        err = _refused(["circuit", "run", str(big)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err == f"error: dimension overflow: d**n = 2**1000000000 exceeds {2**20} entries\n"
    assert peak < 2**20, peak


def test_unbound_box_exit_code_2(tmp_path, capsys):
    pd = tmp_path / "box.pd"
    pd.write_text("diagram d=2 in=2 out=2\nbox U@0:2:0\n")
    code, out = run_cli(["diagram", "eval", str(pd)])
    assert code == 2
    assert capsys.readouterr().err == "error: no matrix bound for box 'U'\n"


def test_circuit_run_outcomes(tmp_path):
    pc = tmp_path / "c.pc"
    pc.write_text("circuit d=3 n=2\nsft\nmeasure@1 -> m1\nmeasure@2 -> m2\n")
    code, out = run_cli(["circuit", "run", str(pc), "--seed", "3", "--emit", "state"])
    assert code == 0
    regs = {}
    for line in out.splitlines():
        if line.startswith("outcome_"):
            key, val = line.split("=")
            regs[key] = int(val)
    # the SFT of |00> is charge-correlated: outcomes sum to 0 mod 3
    assert (regs["outcome_m1"] + regs["outcome_m2"]) % 3 == 0


def test_pappa_tol_environment_override(monkeypatch, loop_pd):
    monkeypatch.setenv("PAPPA_TOL", "1e-3")
    code, out = run_cli(["verify", "relations", "--d", "2"])
    assert code == 0
    assert "tol=1.000e-03" in out


def test_send_of_unknown_register_exit_code_2(tmp_path, capsys):
    pp = tmp_path / "send.pp"
    pp.write_text("party alice: q1\nparty bob: q2\nmeter q2 -> m1\nsend alice->bob m1\n")
    code, _ = run_cli(["protocol", "run", str(pp), "--d", "2"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {pp}:4: alice cannot send unknown register m1\n"


def test_cond_on_unmeasured_register_exit_code_2(tmp_path, capsys):
    pc = tmp_path / "cond.pc"
    pc.write_text("circuit d=2 n=2\ncond m1 apply X^m1 @2\n")
    code, _ = run_cli(["circuit", "run", str(pc)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {pc}:2: circuit conditions on unreceived register m1\n"


def test_diagram_d_override_ignores_comments(tmp_path, monkeypatch):
    from pappa import cli

    seen = []
    evaluate = cli.evaluate

    def recording(ring, diagram):
        seen.append(diagram.d)
        return evaluate(ring, diagram)

    monkeypatch.setattr(cli, "evaluate", recording)
    pd = tmp_path / "loop.pd"
    pd.write_text("# was d=2\ndiagram d=2 in=0 out=0\ncap@0\ncup@0\n")
    code, out = run_cli(["diagram", "eval", str(pd), "--d", "3"])
    assert code == 0
    assert seen == [3]
    assert out.startswith("d=3\n")


def test_circuit_ctrl_on_one_site_exit_code_2(tmp_path, capsys):
    pc = tmp_path / "ctrl.pc"
    pc.write_text("circuit d=2 n=2\ngate X@1\nctrl X c=1 t=1\n")
    code, _ = run_cli(["circuit", "run", str(pc)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {pc}:3: control and target must differ\n"


def test_protocol_ctrl_on_one_site_exit_code_2(tmp_path, capsys):
    pp = tmp_path / "ctrl.pp"
    pp.write_text("party alice: q1 q2\nctrl X c=q1 t=q1\n")
    code, _ = run_cli(["protocol", "run", str(pp), "--d", "3"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {pp}:2: control and target must differ\n"


# 4d divides 12 * 10**20 at d = 2, 3 and 5, so these are ctrl Z**1 and ctrl F**2
HUGE_Z, HUGE_F = 12 * 10**20 + 1, 12 * 10**20 + 2


@pytest.mark.parametrize("d", [2, 3, 5])
def test_huge_ctrl_exponents_run_as_their_residues(tmp_path, capsys, d):
    texts = {
        "pc": (
            f"circuit d={d} n=2\ngate F@1\ngate F@2\nctrl Z^{{z}} c=1 t=2\n"
            "ctrl F^{f} c=2 t=1\nmeasure@1 -> m1\n"
        ),
        "pp": (
            "party a: q1 q2\ngate F @q1\ngate F @q2\nctrl Z^{z} c=q1 t=q2\n"
            "ctrl F^{f} c=q2 t=q1\nmeter q1 -> m1\n"
        ),
    }
    commands = {"pc": ["circuit", "run"], "pp": ["protocol", "run"]}
    for kind, text in texts.items():
        reports = []
        for z, f in ((HUGE_Z, HUGE_F), (1, 2)):
            path = tmp_path / f"ctrl{z}.{kind}"
            path.write_text(text.format(z=z, f=f))
            extra = ["--emit", "state"] if kind == "pc" else ["--d", str(d)]
            code, out = run_cli([*commands[kind], str(path), "--seed", "3", *extra])
            assert code == 0 and capsys.readouterr().err == ""
            reports.append(out)
        assert reports[0] == reports[1] and reports[0].endswith("PASS\n")


def test_send_from_unknown_party_exit_code_2(tmp_path, capsys):
    pp = tmp_path / "send.pp"
    pp.write_text("party alice: q1\nparty bob: q2\n\nmeter q1 -> m1\nsend alice->carol m1\n")
    code, _ = run_cli(["protocol", "run", str(pp), "--d", "2"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {pp}:5: unknown party carol\n"


def _cap_cup_pd(tmp_path, count):
    pd = tmp_path / f"loops{count}.pd"
    pd.write_text("diagram d=2 in=0 out=0\n" + "cap@0\n" * count + "cup@0\n" * count)
    return str(pd)


def test_wide_interior_is_bounded_exit_code_2(tmp_path, capsys):
    # the boundary is empty, but 21 nested caps reach 2**21 entries
    code, out = run_cli(["diagram", "eval", _cap_cup_pd(tmp_path, 21)])
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: dimension overflow") and err.count("\n") == 1


def test_wide_interior_within_bound_evaluates(tmp_path):
    code, out = run_cli(["diagram", "eval", _cap_cup_pd(tmp_path, 16)])
    assert code == 0
    assert "scalar_real=256\n" in out


def _braid_pd(tmp_path, points):
    pd = tmp_path / f"braid{points}.pd"
    pd.write_text(f"diagram d=2 in={points} out={points}\nb+@0\n")
    return str(pd)


def test_wide_boundary_is_bounded_exit_code_2(tmp_path, capsys):
    # 11 qudits fit the widest layer, but the accumulator has 2**11 x 2**11 entries
    code, out = run_cli(["diagram", "eval", _braid_pd(tmp_path, 22)])
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: dimension overflow") and err.count("\n") == 1


def test_boundary_within_bound_evaluates(tmp_path):
    code, out = run_cli(["diagram", "eval", _braid_pd(tmp_path, 4)])
    assert code == 0
    assert out.startswith("d=2\nin_points=4\nout_points=4\n") and out.endswith("PASS\n")


# ---------------------------------------------------------------------------
# one refusal path: exit 2, nothing on stdout, one stderr line
# ---------------------------------------------------------------------------


@pytest.fixture()
def corpus(tmp_path, loop_pd, teleport_pp):
    bell = tmp_path / "bell.pc"
    bell.write_text("circuit d=2 n=2\nsft\nmeasure@1 -> m1\n")
    binary = tmp_path / "binary.pd"
    binary.write_bytes(b"\x89PNG\r\n\x1a\n\x00\xff")
    files = {
        "pd": loop_pd,
        "pc": str(bell),
        "pp": teleport_pp,
        "dir": str(tmp_path),
        "missing": str(tmp_path / "missing.pd"),
        "binary": str(binary),
    }
    for name, text in {
        "parse": "diagram d=2 in=0 out=0\nzap@0\n",
        "surplus": "diagram d=2 in=2 out=2\nb+@0:7:9\n",
        "state": "circuit d=2 n=25\n",
        "block": "circuit d=1048576 n=1\ngate F@1\n",
        "input2": "party a: q1 q2\ninput: q1\ninput: q2\n",
        "output2": "party a: q1 q2\noutput: q1\noutput: q2\n",
    }.items():
        (tmp_path / name).write_text(text)
        files[name] = str(tmp_path / name)
    return files


DROPPED_FLAGS = [
    ("diagram eval {pd}", "--n 2"),
    ("diagram eval {pd}", "--seed 1"),
    ("diagram eval {pd}", "--tol 1e-3"),
    ("diagram eval {pd}", "--jobs 2"),
    ("circuit run {pc}", "--d 5"),
    ("circuit run {pc}", "--n 2"),
    ("circuit run {pc}", "--tol 1e-3"),
    ("circuit run {pc}", "--jobs 2"),
    ("protocol run {pp} --d 2", "--n 2"),
    ("protocol run {pp} --d 2", "--tol 1e-3"),
    ("protocol run {pp} --d 2", "--emit report"),
    ("protocol run {pp} --d 2", "--jobs 2"),
    ("verify sft", "--seed 1"),
    ("verify sft", "--emit report"),
]

REFUSALS = [
    "verify sft --frobnicate",
    "diagram eval {missing}",
    "diagram eval {dir}",
    "diagram eval {binary}",
    "diagram eval {parse}",
    "diagram eval {surplus}",
    "circuit run {state}",
    "circuit run {block}",
    "verify nonsense",
    "protocol run {pp}",
    "protocol run {input2} --d 3",
    "protocol run {output2} --d 3",
    "diagram eval {pd} --emit state",
    "circuit run {pc} --emit matrix",
    "verify sft --d x",
    "verify sft --tol inf",
    "verify sft --tol nan",
    "verify sft --tol -1",
    "verify sft --tol 0",
    "verify sft --tol 1.5",
    "diagram",
    "",
]


def _refused(argv, capsys):
    code, out = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 2, argv
    assert out == "", argv
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("command, flag", DROPPED_FLAGS)
def test_flag_a_command_does_not_read_exit_code_2(corpus, capsys, command, flag):
    err = _refused((command.format(**corpus) + " " + flag).split(), capsys)
    assert err == f"error: unrecognized arguments: {flag}\n"


@pytest.mark.parametrize("command", REFUSALS)
def test_refusal_is_one_error_line_exit_code_2(corpus, capsys, command):
    _refused(command.format(**corpus).split(), capsys)


def test_refusal_messages(corpus, capsys):
    assert _refused(["diagram", "eval", corpus["dir"]], capsys).startswith("error: [Errno")
    assert _refused(["diagram", "eval", corpus["surplus"]], capsys) == (
        f"error: {corpus['surplus']}:2: b+ needs @i in 'b+@0:7:9'\n"
    )
    assert _refused(["protocol", "run", corpus["pp"]], capsys) == (
        "error: the following arguments are required: --d\n"
    )
    for name in ("input", "output"):
        path = corpus[f"{name}2"]
        assert _refused(["protocol", "run", path, "--d", "3"], capsys) == (
            f"error: {path}:3: {name} declared twice\n"
        )


def test_help_exits_0(capsys):
    for argv in (["--help"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    assert "usage: pappa verify" in capsys.readouterr().out


def test_bad_pappa_tol_refuses_only_verify(monkeypatch, capsys, loop_pd):
    monkeypatch.setenv("PAPPA_TOL", "tight")
    assert _refused(["verify", "relations"], capsys).startswith("error: could not convert")
    code, out = run_cli(["diagram", "eval", loop_pd])
    assert code == 0 and out.endswith("PASS\n")
    code, out = run_cli(["verify", "relations", "--tol", "1e-3"])
    assert code == 0 and "tol=1.000e-03\n" in out


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "2"])
def test_out_of_range_pappa_tol_is_refused_before_any_suite(monkeypatch, capsys, value):
    monkeypatch.setattr(verify, "run_suite", None)  # a suite that ran would raise TypeError
    monkeypatch.setenv("PAPPA_TOL", value)
    err = _refused(["verify", "all"], capsys)
    assert err == f"error: tolerance must lie in (0, 1], got {float(value)}\n"


def test_verify_d_defaults_to_2():
    code, out = run_cli(["verify", "relations"])
    assert code == 0 and out.startswith("d=2\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        ("verify sft --n 0", "--n must be at least 1, got 0"),
        ("verify all --n -2", "--n must be at least 1, got -2"),
        ("verify relations --n 7", "--n is read by the sft suite only, not by relations"),
        ("verify clifford --d 3 --n 2", "--n is read by the sft suite only, not by clifford"),
    ],
)
def test_verify_n_refusals(capsys, argv, message):
    assert _refused(argv.split(), capsys) == f"error: {message}\n"


# ---------------------------------------------------------------------------
# block bound: d**(2 min(w, 2)) entries, w the qudit count or peak width
# ---------------------------------------------------------------------------


@pytest.fixture()
def small_bound(monkeypatch):
    from pappa import cli

    monkeypatch.setattr(cli, "MAX_ENTRIES", 64)


@pytest.mark.parametrize(
    "name, text",
    [
        ("f.pc", "circuit d=64 n=1\ngate F@1\n"),
        ("ctrl.pc", "circuit d=8 n=2\nctrl X c=1 t=2\n"),
        ("sft.pc", "circuit d=4 n=3\nsft\n"),
        # a two-qudit interior with an empty boundary: a d**4 braid block
        ("odd.pd", "diagram d=4 in=0 out=0\ncap@0 cap@2\nb+@1\ncup@2 cup@0\n"),
    ],
)
def test_block_overflow_exit_code_2(tmp_path, capsys, small_bound, name, text):
    path = tmp_path / name
    path.write_text(text)
    command = "diagram eval" if name.endswith(".pd") else "circuit run"
    err = _refused([*command.split(), str(path)], capsys)
    assert err.startswith("error: block overflow")


def test_protocol_block_overflow_exit_code_2(capsys, small_bound, teleport_pp):
    # d=4, three sites: 64 state entries fit, a 256-entry two-qudit block does not
    assert _refused(["protocol", "run", teleport_pp, "--d", "4"], capsys).startswith(
        "error: block overflow"
    )


@pytest.mark.parametrize("suite", ["sft", "all"])
def test_verify_sft_size_overflow_exit_code_2(capsys, small_bound, suite):
    # the SFT on 4 qubits has 2**8 entries, over the bound of 64
    err = _refused(["verify", suite, "--d", "2", "--n", "4"], capsys)
    assert err == "error: dimension overflow: d**n = 2**8 exceeds 64 entries\n"


def test_verify_size_bound_counts_the_three_qudit_sft(capsys, small_bound):
    # suite_sft always builds the 3-qudit SFT: 2**6 = 64 entries fit, 3**6 do not
    code, out = run_cli(["verify", "sft", "--d", "2", "--n", "2"])
    assert code == 0 and out.endswith("PASS\n")
    assert _refused(["verify", "sft", "--d", "3"], capsys) == (
        "error: dimension overflow: d**n = 3**6 exceeds 64 entries\n"
    )
    # relations is bounded by its own widest array, 2**5 entries, not the SFT's
    code, out = run_cli(["verify", "relations", "--d", "2"])
    assert code == 0 and out.endswith("PASS\n")


@pytest.mark.parametrize(
    "suite, d, width",
    [
        ("tricks", 100000, 4),
        ("relations", 3000, 5),
        ("relations", 17, 5),
        ("entropy", 11, 6),
        ("clifford", 8, 7),
        ("protocols", 8, 7),
        ("all", 8, 7),
    ],
)
def test_verify_refuses_a_degree_past_the_suite_bound(capsys, suite, d, width):
    """Each suite is bounded by its widest dense array, before any suite runs."""
    started = time.perf_counter()
    assert _refused(["verify", suite, "--d", str(d)], capsys) == (
        f"error: dimension overflow: d**n = {d}**{width} exceeds 1048576 entries\n"
    )
    assert time.perf_counter() - started < 1.0


def test_verify_all_runs_at_d_7():
    # 7**7 entries fit the bound: the widest arrays of clifford and protocols
    code, out = run_cli(["verify", "all", "--d", "7"])
    assert code == 0 and out.endswith("PASS\n")


def test_one_qudit_interior_within_block_bound(tmp_path, small_bound):
    pd = tmp_path / "one.pd"
    pd.write_text("diagram d=8 in=2 out=2\nchg@0:1\nb+@0\n")
    code, out = run_cli(["diagram", "eval", str(pd)])
    assert code == 0 and out.endswith("PASS\n")


README = Path(__file__).resolve().parent.parent / "README.md"
README_RUNS = {".pd": ["diagram", "eval"], ".pc": ["circuit", "run"], ".pp": ["protocol", "run"]}


def _readme_examples():
    """The files of README.md's "File formats" block, each starting ``# NAME ...``."""
    block = re.search(r"File formats.*?```\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return dict(
        (re.match(r"# (\S+)", text).group(1), text)
        for text in block.group(1).strip().split("\n\n")
    )


def test_readme_file_format_examples_run(tmp_path, capsys):
    examples = _readme_examples()
    assert sorted(examples) == ["bell.pc", "loop.pd", "teleport.pp"]
    for name, text in examples.items():
        path = tmp_path / name
        path.write_text(text)
        argv = README_RUNS[path.suffix] + [str(path)]
        if path.suffix == ".pp":
            argv += ["--d", "2"]
        code, out = run_cli(argv)
        assert code == 0, (name, capsys.readouterr().err)
        assert out.endswith("PASS\n"), name
