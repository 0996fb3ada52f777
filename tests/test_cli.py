"""End-to-end command behaviour: flags, exit codes, formats."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from astheno import cli
from astheno.algebra import MAX_WORK, _size
from astheno.calculus import Condition, Convention, d_c, exterior_d
from astheno.classify import KINDS, VERDICT_NONZERO, Proposition, ScanCell, ScanReport
from astheno.cli import MAX_HALF_DIM, MAX_SCAN_GEOMETRIES, MAX_TRIALS, main
from astheno.exprio import MAX_NESTING
from astheno.exprio import from_record, parse

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    capsys.readouterr()
    return info.value.code


def test_check_identically_zero(capsys):
    code, out = run(
        capsys, "check", "--m1", "1", "--m2", "2",
        "--factor1", "sasakian", "--factor2", "cosymplectic",
        "--condition", "astheno",
    )
    assert code == 0
    assert "identically-zero" in out


def test_check_nonzero(capsys):
    code, out = run(
        capsys, "check", "--m1", "2", "--m2", "2",
        "--factor1", "kenmotsu", "--factor2", "kenmotsu",
        "--condition", "astheno",
    )
    assert code == 1
    assert "nonzero" in out
    assert "residual:" in out


def test_check_rejects_bad_geometry(capsys):
    code = run_usage_error(
        capsys, "check", "--m1", "0", "--m2", "1",
        "--factor1", "sasakian", "--factor2", "sasakian",
    )
    assert code == 2


@pytest.mark.parametrize("flags", ((), ("--no-truncate",)), ids=("truncated", "free"))
def test_check_at_the_half_dimension_cap(capsys, flags):
    # the untruncated tensor has ~8000 terms with ~1230-digit coefficients
    cap = str(MAX_HALF_DIM)
    start = time.perf_counter()
    code, out = run(capsys, "check", "--m1", cap, "--m2", cap,
                    "--factor1", "sasakian", "--factor2", "kenmotsu", *flags)
    assert time.perf_counter() - start < 60
    assert code == 1
    assert "verdict: nonzero" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--m1", "{over}", "--m2", "1",
         "--factor1", "sasakian", "--factor2", "kenmotsu"),
        ("check", "--m1", "1", "--m2", "{over}",
         "--factor1", "sasakian", "--factor2", "kenmotsu"),
        ("scan", "--max-m1", "{over}"),
        ("scan", "--max-m2", "{over}"),
        ("eval", "--expr", "eta1", "--m1", "{over}", "--m2", "1"),
        ("eval", "--expr", "eta1", "--m1", "1", "--m2", "{over}"),
        # pins outside [+-]p[/q]; Fraction(str) took 1e10000000 in 37 s
        *(
            ("check", "--m1", "2", "--m2", "2", "--factor1", "sasakian",
             "--factor2", "sasakian", "--alpha1=" + pin)
            for pin in ("1e10000000", "1e3", "1.5", "1_000", "\u0661", " 1", "1 ",
                        "1/0", "1/-2", "", "3" * 5000)
        ),
        # the integer options read the ASCII literals that pins read; int() took these
        *(
            (*command, f"{option}={value}")
            for *command, option in (
                ("check", "--m2", "1", "--factor1", "sasakian", "--factor2", "kenmotsu", "--m1"),
                ("check", "--m1", "1", "--factor1", "sasakian", "--factor2", "kenmotsu", "--m2"),
                ("scan", "--max-m1"),
                ("scan", "--max-m2"),
                ("verify", "--trials"),
                ("verify", "--seed"),
                ("table", "--id"),
            )
            for value in ("\u0661", "1_0", " 3", "3 ")
        ),
    ],
)
def test_half_dimensions_above_the_cap_are_usage_errors(capsys, argv):
    over = str(MAX_HALF_DIM + 1)
    start = time.perf_counter()
    assert run_usage_error(capsys, *(a.format(over=over) for a in argv)) == 2
    assert time.perf_counter() - start < 10


def test_check_rejects_contradictory_pin(capsys):
    code = run_usage_error(
        capsys, "check", "--m1", "1", "--m2", "1",
        "--factor1", "sasakian", "--factor2", "sasakian",
        "--beta1", "2",
    )
    assert code == 2


def test_check_rational_pins(capsys):
    code, out = run(
        capsys, "check", "--m1", "1", "--m2", "1",
        "--factor1", "trans-sasakian", "--factor2", "trans-sasakian",
        "--alpha1", "1/2", "--beta1", "0", "--alpha2", "-3", "--beta2", "0",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "identically-zero"
    assert payload["factors"][0]["alpha"] == "1/2"


def test_check_json_record_round_trips(capsys):
    code, out = run(
        capsys, "check", "--m1", "2", "--m2", "2",
        "--factor1", "kenmotsu", "--factor2", "kenmotsu", "--format", "json",
    )
    assert code == 1
    payload = json.loads(out)
    form = from_record(payload["residual"])
    assert form == parse(payload["residual_text"])


def test_table_reports_discrepancies(capsys):
    code, out = run(capsys, "table", "--id", "1", "--convention", "ungraded")
    assert code == 1
    assert "discrepant rows: 6, 8" in out


def test_table_zero_rows(capsys):
    code, out = run(capsys, "table", "--id", "10")
    lines = [l for l in out.splitlines() if "[printed 0]" in l]
    assert len(lines) == 2
    assert any("row 7" in l for l in lines)
    assert any("row 9" in l for l in lines)
    assert code == 1  # rows 1-3 disagree with the engine expansion


def test_table_rejects_bad_id(capsys):
    assert run_usage_error(capsys, "table", "--id", "11") == 2


def test_table_json(capsys):
    code, out = run(capsys, "table", "--id", "2", "--format", "json")
    payload = json.loads(out)
    assert payload["discrepancies"] == [1]
    assert len(payload["rows"]) == 9
    for row in payload["rows"]:
        from_record(row["fixture"])
        from_record(row["diff"])


def test_scan_text_and_exit(capsys):
    code, out = run(capsys, "scan", "--max-m1", "1", "--max-m2", "1")
    assert code == 0
    assert "sasakian x cosymplectic: identically-zero" in out
    assert "proposition cosymplectic-only: holds" in out


def test_scan_json(capsys):
    code, out = run(
        capsys, "scan", "--max-m1", "2", "--max-m2", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["cells"]) == 36
    assert all(p["holds"] for p in payload["propositions"])


@pytest.mark.parametrize("max_m1, max_m2", [(17, 241), (MAX_HALF_DIM, MAX_HALF_DIM)])
def test_scan_above_the_grid_cap_is_a_usage_error(capsys, max_m1, max_m2):
    # 17 * 241 is one past the cap; the cap itself runs for minutes
    assert 17 * 241 == MAX_SCAN_GEOMETRIES + 1
    start = time.perf_counter()
    assert run_usage_error(capsys, "scan", "--max-m1", str(max_m1), "--max-m2", str(max_m2)) == 2
    assert time.perf_counter() - start < 1


def _failing_scan(**kwargs):
    cell = ScanCell(2, 3, "sasakian", "kenmotsu", VERDICT_NONZERO, ("a1=0",))
    prop = Proposition("made-up", "every cell vanishes", False, (cell,))
    return ScanReport(Condition.ASTHENO, Convention.GRADED, 2, 3, (cell,), (prop,))


def test_scan_failing_proposition_text(capsys, monkeypatch):
    monkeypatch.setattr(cli, "scan", _failing_scan)
    code, out = run(capsys, "scan")
    assert code == 1
    assert "proposition made-up: FAILS" in out
    assert "  counterexample: m1=2, m2=3, sasakian x kenmotsu: nonzero\n" in out
    assert "ScanCell" not in out


def test_scan_failing_proposition_json(capsys, monkeypatch):
    monkeypatch.setattr(cli, "scan", _failing_scan)
    code, out = run(capsys, "scan", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    [prop] = payload["propositions"]
    assert not prop["holds"] and not payload["ok"]
    assert prop["counterexamples"] == payload["cells"]
    assert payload["cells"][0] == {
        "m1": 2, "m2": 3, "factor1": "sasakian", "factor2": "kenmotsu",
        "verdict": VERDICT_NONZERO, "vanishing_conditions": ["a1=0"],
    }


def _generic_scan_json(report) -> str:
    """A scan's JSON as the generic dump prints it: every cell through _cell_payload."""
    payload = {
        "command": "scan",
        "condition": report.condition.value,
        "convention": report.convention.value,
        "max_m1": report.max_m1,
        "max_m2": report.max_m2,
        "cells": [cli._cell_payload(c) for c in report.cells],
        "propositions": [
            {"name": p.name, "statement": p.statement, "holds": p.holds,
             "counterexamples": [cli._cell_payload(c) for c in p.counterexamples]}
            for p in report.propositions
        ],
        "ok": report.ok,
    }
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("condition", [c.value for c in Condition])
@pytest.mark.parametrize("convention", ["graded", "ungraded"])
@pytest.mark.parametrize("ring_reduce", [True, False])
@pytest.mark.parametrize("max_m1, max_m2", [(1, 1), (3, 5), (6, 2)])
def test_scan_json_writer_equals_the_generic_dump(
    capsys, condition, convention, ring_reduce, max_m1, max_m2
):
    report = cli.scan(max_m1, max_m2, condition, convention, ring_reduce)
    argv = ["scan", "--max-m1", str(max_m1), "--max-m2", str(max_m2), "--condition", condition,
            "--convention", convention, "--format", "json"]
    code, out = run(capsys, *argv, *([] if ring_reduce else ["--no-ring-reduce"]))
    assert code == (0 if report.ok else 1)
    assert out == _generic_scan_json(report)


def _conditional_scan(**kwargs):
    # no real pure-pair scan has vanishing conditions, so the writer's
    # conditions and counterexamples are checked on a hand-made report
    cells = (
        ScanCell(1, 1, "sasakian", "kenmotsu", VERDICT_NONZERO, ()),
        ScanCell(1, 2, "kenmotsu", "sasakian", "conditionally-zero", ("a1=0",)),
        ScanCell(12, 3, "sasakian", "sasakian", "conditionally-zero", ("a1=0", "b1=-b2")),
        ScanCell(2, 10, "kenmotsu", "sasakian", "conditionally-zero", ("a1=0",)),
        ScanCell(2, 2, "cosymplectic", "cosymplectic", "identically-zero", ()),
    )
    props = (
        Proposition("made-up", "every cell vanishes", False, cells[:3]),
        Proposition("empty", "nothing to see", True, ()),
    )
    return ScanReport(Condition.GAUDUCHON, Convention.UNGRADED, 12, 10, cells, props)


@pytest.mark.parametrize("make", [_failing_scan, _conditional_scan])
def test_scan_json_writer_on_hand_made_reports(capsys, monkeypatch, make):
    monkeypatch.setattr(cli, "scan", make)
    code, out = run(capsys, "scan", "--format", "json")
    report = make()
    assert code == (0 if report.ok else 1)
    assert out == _generic_scan_json(report)


def test_scan_cell_keeps_its_contract(capsys):
    cell = ScanCell(2, 3, "sasakian", "kenmotsu", VERDICT_NONZERO, ("a1=0",))
    assert ScanCell._fields == ("m1", "m2", "factor1", "factor2", "verdict", "conditions")
    for field in ScanCell._fields:
        with pytest.raises(AttributeError):
            setattr(cell, field, None)
    same = ScanCell(2, 3, "sasakian", "kenmotsu", VERDICT_NONZERO, ("a1=0",))
    assert cell == same and hash(cell) == hash(same) and len({cell, same}) == 1
    assert cell != cell._replace(m2=4) and cell != cell._replace(conditions=())
    code, out = run(capsys, "scan", "--max-m1", "3", "--max-m2", "3")
    assert code == 0 and "ScanCell" not in out


def test_verify_passes(capsys):
    code, out = run(capsys, "verify", "--trials", "40")
    assert code == 0
    assert "audit passed" in out
    assert "findings" in out


def test_verify_json_stable(capsys):
    code1, out1 = run(capsys, "verify", "--trials", "25", "--format", "json")
    code2, out2 = run(capsys, "verify", "--trials", "25", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_eval_basic(capsys):
    code, out = run(capsys, "eval", "--expr", "eta1", "--apply", "d")
    assert code == 0
    assert out.strip() == "a1*Phi1"


def test_eval_zero(capsys):
    code, out = run(capsys, "eval", "--expr", r"eta1/\eta1")
    assert code == 0
    assert out.strip() == "0"


def test_eval_operator_chain(capsys):
    # dc then d is the second-order tensor
    code, out = run(
        capsys, "eval",
        "--expr", r"Phi1 + Phi2 - 2*eta1/\eta2",
        "--apply", "dc", "--apply", "d",
        "--convention", "ungraded",
    )
    assert code == 0
    from astheno.calculus import Condition, Convention, condition_tensor
    from astheno.algebra import ProductGeometry

    expected = condition_tensor(
        Condition.SKT, ProductGeometry(1, 1).untruncated(), Convention.UNGRADED
    )
    assert parse(out.strip()) == expected


def test_eval_with_geometry_truncates(capsys):
    code, out = run(
        capsys, "eval", "--expr", r"eta1/\Phi1", "--apply", "d",
        "--m1", "1", "--m2", "1",
    )
    assert code == 0
    assert out.strip() == "0"


def test_eval_requires_both_half_dims(capsys):
    assert run_usage_error(capsys, "eval", "--expr", "eta1", "--m1", "2") == 2


def test_eval_parse_error(capsys):
    code = main(["eval", "--expr", "eta1 +"])
    captured = capsys.readouterr()
    assert code == 2
    assert "parse error" in captured.err


def test_eval_deep_nesting_is_a_parse_error(capsys):
    for depth in (MAX_NESTING + 1, 3000):
        code = main(["eval", "--expr", "(" * depth + "eta1" + ")" * depth])
        captured = capsys.readouterr()
        assert code == 2
        assert "nested deeper" in captured.err


def test_eval_product_past_the_work_budget_is_a_parse_error(capsys):
    # 959 characters; before the budget it ran for over a minute
    expr = "*".join(["(a1+b1+a2+b2+Phi1+Phi2)"] * 40)
    start = time.perf_counter()
    code = main(["eval", "--expr", expr])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert "expression too large" in captured.err
    assert elapsed < 1.0


_CHAIN = r"Phi1 + Phi2 - 2*eta1/\eta2 + a1*b1*eta1"


@pytest.mark.parametrize("op", ("d", "dc"))
def test_eval_operator_chain_is_bounded_by_the_work_budget(capsys, monkeypatch, op):
    # each application charges its operand's size; find the longest chain within budget
    apply = {"d": exterior_d, "dc": d_c}[op]
    form, work, steps = parse(_CHAIN), 0, 0
    while work + _size(form) <= MAX_WORK:
        work += _size(form)
        form, steps = apply(form), steps + 1
    assert steps > 100  # the benchmark's evals apply at most 3 operators
    code, out = run(capsys, "eval", "--expr", _CHAIN, *["--apply", op] * steps)
    assert code == 0
    assert parse(out) == form
    code = main(["eval", "--expr", _CHAIN, *["--apply", op] * (steps + 1)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: operator chain passes {MAX_WORK} units of work\n"
    # the chain's own total charge is the least bound that accepts it
    for bound, expected in ((work, 0), (work - 1, 2)):
        monkeypatch.setattr(cli, "MAX_WORK", bound)
        assert main(["eval", "--expr", _CHAIN, *["--apply", op] * steps]) == expected
    # 1000 dc steps took 9 s and printed 10 MB of JSON before the bound
    start = time.perf_counter()
    assert main(["eval", "--expr", _CHAIN, *["--apply", op] * 1000]) == 2
    assert time.perf_counter() - start < 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    (
        ("scan", "--max-m1", "30", "--max-m2", "30"),
        ("scan", "--max-m1", "30", "--max-m2", "30", "--format", "json"),
        ("eval", "--expr", "eta1"),
    ),
    ids=("text", "json", "short"),
)
def test_closed_output_pipe_exits_2_without_a_traceback(argv):
    # the reader is gone before the first write; a scan fails inside a print,
    # the short output at main's flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    # stdout block-buffered, as in a shell pipeline
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    try:
        done = subprocess.run([sys.executable, "-m", "astheno.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr == b"error: output pipe closed early\n"


_REPEATED_CLOSED_PIPES = """
import json, os, sys
from astheno.cli import main
saved, codes, open_fds = os.dup(1), [], []
for _ in range(5):
    read_end, write_end = os.pipe()
    os.close(read_end)
    os.dup2(write_end, 1)
    os.close(write_end)
    codes.append(main(sys.argv[1:]))
    open_fds.append(len(os.listdir("/dev/fd")))
sys.stdout.flush()  # what the closed pipes refused goes to main's devnull
os.dup2(saved, 1)
print(json.dumps({"codes": codes, "open_fds": open_fds}))
"""


def test_repeated_closed_output_pipes_leak_no_descriptor():
    # main in one process, each call's stdout a fresh pipe whose reader is gone
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", _REPEATED_CLOSED_PIPES, "scan", "--max-m1", "2", "--max-m2", "2"],
        capture_output=True, env=env, timeout=60, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [2] * 5
    assert done.stderr == b"error: output pipe closed early\n" * 5
    assert len(set(result["open_fds"])) == 1, result["open_fds"]


def test_verify_trials_above_the_cap_are_usage_errors(capsys):
    start = time.perf_counter()
    code = run_usage_error(capsys, "verify", "--trials", str(MAX_TRIALS + 1))
    assert code == 2
    assert time.perf_counter() - start < 1.0


def test_eval_non_ascii_digits_and_long_literals_are_parse_errors(capsys):
    for text in ("²", "Phi1^²", "1/²", "١", "1" * 5000, "1/" + "1" * 5000,
                 "Phi1^" + "1" * 5000):
        code = main(["eval", "--expr", text])
        captured = capsys.readouterr()
        assert code == 2, text
        assert captured.err.startswith("parse error")


@pytest.mark.parametrize("fmt", ("text", "json"))
@pytest.mark.parametrize(
    "argv",
    (
        ("eval", "--expr", "7" * 4000 + "*" + "7" * 4000),
        ("check", "--m1", "2", "--m2", "2", "--factor1", "sasakian",
         "--factor2", "sasakian", "--alpha1", "3" * 3000),
    ),
    ids=("eval", "check"),
)
def test_result_too_long_to_print_is_a_usage_error(capsys, argv, fmt):
    code = main([*argv, "--format", fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "too long to print" in captured.err


def test_eval_latex(capsys):
    code, out = run(capsys, "eval", "--expr", "a1*eta1", "--format", "latex")
    assert out.strip() == r"\alpha_1\,\eta_1"


def test_color_toggle(capsys, monkeypatch):
    monkeypatch.setenv("ASTHENO_COLOR", "on")
    _, colored = run(
        capsys, "check", "--m1", "1", "--m2", "1",
        "--factor1", "cosymplectic", "--factor2", "cosymplectic",
    )
    assert "\x1b[32m" in colored
    monkeypatch.setenv("ASTHENO_COLOR", "off")
    _, plain = run(
        capsys, "check", "--m1", "1", "--m2", "1",
        "--factor1", "cosymplectic", "--factor2", "cosymplectic",
    )
    assert "\x1b[" not in plain


# bounded fuzzing of the whole front end: any argv ends in exit 0, 1 or 2.
# Half-dimensions stay <= 6, so scan never nears the cap.
_JUNK = st.text(max_size=8)


def _mostly(valid):
    """A value from valid, or one time in ten arbitrary text."""
    return st.integers(0, 9).flatmap(lambda i: valid if i else _JUNK)


_HALF = _mostly(st.integers(-1, 6).map(str))
_PIN = _mostly(st.fractions(min_value=-3, max_value=3, max_denominator=3).map(str))


def _pick(*values):
    return _mostly(st.sampled_from(values))


_SHARED = {"--convention": _pick("graded", "ungraded"),
           "--format": _pick("text", "latex", "json")}
_CONDITION = {"--condition": _pick("astheno", "skt", "gauduchon"), **_SHARED}
_OPTIONS = {
    "check": {"--m1": _HALF, "--m2": _HALF, "--factor1": _pick(*KINDS),
              "--factor2": _pick(*KINDS), "--alpha1": _PIN, "--beta1": _PIN,
              "--alpha2": _PIN, "--beta2": _PIN, **_CONDITION},
    "scan": {"--max-m1": _HALF, "--max-m2": _HALF, **_CONDITION},
    "table": {"--id": _mostly(st.integers(-1, 12).map(str)), **_SHARED},
    "eval": {"--expr": st.text(alphabet="0123456789 ab12etaPhi+-*/\\^()", max_size=20),
             "--apply": _pick("d", "dc", "j"), "--m1": _HALF, "--m2": _HALF, **_SHARED},
}


@st.composite
def _argvs(draw):
    command = draw(_pick(*_OPTIONS))
    argv = [command]
    for name, values in _OPTIONS.get(command, _SHARED).items():
        if draw(st.integers(0, 19)):  # each option is left out one time in twenty
            argv += [name, draw(values)]
    argv += draw(st.lists(_pick("--no-truncate", "--no-ring-reduce", "--help"), max_size=2))
    return argv


@given(_argvs())
@settings(max_examples=150, deadline=timedelta(seconds=10))
def test_main_exits_only_with_documented_codes(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
