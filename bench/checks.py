"""Output correctness gate for benchmark commands.

Two layers of checks.  The golden file holds the exit code and the sha256 of
the stdout of every command that any seed can run (``workloads.pool_commands``),
recorded from the initial engine; each command must match it, and a command
missing from it is a failure.  JSON output is documented as byte-stable, text
output is deterministic.  The invariants below must hold as well; they also
vet outputs before ``make_golden.py`` records them.
"""

from __future__ import annotations

import hashlib
import json

from astheno.exprio import from_record, parse, print_text, to_record

# graded discrepancy rows summed over the ten bundled tables
GRADED_DISCREPANCIES = 19
VERDICT_ZERO = "identically-zero"


def argv_key(argv: list) -> str:
    return hashlib.sha256(json.dumps(argv).encode("utf-8")).hexdigest()[:20]


def stdout_digest(out: str) -> str:
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def _option(argv: list, name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _record_round_trip(record: dict, text: str | None) -> list:
    problems = []
    form = from_record(record)
    if to_record(form) != record:
        problems.append("record does not survive from_record/to_record")
    printed = print_text(form)
    if text is not None and printed != text:
        problems.append("record and its *_text field disagree")
    if parse(printed) != form:
        problems.append("parse(print_text(record)) changes the form")
    return problems


def _check_json(cmd: str, code: int, payload: dict) -> list:
    problems = []
    if cmd == "check":
        if (code == 0) != (payload["verdict"] == VERDICT_ZERO):
            problems.append(f"exit {code} disagrees with verdict {payload['verdict']}")
        problems += _record_round_trip(payload["residual"], payload["residual_text"])
    elif cmd == "eval":
        if code != 0:
            problems.append(f"eval exited {code}")
        problems += _record_round_trip(payload["result"], payload["result_text"])
    elif cmd in ("table", "scan", "verify"):
        if (code == 0) != payload["ok"]:
            problems.append(f"exit {code} disagrees with ok={payload['ok']}")
        if cmd == "verify" and payload["ok"] is not True:
            problems.append("verify reports ok: false")
        if cmd == "table":
            if payload["ok"] != (not payload["discrepancies"]):
                problems.append("ok disagrees with the discrepancy list")
            for row in payload["rows"]:
                for field in ("fixture", "engine", "engine_truncated", "diff"):
                    if to_record(from_record(row[field])) != row[field]:
                        problems.append(f"row {row['row']} {field} record does not round-trip")
        if cmd == "scan":
            if payload["ok"] != all(p["holds"] for p in payload["propositions"]):
                problems.append("ok disagrees with the propositions")
    return problems


def _check_text(cmd: str, code: int, out: str, fmt: str) -> list:
    problems = []
    lines = out.splitlines()
    if cmd == "check":
        verdicts = [ln[len("verdict: "):] for ln in lines if ln.startswith("verdict: ")]
        if len(verdicts) != 1 or (code == 0) != (verdicts[0] == VERDICT_ZERO):
            problems.append(f"exit {code} disagrees with verdict line {verdicts}")
        residual = [ln[len("residual: "):] for ln in lines if ln.startswith("residual: ")]
        if fmt == "text" and residual:
            form = parse(residual[0])
            if print_text(form) != residual[0]:
                problems.append("printed residual does not survive parse/print_text")
    elif cmd == "table":
        reproduced = bool(lines) and lines[-1].startswith("all rows reproduce")
        if (code == 0) != reproduced:
            problems.append(f"exit {code} disagrees with the table summary line")
    elif cmd == "eval":
        if code != 0:
            problems.append(f"eval exited {code}")
        if fmt == "text":
            form = parse(out.strip())
            if print_text(form) != out.strip():
                problems.append("printed result does not survive parse/print_text")
    return problems


class Checker:
    """Checks each command's output and each round's cross-command totals."""

    def __init__(self, golden: dict | None):
        """``golden=None`` checks the invariants only (to vet a golden run)."""
        self.golden = golden

    def command(self, argv: list, code, out: str) -> list:
        """Problems with one command's result; an empty list means correct."""
        if code not in (0, 1):
            return [f"exit code {code!r}"]
        if self.golden is not None:
            expected = self.golden.get(argv_key(argv))
            if expected is None:
                return ["command missing from the golden file"]
            if expected != f"{code}:{stdout_digest(out)}":
                return [f"exit code or stdout differs from the golden run ({expected[:12]})"]
        fmt = _option(argv, "--format", "text")
        try:
            if fmt == "json":
                return _check_json(argv[0], code, json.loads(out))
            return _check_text(argv[0], code, out, fmt)
        except (ValueError, KeyError, TypeError) as exc:
            # json.JSONDecodeError, ParseError and RecordError are ValueErrors
            return [f"output does not check: {type(exc).__name__}: {exc}"]

    def round(self, argvs: list, outs: list) -> list:
        """Indexes of commands that break a cross-command total of the round."""
        graded = [
            (i, out)
            for i, (argv, out) in enumerate(zip(argvs, outs))
            if argv[0] == "table"
            and _option(argv, "--convention") == "graded"
            and _option(argv, "--format") == "json"
        ]
        if len(graded) < 10:
            return []
        try:
            total = sum(len(json.loads(out)["discrepancies"]) for _, out in graded)
        except (ValueError, KeyError, TypeError):
            total = None
        if total == GRADED_DISCREPANCIES:
            return []
        return [i for i, _ in graded]
