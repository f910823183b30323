"""The fixed output as a standing test: every argv of CASES, run through
cli.main in this process, exits with the code and writes the document whose
digest tests/golden_documents.json records.

The digest is perfbench/worker.py's: sha256 of the document without
timing_ms, as compact JSON with sorted keys, so it does not depend on the
interpreter version.  CASES covers every subcommand and verify-tables
scope, both strategies and gates, --workers 2, n = 2..12, f(0) = 0
(n = 4, t = 0), gate-rejected parameters, a parameter whose Q(t) factoring
cannot split within its budget, the --classes-12 edge cases and every exit
code: 0 ok, 1 fail, 2 usage-error, 3 not-covered, and 4 where
the reader of stdout is gone (CLOSED_STDOUT).

A change that alters a document on purpose rewrites the table with

    PYTHONPATH=src python tests/write_golden_documents.py

and says so; the test then pins the new documents.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from simplestfields import cli

TABLE = Path(__file__).resolve().parent / "golden_documents.json"

# the argv run with a stdout whose reader has gone (exit 4)
CLOSED_STDOUT = ["period-scan", "--n", "4", "--modulus", "24", "--t-min", "-30", "--t-max", "30"]

CASES = [
    ["family", "--n", "3", "--symbolic"],
    ["family", "--n", "12"],
    ["family", "--n", "5", "--t", "7"],
    ["family", "--n", "9", "--t", "-4"],
    ["family", "--n", "1", "--t", "0"],
    ["identities", "--n-max", "12", "--seed", "1"],
    ["identities", "--n-max", "2", "--trials", "-1"],
    ["integral-basis", "--n", "2", "--t", "-29", "--strategy", "both"],
    ["integral-basis", "--n", "3", "--t", "7", "--strategy", "both"],
    ["integral-basis", "--n", "4", "--t", "7", "--strategy", "both"],
    ["integral-basis", "--n", "4", "--t", "0"],
    ["integral-basis", "--n", "4", "--t", "0", "--gate", "relaxed"],
    ["integral-basis", "--n", "5", "--t", "-29", "--strategy", "both"],
    ["integral-basis", "--n", "6", "--t", "7", "--strategy", "enumerate"],
    ["integral-basis", "--n", "6", "--t", "12", "--gate", "relaxed", "--strategy", "both"],
    ["integral-basis", "--n", "6", "--t", "12"],
    ["integral-basis", "--n", "6", "--t", "-6", "--gate", "relaxed"],
    ["integral-basis", "--n", "7", "--t", "3", "--strategy", "both"],
    ["integral-basis", "--n", "8", "--t", "-5", "--gate", "relaxed"],
    ["integral-basis", "--n", "8", "--t", "12", "--strategy", "both"],
    ["integral-basis", "--n", "9", "--t", "4"],
    ["integral-basis", "--n", "10", "--t", "-7", "--strategy", "both"],
    ["integral-basis", "--n", "11", "--t", "2", "--strategy", "both"],
    ["integral-basis", "--n", "12", "--t", "7", "--strategy", "both"],
    ["integral-basis", "--n", "12", "--t", "-10", "--gate", "relaxed"],
    ["integral-basis", "--n", "12", "--t", "5"],
    ["integral-basis", "--n", "1", "--t", "3"],
    ["integral-basis", "--n", "5", "--t", "98765432109876543210987654321098765"],
    ["dual-basis", "--n", "2", "--t", "1"],
    ["dual-basis", "--n", "3", "--t", "-2"],
    ["dual-basis", "--n", "4", "--t", "0"],
    ["dual-basis", "--n", "5", "--t", "-1"],
    ["dual-basis", "--n", "6", "--t", "-2"],
    ["dual-basis", "--n", "7", "--t", "9"],
    ["dual-basis", "--n", "8", "--t", "3"],
    ["dual-basis", "--n", "10", "--t", "-3"],
    ["dual-basis", "--n", "12", "--t", "5"],
    ["dual-basis", "--n", "13", "--t", "1"],
    ["period-scan", "--n", "2", "--modulus", "4", "--t-min", "-40", "--t-max", "40"],
    ["period-scan", "--n", "3", "--modulus", "1", "--t-min", "-10", "--t-max", "10"],
    ["period-scan", "--n", "3", "--modulus", "1", "--t-min", "-30", "--t-max", "30", "--gate", "relaxed"],
    ["period-scan", "--n", "4", "--modulus", "24", "--t-min", "-200", "--t-max", "200"],
    ["period-scan", "--n", "4", "--modulus", "12", "--t-min", "-60", "--t-max", "60"],
    ["period-scan", "--n", "4", "--modulus", "24", "--t-min", "-40", "--t-max", "40", "--strategy", "enumerate"],
    ["period-scan", "--n", "5", "--modulus", "75", "--t-min", "-160", "--t-max", "160"],
    ["period-scan", "--n", "6", "--modulus", "36", "--t-min", "-150", "--t-max", "150", "--workers", "2"],
    ["period-scan", "--n", "6", "--modulus", "36", "--t-min", "-80", "--t-max", "80", "--gate", "relaxed"],
    ["period-scan", "--n", "6", "--modulus", "36", "--t-min", "-12", "--t-max", "12", "--residues", "0", "3", "-1"],
    ["period-scan", "--n", "6", "--modulus", "4", "--t-min", "-11", "--t-max", "11"],
    ["period-scan", "--n", "7", "--modulus", "441", "--t-min", "-30", "--t-max", "30"],
    ["period-scan", "--n", "8", "--modulus", "432", "--t-min", "-500", "--t-max", "500"],
    ["period-scan", "--n", "8", "--modulus", "216", "--t-min", "-200", "--t-max", "200"],
    ["period-scan", "--n", "9", "--modulus", "1", "--t-min", "-20", "--t-max", "20"],
    ["period-scan", "--n", "10", "--modulus", "8100", "--t-min", "-15", "--t-max", "15"],
    ["period-scan", "--n", "11", "--modulus", "9801", "--t-min", "-12", "--t-max", "12"],
    ["period-scan", "--n", "12", "--modulus", "1944", "--t-min", "-4000", "--t-max", "4000", "--residues", "1", "2", "4"],
    ["period-scan", "--n", "12", "--modulus", "1944", "--t-min", "-4000", "--t-max", "4000", "--residues"]
    + [str(r) for r in range(12)],
    ["period-scan", "--n", "6", "--modulus", "36", "--t-min", "-12", "--t-max", "-12"],
    ["period-scan", "--n", "4", "--modulus", "0", "--t-min", "-5", "--t-max", "5"],
    ["period-scan", "--n", "4", "--modulus", "24", "--t-min", "5", "--t-max", "-5"],
    ["period-scan", "--n", "4", "--modulus", "24", "--t-min", "0", "--t-max", "9", "--workers", "0"],
    ["verify-tables", "--scope", "bounds"],
    ["verify-tables", "--scope", "delta", "--samples", "1"],
    ["verify-tables", "--scope", "delta", "--samples", "0"],
    ["verify-tables", "--scope", "final", "--t-max", "5", "--classes-12", "2"],
    ["verify-tables", "--scope", "final", "--t-max", "5", "--classes-12", "2", "--workers", "2"],
    ["verify-tables", "--scope", "final", "--classes-12", "1"],
    ["verify-tables", "--scope", "final", "--classes-12", "0"],
    ["verify-tables", "--scope", "all", "--t-max", "10", "--samples", "2"],
    ["verify-tables", "--scope", "all", "--classes-12", "1"],
]


def digest(doc: dict) -> str:
    """sha256 of the CLI document without its timing_ms field."""
    body = {k: v for k, v in doc.items() if k != "timing_ms"}
    return hashlib.sha256(json.dumps(body, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


class _ClosedReader(io.StringIO):
    """A stdout whose reader has gone: each write keeps its text and raises
    BrokenPipeError, as a write to a closed pipe does; fileno() is a file
    descriptor that cli.main may point at devnull."""

    def __init__(self):
        super().__init__()
        self.fd = os.open(os.devnull, os.O_WRONLY)

    def write(self, s):
        super().write(s)
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def run(argv: list[str], closed: bool = False) -> tuple[int, str]:
    """(exit code, digest of the document) of one CLI run in this process;
    closed runs it with a stdout whose reader has gone."""
    out = _ClosedReader() if closed else io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        if closed:
            os.close(out.fd)
    return code, digest(json.loads(out.getvalue()))


def rows() -> list[dict]:
    """The table as the current code writes it: one row per argv of CASES,
    then the CLOSED_STDOUT run."""
    out = []
    for argv, closed in [(argv, False) for argv in CASES] + [(CLOSED_STDOUT, True)]:
        code, sha = run(argv, closed)
        out.append({"argv": argv, "closed_stdout": closed, "exit": code, "sha256": sha})
    return out


def test_documents_match_the_golden_table():
    table = json.loads(TABLE.read_text())
    assert [(row["argv"], row["closed_stdout"]) for row in table] == [(argv, False) for argv in CASES] + [
        (CLOSED_STDOUT, True)
    ], "CASES and the table differ: rewrite the table (tests/write_golden_documents.py)"
    got = rows()
    differ = [(want["argv"], (want["exit"], got_row["exit"])) for want, got_row in zip(table, got) if want != got_row]
    assert not differ, differ
    assert {row["exit"] for row in table} == {0, 1, 2, 3, 4}
