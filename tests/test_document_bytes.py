"""Every CLI document is, byte for byte, the json module's text of the same
payload (oracles.json_document), timing_ms included.

Needs neither pytest nor hypothesis, so it also runs as a plain script on
any supported Python:

    PYTHONPATH=src python tests/test_document_bytes.py
"""

import contextlib
import io
import json

from oracles import json_document
from simplestfields.cli import main

# every subcommand, each document status, Fraction entries (dual-basis; the
# integral ones as at n = 5, t = -1 too), a one-class scan, a consistent scan
# (inconsistent_classes []), scans with skipped parameters and chosen
# residues, and empty minimality_witnesses {} (the period-1 degrees 3 and 9
# of verify-tables --scope final)
CASES = [
    ["family", "--n", "3", "--symbolic"],
    ["family", "--n", "5", "--t", "7"],
    ["family", "--n", "1", "--t", "0"],
    ["identities", "--n-max", "4", "--seed", "3", "--trials", "2"],
    ["identities", "--n-max", "2", "--trials", "-1"],
    ["integral-basis", "--n", "4", "--t", "7", "--strategy", "both"],
    ["integral-basis", "--n", "8", "--t", "-5", "--gate", "relaxed"],
    ["integral-basis", "--n", "6", "--t", "5"],
    ["dual-basis", "--n", "2", "--t", "1"],
    ["dual-basis", "--n", "6", "--t", "-2"],
    ["dual-basis", "--n", "5", "--t", "-1"],
    ["period-scan", "--n", "3", "--modulus", "1", "--t-min", "-10", "--t-max", "10"],
    ["period-scan", "--n", "4", "--modulus", "24", "--t-min", "-30", "--t-max", "30"],
    ["period-scan", "--n", "2", "--modulus", "2", "--t-min", "-30", "--t-max", "30"],
    ["period-scan", "--n", "6", "--modulus", "36", "--t-min", "-12", "--t-max", "12", "--residues", "0", "3", "-1"],
    ["period-scan", "--n", "6", "--modulus", "36", "--t-min", "-12", "--t-max", "-12"],
    ["period-scan", "--n", "4", "--modulus", "0", "--t-min", "-5", "--t-max", "5"],
    ["verify-tables", "--scope", "bounds"],
    ["verify-tables", "--scope", "delta", "--samples", "1"],
    ["verify-tables", "--scope", "final", "--t-max", "5", "--classes-12", "2"],
    ["verify-tables", "--scope", "final", "--classes-12", "0"],
]


def cli_stdout(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_documents_match_the_json_module():
    statuses = set()
    for argv in CASES:
        code, out = cli_stdout(argv)
        doc = json.loads(out)
        statuses.add(doc["status"])
        assert out == json_document(argv, doc["timing_ms"]), argv
    assert statuses == {"ok", "fail", "usage-error", "not-covered"}


if __name__ == "__main__":
    test_documents_match_the_json_module()
    print(f"{len(CASES)} documents byte-identical to the json module's text")
