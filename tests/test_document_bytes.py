"""Every CLI document is, byte for byte, the json module's text of the same
payload (oracles.json_document), timing_ms included.

Needs neither pytest nor hypothesis, so it also runs as a plain script on
any supported Python:

    PYTHONPATH=src python tests/test_document_bytes.py
"""

import contextlib
import io
import json

from oracles import json_document, jsonable
from simplestfields import cli
from simplestfields.cli import main

# every subcommand, each document status, Fraction entries (dual-basis; the
# integral ones as at n = 5, t = -1 too), a one-class scan, a consistent scan
# (inconsistent_classes []), scans with skipped parameters and chosen
# residues, empty minimality_witnesses {} (the period-1 degrees 3 and 9
# of verify-tables --scope final), and shared bases: 373 members with 15
# distinct bases, a --workers 2 scan whose slices hold equal bases, and a
# modulus below the period (12 for 24), so that classes hold two bases
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
    ["period-scan", "--n", "4", "--modulus", "24", "--t-min", "-200", "--t-max", "200"],
    ["period-scan", "--n", "6", "--modulus", "36", "--t-min", "-150", "--t-max", "150", "--workers", "2"],
    ["period-scan", "--n", "4", "--modulus", "12", "--t-min", "-60", "--t-max", "60"],
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


def test_scan_members_carry_their_own_fingerprints():
    """Every member of a period-scan document shows the fingerprint that
    period_scan gave its t, whichever members share a basis."""
    reports = []
    real = cli.period_scan

    def kept(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    cli.period_scan = kept
    try:
        checked = 0
        for argv in CASES:
            if argv[0] != "period-scan":
                continue
            reports.clear()
            doc = json.loads(cli_stdout(argv)[1])
            if "result" in doc:
                (report,) = reports
                classes = {r: [{"t": t, "den": d, "basis": b} for t, (d, b) in m] for r, m in report.classes.items()}
                assert doc["result"]["classes"] == jsonable(classes), argv
                checked += 1
    finally:
        cli.period_scan = real
    assert checked == 7, checked


def test_each_distinct_basis_is_written_once():
    """The scan of the benchmark's scan8 workload at seed 0 has 931 members
    with 133 distinct bases, and each basis is written once and copied; so
    is each of a --workers 2 scan's 18, though its two slices return equal
    bases as distinct objects."""
    written = []
    real = cli._json

    def counted(x, pad="\n"):
        if type(x) is tuple and x and type(x[0]) is tuple:
            written.append(x)
        return real(x, pad)

    scan8 = ["period-scan", "--n", "8", "--modulus", "432", "--t-min", "-500", "--t-max", "500"]
    workers = ["period-scan", "--n", "6", "--modulus", "36", "--t-min", "-150", "--t-max", "150", "--workers", "2"]
    cli._json = counted
    try:
        for argv, counts in ((scan8, (931, 133)), (workers, (190, 18))):
            written.clear()
            code, out = cli_stdout(argv)
            members = [m for ms in json.loads(out)["result"]["classes"].values() for m in ms]
            assert (code, len(members), len(written), len(set(written))) == (0, *counts, counts[1]), argv
    finally:
        cli._json = real


def test_a_shared_node_is_written_at_each_indentation():
    node = cli._Shared(((2, 0), (1, 1)))
    payload = {"a": node, "b": [node, {"c": node}], "d": node}
    assert cli._json(payload) == json.dumps(jsonable(payload), indent=2)
    assert len(node.texts) == 3


if __name__ == "__main__":
    test_documents_match_the_json_module()
    test_scan_members_carry_their_own_fingerprints()
    test_each_distinct_basis_is_written_once()
    test_a_shared_node_is_written_at_each_indentation()
    print(f"{len(CASES)} documents byte-identical to the json module's text; each distinct scan basis written once")
