import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import json_document
from simplestfields import cli, numutil, periodicity
from simplestfields.cli import EXIT_OUTPUT_CLOSED, main
from simplestfields.numberfield import number_field, quadratic_factorization
from simplestfields.periodicity import period_scan

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_family_symbolic(capsys):
    code, doc = run_cli(capsys, ["family", "--n", "3", "--symbolic"])
    assert code == 0
    assert doc["schema"] == "simplest-fields/1"
    assert doc["result"]["family_coeffs_in_m"] == [["-1"], ["-3", "-3"], ["0", "-3"], ["1"]]


def test_family_specialized(capsys):
    code, doc = run_cli(capsys, ["family", "--n", "3", "--t", "1"])
    assert code == 0
    assert doc["result"]["family_coeffs"] == ["-1", "-4", "-1", "1"]
    assert doc["result"]["m_rule"] == "t/3"
    code, doc = run_cli(capsys, ["family", "--n", "0", "--symbolic"])
    assert code == 0
    assert doc["result"]["family_coeffs_in_m"] == [["1"]]


def test_identities_subcommand(capsys):
    code, doc = run_cli(capsys, ["identities", "--n-max", "4", "--seed", "42", "--trials", "3"])
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["result"]["failures"] == []


def test_integral_basis_subcommand(capsys):
    code, doc = run_cli(capsys, ["integral-basis", "--n", "3", "--t", "1"])
    assert code == 0
    order = doc["result"]["orders"]["radical"]
    assert order["den"] == "1"
    assert order["index"] == "1"
    assert order["basis"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def test_integral_basis_both_strategies(capsys):
    code, doc = run_cli(capsys, ["integral-basis", "--n", "4", "--t", "7", "--strategy", "both"])
    assert code == 0
    assert doc["result"]["strategies_agree"] is True
    assert doc["result"]["orders"]["enumerate"] == doc["result"]["orders"]["radical"]


def test_uncovered_parameter_exit_code(capsys):
    code = main(["integral-basis", "--n", "6", "--t", "5"])
    out = capsys.readouterr().out
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "not-covered"
    assert "not squarefree" in doc["error"]


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["integral-basis", "--n", "3"])  # missing --t
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, code, status",
    [
        (["family", "--n", "3", "--t", "1"], 0, "ok"),
        (["period-scan", "--n", "2", "--modulus", "2", "--t-min", "-30", "--t-max", "30"], 1, "fail"),
        (["family", "--n", "1", "--t", "0"], 2, "usage-error"),
        (["integral-basis", "--n", "1", "--t", "0"], 2, "usage-error"),
        (["period-scan", "--n", "4", "--modulus", "0", "--t-min", "-5", "--t-max", "5"], 2, "usage-error"),
        (["integral-basis", "--n", "6", "--t", "5"], 3, "not-covered"),
        (["period-scan", "--n", "4", "--modulus", "24", "--t-min", "5", "--t-max", "-5"], 2, "usage-error"),
        (["period-scan", "--n", "4", "--modulus", "24", "--t-min", "-5", "--t-max", "5", "--workers", "0"], 2, "usage-error"),
        (["period-scan", "--n", "4", "--modulus", "24", "--t-min", "0", "--t-max", "10", "--residues"], 2, "usage-error"),
        (["period-scan", "--n", "6", "--modulus", "36", "--t-min", "-12", "--t-max", "-12"], 3, "not-covered"),
        (["verify-tables", "--scope", "delta", "--samples", "-2"], 2, "usage-error"),
        (["verify-tables", "--scope", "delta", "--samples", "0"], 2, "usage-error"),
        (["verify-tables", "--scope", "final", "--classes-12", "0"], 2, "usage-error"),
        (["identities", "--n-max", "2", "--trials", "-1"], 2, "usage-error"),
    ],
)
def test_exit_code_and_document(capsys, argv, code, status):
    got, doc = run_cli(capsys, argv)
    assert got == code
    assert doc["status"] == status
    assert doc["command"]["subcommand"] == argv[0]
    assert doc["timing_ms"] >= 0
    assert ("error" in doc) == (code >= 2)
    assert ("result" in doc) == (code < 2)


def test_family_refuses_a_negative_degree(capsys):
    code, doc = run_cli(capsys, ["family", "--n", "-2"])
    assert (code, doc["status"], doc["error"]) == (2, "usage-error", "degree must be nonnegative")


def test_verify_tables_delta_reports_each_failure(capsys, monkeypatch):
    """With the exponent of 3 at n = 5 lowered from 3 to 2 the delta scope
    fails (exit 1): the symbolic front 135 and the sampled lcms 135 * Q(t)
    at t = 2, 3 disagree with the table's 45 and 45 * Q(t)."""
    monkeypatch.setitem(periodicity.DUAL_DENOMINATOR_EXPONENT, 5, 2)
    code, doc = run_cli(capsys, ["verify-tables", "--scope", "delta", "--samples", "2"])
    assert (code, doc["status"]) == (1, "fail")
    assert doc["result"]["dual_denominator_table"] == {
        "ok": False,
        "checked": "33",
        "failures": [["5", "symbolic", ["135", "1"], ["45", "1"]], ["5", "2", "945", "315"], ["5", "3", "1755", "585"]],
    }


@pytest.mark.parametrize("scope", ["final", "all"])
def test_classes_12_with_no_populated_class_is_a_usage_error(capsys, monkeypatch, scope):
    """--classes-12 1 scans only residue 0 mod 1944, where 3 | t forces
    9 | Q(t), so the strict gate passes none of its parameters: a usage
    error, raised before any table check or scan.  Residue 1 has 9 not
    dividing Q(1), so --classes-12 2 goes on to the checks."""

    def refused(*args, **kwargs):
        raise AssertionError("a check ran before the usage error")

    monkeypatch.setattr(cli, "period_scan", refused)
    monkeypatch.setattr(cli, "check_dual_denominator_table", refused)
    code, doc = run_cli(capsys, ["verify-tables", "--scope", scope, "--t-max", "10", "--classes-12", "1"])
    assert (code, doc["status"]) == (2, "usage-error")
    assert "9 | Q(r)" in doc["error"]
    with pytest.raises(AssertionError, match="a check ran"):
        main(["verify-tables", "--scope", scope, "--t-max", "10", "--classes-12", "2"])


def test_error_documents_go_to_out_file(tmp_path, capsys):
    for argv, status in [
        (["integral-basis", "--n", "6", "--t", "5"], "not-covered"),
        (["family", "--n", "1", "--t", "0"], "usage-error"),
    ]:
        path = tmp_path / f"{status}.json"
        main(argv + ["--out", str(path)])
        assert capsys.readouterr().out == ""
        doc = json.loads(path.read_text())
        assert doc["status"] == status
        assert doc["command"]["n"] == argv[2]


def test_dual_basis_subcommand(capsys):
    code, doc = run_cli(capsys, ["dual-basis", "--n", "2", "--t", "1"])
    assert code == 0
    assert doc["result"]["denominator"] == "6"
    assert doc["result"]["matrix"][0][0] == {"num": "2", "den": "3"}
    assert doc["result"]["denominator_law_ok"] is True


def test_period_scan_subcommand_and_failure_exit(capsys):
    code, doc = run_cli(
        capsys, ["period-scan", "--n", "2", "--modulus", "4", "--t-min", "-30", "--t-max", "30"]
    )
    assert code == 0
    assert doc["result"]["consistent"] is True
    code, doc = run_cli(
        capsys, ["period-scan", "--n", "2", "--modulus", "2", "--t-min", "-30", "--t-max", "30"]
    )
    assert code == 1
    assert doc["status"] == "fail"
    assert doc["result"]["consistent"] is False


def test_verify_tables_bounds_scope(capsys):
    code, doc = run_cli(capsys, ["verify-tables", "--scope", "bounds"])
    assert code == 0
    rows = doc["result"]["bound_chain"]["rows"]
    assert {r["n"]: r["final"] for r in rows} == {
        "2": "4", "3": "1", "4": "24", "5": "75", "6": "36", "8": "432", "9": "1", "12": "1944",
    }


def test_verify_tables_delta_scope(capsys):
    code, doc = run_cli(capsys, ["verify-tables", "--scope", "delta", "--samples", "2"])
    assert code == 0
    assert doc["result"]["dual_denominator_table"]["ok"] is True


def test_deterministic_output(capsys):
    argv = ["identities", "--n-max", "3", "--seed", "9", "--trials", "2"]
    code1, doc1 = run_cli(capsys, argv)
    code2, doc2 = run_cli(capsys, argv)
    doc1.pop("timing_ms")
    doc2.pop("timing_ms")
    assert code1 == code2 == 0
    assert doc1 == doc2


def test_worker_count_does_not_change_payload(capsys):
    base = ["period-scan", "--n", "4", "--modulus", "24", "--t-min", "-40", "--t-max", "40"]
    _, doc1 = run_cli(capsys, base + ["--workers", "1"])
    _, doc2 = run_cli(capsys, base + ["--workers", "3"])
    doc1.pop("timing_ms")
    doc2.pop("timing_ms")
    doc1["command"].pop("workers")
    doc2["command"].pop("workers")
    assert doc1 == doc2


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    """An --out path in a missing directory, or a directory itself, gives a
    usage-error document on stdout that names the path, and exit 2."""
    for path in (tmp_path / "missing" / "x.json", tmp_path):
        code, doc = run_cli(capsys, ["family", "--n", "4", "--out", str(path)])
        assert code == 2
        assert doc["status"] == "usage-error"
        assert str(path) in doc["error"]
        assert "result" not in doc and doc["command"]["n"] == "4"
    assert list(tmp_path.iterdir()) == []


def _mask_timing(text: str) -> str:
    return re.sub(r'^  "timing_ms": .*$', '  "timing_ms": ...', text, flags=re.M)


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["family", "--n", "2", "--symbolic", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["schema"] == "simplest-fields/1"
    for argv in (
        ["period-scan", "--n", "4", "--modulus", "24", "--t-min", "-20", "--t-max", "20"],
        ["dual-basis", "--n", "3", "--t", "2"],
    ):
        assert main(argv + ["--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert stdout.endswith("}\n") and _mask_timing(path.read_text()) == _mask_timing(stdout)


_N = st.one_of(st.integers(2, 6), st.integers(-2, 1)).map(str)


@st.composite
def _small_argv(draw):
    """A small command line for integral-basis, period-scan or verify-tables
    --scope delta, zero and negative values included: n <= 6, |t| <= 12.
    Rarely --n is not an integer, which argparse rejects on its own."""
    n = draw(st.one_of(_N, st.just("x")) if draw(st.integers(0, 9)) == 0 else _N)
    command = draw(st.sampled_from(["integral-basis", "period-scan", "period-scan", "verify-tables"]))
    if command == "integral-basis":
        return [command, "--n", n, "--t", str(draw(st.integers(-12, 12)))]
    if command == "verify-tables":
        return [command, "--scope", "delta", "--samples", str(draw(st.integers(-2, 2)))]
    t_min = draw(st.integers(-12, 12))
    t_max = min(12, t_min + draw(st.integers(-2, 6)))  # a short range, sometimes empty
    workers = draw(st.one_of(st.just(1), st.integers(-1, 2)))
    argv = [command, "--n", n, "--modulus", str(draw(st.integers(-2, 40))),
            "--t-min", str(t_min), "--t-max", str(t_max), "--workers", str(workers)]
    if draw(st.booleans()):
        argv += ["--residues"] + [str(r) for r in draw(st.lists(st.integers(-5, 40), max_size=3))]
    return argv


def _fields_checked(doc) -> int:
    result = doc["result"]
    if doc["command"]["subcommand"] == "integral-basis":
        return len(result["orders"])
    if doc["command"]["subcommand"] == "period-scan":
        return sum(len(members) for members in result["classes"].values())
    return int(result["dual_denominator_table"]["checked"])


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_small_argv())
def test_cli_contract_on_small_arguments(capsys, argv):
    """Every outcome is a documented exit code with a JSON document (argparse's
    own exit 2 aside) that is byte for byte the json module's text of the
    same payload, and `ok` means at least one field or entry was checked."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        assert exc.code == 2
        assert capsys.readouterr().out == ""
        return
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert out == json_document(argv, doc["timing_ms"])  # byte for byte the json module's text
    assert code in (0, 1, 2, 3)
    assert doc["status"] == {0: "ok", 1: "fail", 2: "usage-error", 3: "not-covered"}[code]
    if code == 0:
        assert _fields_checked(doc) >= 1
        if argv[0] == "verify-tables":  # the symbolic entry and every sample, per degree
            assert _fields_checked(doc) == 11 * (1 + int(argv[-1]))


def test_closed_stdout_exits_without_traceback():
    """A reader that takes 10 bytes of a 294 KB period-scan document and
    closes the pipe, as `| head -c 10` does, ends the CLI with exit code 4
    and nothing on stderr."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    argv = ["period-scan", "--n", "4", "--modulus", "24", "--t-min", "-300", "--t-max", "300"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "simplestfields.cli", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_OUTPUT_CLOSED == 4
    assert head == b'{\n  "schem' and err == b""


def test_unfactorable_parameter_is_not_covered():
    """At n = 5, t = 98765432109876543210987654321098765 trial division
    leaves a 215-bit composite cofactor of Q(t) that Brent-rho does not
    split within its budget: the CLI answers not-covered (exit 3) with that
    reason, in well under 30 s, where it once searched without end."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    argv = ["integral-basis", "--n", "5", "--t", "98765432109876543210987654321098765"]
    started = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "simplestfields.cli", *argv], env=env, capture_output=True, timeout=30)
    assert time.monotonic() - started < 30
    doc = json.loads(proc.stdout)
    assert (proc.returncode, doc["status"], proc.stderr) == (3, "not-covered", b"")
    assert doc["error"].endswith("is not factored: no factor of a 215-bit cofactor within 2097152 rho iterations")


def test_parameter_on_each_side_of_the_rho_budget(monkeypatch, capsys):
    """At n = 5, Q(3000353) = 2394913 * 3758851 is left whole by trial
    division, and Brent-rho splits it after 4094 charged steps.  With a
    budget of 4093 the field is not-covered (exit 3) and a scan puts t in
    skipped with that reason, as it does a gate-rejected t; with 4094 the
    field answers and the scan keeps t."""
    argv = ["integral-basis", "--n", "5", "--t", "3000353"]
    for budget, code, status in ((4093, 3, "not-covered"), (4094, 0, "ok")):
        monkeypatch.setattr(numutil, "RHO_ITERATION_BUDGET", budget)
        quadratic_factorization.cache_clear()
        number_field.cache_clear()
        got, doc = run_cli(capsys, argv)
        assert (got, doc["status"]) == (code, status), budget
        quadratic_factorization.cache_clear()
        skipped = dict(period_scan(5, 75, range(3000352, 3000355)).skipped)
        if code:
            reason = "Q(t) = 9002121124963 is not factored: no factor of a 44-bit cofactor within 4093 rho iterations"
            assert doc["error"] == skipped[3000353] == reason
        else:
            assert 3000353 not in skipped
    quadratic_factorization.cache_clear()


def test_unfactorable_modulus_is_not_covered(monkeypatch, capsys):
    """A period scan factors its modulus for the minimality witnesses: a
    modulus that Brent-rho cannot split within its budget ends the run
    not-covered (exit 3), with the cofactor's size, not in a traceback."""
    monkeypatch.setattr(numutil, "RHO_ITERATION_BUDGET", 1021)
    argv = ["period-scan", "--n", "4", "--modulus", str(1_000_003 * 1_000_033), "--t-min", "0", "--t-max", "5"]
    code, doc = run_cli(capsys, argv)
    assert (code, doc["status"]) == (3, "not-covered")
    assert doc["error"] == "modulus 1000036000099 is not factored: no factor of a 40-bit cofactor within 1021 rho iterations"
