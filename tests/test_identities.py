"""Every identity check can fail: fed a false identity it returns a message
naming the degree where the identity breaks, and the identities command
reports that message with status fail and exit code 1.  The telescoped
shifted companion matches the sum of its n products."""

import json

from simplestfields import identities
from simplestfields.cli import main
from simplestfields.family import companion_poly, family_poly, quadratic_remainder
from simplestfields.identities import (
    check_companion_at_cube_root,
    check_companion_shift_identity,
    check_quadratic_remainder_scaling,
    check_recursions,
    check_transform_identity,
    shifted_companion_poly,
)
from simplestfields.poly import Poly

from oracles import summed_shifted_companion_poly


def _bumped(real, at: int, by):
    """real, with by added to its value at degree at."""
    return lambda n: real(n) + by if n == at else real(n)


def test_recursion_checks_fail_on_a_false_family(monkeypatch):
    """Each of the four identities of check_recursions has its own failure:
    a family member off by 1, a companion member off by 1, the recursions run
    from the seed F_0 = X instead of 1 (both recursions hold, the derivative
    rule does not), and the reflection X -> X in place of X -> -X - 1."""
    with monkeypatch.context() as patch:
        patch.setattr(identities, "family_poly", _bumped(family_poly, 3, Poly.const(Poly.const(1))))
        assert check_recursions(5) == "family recursion fails at n=2"
    with monkeypatch.context() as patch:
        patch.setattr(identities, "companion_poly", _bumped(companion_poly, 3, 1))
        assert check_recursions(5) == "companion recursion fails at n=2"
    x = Poly([Poly(), Poly.const(1)])  # X over the ring of m-polynomials
    m = Poly.const(Poly([0, 1]))
    seeded_family = {0: x, 1: (x - m) * x}
    seeded_companion = {0: Poly(), 1: Poly([0, -1])}  # R_1 = (X + m + 1) * R_0 - F_0 = -X
    with monkeypatch.context() as patch:
        patch.setattr(identities, "family_poly", seeded_family.__getitem__)
        patch.setattr(identities, "companion_poly", seeded_companion.__getitem__)
        assert check_recursions(1) == "derivative rule fails at n=0"
    with monkeypatch.context() as patch:
        patch.setattr(identities, "_substitute_neg", lambda p: p)
        assert check_recursions(5) == "reflection identity fails at n=2"
    assert check_recursions(5) is None


def test_sampled_and_cyclotomic_checks_fail_on_a_false_companion(monkeypatch):
    monkeypatch.setattr(identities, "companion_poly", _bumped(companion_poly, 3, 1))
    assert check_transform_identity(3, [0, 1, 2], [1, 2, 3, 4]) == "transform identity fails at n=3, m=0, alpha=1"
    assert check_transform_identity(2, [0, 1, 2], [1, 2, 3]) is None
    assert check_companion_at_cube_root(6) == "cube-root evaluation fails at n=3"
    assert check_companion_at_cube_root(2) is None
    monkeypatch.setattr(identities, "quadratic_remainder", _bumped(quadratic_remainder, 14, 1))
    assert check_quadratic_remainder_scaling(2) == "quadratic remainder scaling fails at n=2"
    assert check_quadratic_remainder_scaling(3) is None
    assert check_companion_shift_identity(3, companion_poly(3) + 1) == "shifted-companion identity fails at n=3"
    assert check_companion_shift_identity(3, companion_poly(3)) is None


def test_identities_command_reports_each_failing_check(monkeypatch, capsys):
    """With R_2 off by 1 (and remainder(14) with it) every item that reads
    R_2 fails, each moved check with its own message."""
    monkeypatch.setattr(identities, "companion_poly", _bumped(companion_poly, 2, 1))
    monkeypatch.setattr(identities, "quadratic_remainder", _bumped(quadratic_remainder, 14, 1))
    code = main(["identities", "--n-max", "3", "--seed", "1", "--trials", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert (code, doc["status"]) == (1, "fail")
    assert [(f["name"], f["detail"]) for f in doc["result"]["failures"]] == [
        ("recursions+derivative+reflection", "companion recursion fails at n=1"),
        ("transform-identity n=2", "transform identity fails at n=2, m=-38, alpha=-3/2"),
        ("companion-at-cube-root", "cube-root evaluation fails at n=2"),
        ("quadratic-remainder-scaling n=2", "quadratic remainder scaling fails at n=2"),
        ("companion-root n=2", ""),
        ("shifted-companion n=2", "shifted-companion identity fails at n=2"),
        ("companion-quadratic-resultant n=2", ""),
    ] + [("companion-family-resultant n=2", f"m={m}") for m in ("-5/3", "3/2", "5/7", "4", "28/9")]


def test_shifted_companion_telescopes():
    """The telescoped (X^n - (X - s)^n) / s is the sum of its n products."""
    for n in range(1, 19):
        assert shifted_companion_poly(n).coeffs == summed_shifted_companion_poly(n).coeffs, n
