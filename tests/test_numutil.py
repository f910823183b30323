import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from simplestfields import numutil
from simplestfields.numutil import (
    RHO_ITERATION_BUDGET,
    FactoringError,
    factorize,
    is_prime,
    largest_square_root_divisor,
    p_adic_valuation,
    three_free_part,
)

from oracles import full_sieve_factorize


def test_valuation_examples():
    assert p_adic_valuation(21, 7) == 1
    assert p_adic_valuation(1, 5) == 0
    assert p_adic_valuation(27, 3) == 3
    # the specialized quadratic at t=3 for the 3-divisible branch: 3^2+9+9
    assert p_adic_valuation(3 * 3 + 3 * 3 + 9, 3) == 3


def test_valuation_rationals():
    assert p_adic_valuation(Fraction(3, 4), 2) == -2
    assert p_adic_valuation(Fraction(9, 5), 3) == 2


def test_valuation_zero_rejected():
    with pytest.raises(ValueError, match="valuation of zero"):
        p_adic_valuation(0, 5)


@given(
    st.integers(min_value=-(10**6), max_value=10**6).filter(lambda x: x != 0),
    st.integers(min_value=-(10**6), max_value=10**6).filter(lambda x: x != 0),
    st.sampled_from([2, 3, 5, 7, 13]),
)
def test_valuation_multiplicative(x, y, p):
    assert p_adic_valuation(x * y, p) == p_adic_valuation(x, p) + p_adic_valuation(y, p)


def test_valuation_base_below_two_rejected():
    """A base below 2 never divides out to a unit, so it must fail fast
    instead of looping (p = 1, -1) or dividing by zero (p = 0)."""
    for p in (1, 0, -1, -3):
        with pytest.raises(ValueError, match="at least 2"):
            p_adic_valuation(12, p)
        with pytest.raises(ValueError, match="at least 2"):
            p_adic_valuation(Fraction(3, 4), p)


def test_three_free_part():
    assert three_free_part(27) == 1
    assert three_free_part(21) == 7
    assert three_free_part(13) == 13
    assert three_free_part(-18) == -2
    with pytest.raises(ValueError, match="of zero undefined"):
        three_free_part(0)


def test_largest_square_root_divisor_examples():
    assert largest_square_root_divisor(1296) == 36
    assert largest_square_root_divisor(3**4 * 2**8) == 144
    assert largest_square_root_divisor(12) == 2
    with pytest.raises(ValueError, match="must be positive"):
        largest_square_root_divisor(0)


@given(st.integers(min_value=1, max_value=10**7))
def test_largest_square_root_divisor_properties(n):
    c = largest_square_root_divisor(n)
    assert n % (c * c) == 0
    for p in factorize(n):
        assert n % ((c * p) ** 2) != 0


def test_factorize():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(-7) == {7: 1}
    assert factorize(1) == {}
    with pytest.raises(ValueError, match="of zero undefined"):
        factorize(0)
    # past the sieve: exercises the rho fallback
    big = 1_000_003 * 1_000_033
    assert factorize(big) == {1_000_003: 1, 1_000_033: 1}


def _prime_near(x: int, step: int) -> int:
    while not is_prime(x):
        x += step
    return x


def _sieve_edge_inputs() -> list[int]:
    """Prime squares and two-prime products with sqrt(n) on either side of
    each power-of-two sieve size, primes just past the bound, and inputs
    above 10^12 that only Brent-rho splits."""
    inputs = []
    for k in range(2, 21):
        below, above = _prime_near(2**k - 1, -1), _prime_near(2**k + 1, 1)
        inputs += [below * below, above * above, below * above, 2 * below * below, 3 * above]
    p, q, s = _prime_near(1_000_001, 1), _prime_near(1_000_100, 1), _prime_near(1_001_000, 1)
    r = _prime_near(999_999, -1)
    inputs += [p * q, p * p, 6 * p * q, r * p, r * r * p, p * q * s, 2**61 - 1]
    assert max(inputs) > 10**18
    return inputs


def test_factorize_matches_full_sieve_route():
    """The sieve sized to the input gives the factorization of the full
    sieve on the inputs of _sieve_edge_inputs."""
    for n in _sieve_edge_inputs():
        assert factorize(n) == full_sieve_factorize(n), n


def test_rho_budget_is_counted_in_iterations(monkeypatch):
    """Trial division leaves 1_000_003 * 1_000_033 whole, and Brent-rho
    splits it after 1022 charged steps: a budget of 1022 factors it, and
    1021 raises FactoringError naming the 40-bit cofactor.  Every input of
    _sieve_edge_inputs factors within 1/256 of the budget."""
    n = 1_000_003 * 1_000_033
    monkeypatch.setattr(numutil, "RHO_ITERATION_BUDGET", 1022)
    assert factorize(n) == {1_000_003: 1, 1_000_033: 1}
    monkeypatch.setattr(numutil, "RHO_ITERATION_BUDGET", 1021)
    with pytest.raises(FactoringError, match="^no factor of a 40-bit cofactor within 1021 rho iterations$"):
        factorize(n)
    monkeypatch.setattr(numutil, "RHO_ITERATION_BUDGET", RHO_ITERATION_BUDGET // 256)
    for n in _sieve_edge_inputs():
        assert factorize(n) == full_sieve_factorize(n), n


def test_factorize_tests_only_a_sieve_exhausted_cofactor(monkeypatch):
    """Trial division that stops at p^2 > n has proven the cofactor prime, so
    no is_prime runs; a cofactor left when the sieve runs out (15 = 3 * 5 with
    the primes up to 4, or a product of two primes past the bound) is still
    tested, and Brent-rho splits the composite one."""
    calls = []
    real = numutil.is_prime
    monkeypatch.setattr(numutil, "is_prime", lambda m: calls.append(m) or real(m))
    for n, want in ((97, {97: 1}), (6 * 1_000_003, {2: 1, 3: 1, 1_000_003: 1}), (2 * 49, {2: 1, 7: 2})):
        assert factorize(n) == want, n
    assert calls == []
    assert factorize(15) == {3: 1, 5: 1}
    assert calls == [5]
    calls.clear()
    assert factorize(1_000_003 * 1_000_033) == {1_000_003: 1, 1_000_033: 1}
    assert calls[0] == 1_000_003 * 1_000_033 and sorted(calls[1:]) == [1_000_003, 1_000_033]


def test_is_prime():
    assert is_prime(2) and is_prime(97) and is_prime(1_000_003)
    assert not is_prime(1) and not is_prime(91) and not is_prime(561)
