"""The integer-arithmetic kernel (_linalg.factor, _linalg.is_prime) against
the code it replaced.

The reference functions below are the hand-written copies the callers
carried before: Place's trial-division primality, the Moebius-product
cyclotomic polynomial with its own x^k - 1 multiply and divide, and the
trial-division euler_phi, square_class and relevant_places.  They are
kept only as oracles.
"""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthocusp import _linalg as la
from orthocusp.cycles import _cyclotomic_coeffs, euler_phi
from orthocusp.qform import REAL_PLACE, Place, relevant_places, square_class

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


# ---------------------------------------------------------------- reference


def trial_is_prime(p):
    return not (p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)))


def mobius_cyclotomic_coeffs(n):
    """Phi_n = prod_{d | n} (x^d - 1)^{mu(n/d)}, by polynomial division."""
    poly = [1]

    def poly_mul_xk_minus_1(p, k):
        out = [0] * (len(p) + k)
        for i, c in enumerate(p):
            out[i + k] += c
            out[i] -= c
        return out

    def poly_div_xk_minus_1(p, k):
        out = [0] * (len(p) - k)
        rem = list(p)
        for i in range(len(p) - k - 1 + 1)[::-1]:
            c = rem[i + k]
            out[i] = c
            rem[i + k] -= c
            rem[i] += c
        if any(rem):
            raise ArithmeticError(f"x^{k} - 1 does not divide the polynomial exactly")
        return out

    def mobius(n):
        out = 1
        d = 2
        while d * d <= n:
            if n % d == 0:
                n //= d
                if n % d == 0:
                    return 0
                out = -out
            d += 1
        if n > 1:
            out = -out
        return out

    mults = []
    divs = []
    for d in range(1, n + 1):
        if n % d == 0:
            mu = mobius(n // d)
            if mu == 1:
                mults.append(d)
            elif mu == -1:
                divs.append(d)
    for d in mults:
        poly = poly_mul_xk_minus_1(poly, d)
    for d in divs:
        poly = poly_div_xk_minus_1(poly, d)
    return poly


def loop_euler_phi(n):
    out = n
    d = 2
    m = n
    while d * d <= m:
        if m % d == 0:
            out -= out // d
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out -= out // m
    return out


def loop_square_class(a):
    a = Fraction(a)
    if a == 0:
        return 0
    n = a.numerator * a.denominator
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            out *= d
        d += 1
    return sign * out * n


def loop_relevant_places(a, b):
    a, b = Fraction(a), Fraction(b)
    n = abs(2 * a.numerator * a.denominator * b.numerator * b.denominator)
    primes = set()
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.add(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.add(n)
    return [REAL_PLACE] + [Place(p) for p in sorted(primes)]


# ---------------------------------------------------------------- properties


def test_is_prime_matches_trial_division():
    assert [n for n in range(200_000) if la.is_prime(n)] == \
        [n for n in range(200_000) if trial_is_prime(n)]


@pytest.mark.parametrize("n", [
    3215031751,                 # strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,        # ... to the prime bases up to 31
    318665857834031151167461,   # ... to the prime bases up to 37
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not la.is_prime(n)


def test_is_prime_on_large_primes_and_at_the_bound():
    assert la.is_prime(2**61 - 1) and la.is_prime(2**31 - 1)
    assert not la.is_prime((2**19 - 1) * (2**61 - 1))
    with pytest.raises(ValueError, match="below 3317044064679887385961981"):
        la.is_prime(3317044064679887385961981)
    with pytest.raises(ValueError):
        Place(10**400)


def test_cyclotomic_and_phi_match_moebius_and_loop():
    for n in range(1, 401):
        assert list(_cyclotomic_coeffs(n)) == mobius_cyclotomic_coeffs(n), n
        assert euler_phi(n) == loop_euler_phi(n) == len(_cyclotomic_coeffs(n)) - 1, n


@PROPERTY
@given(st.integers(-10**9, 10**9))
def test_factor_rebuilds_the_integer(n):
    f = la.factor(n)
    assert all(trial_is_prime(p) and e > 0 for p, e in f.items())
    assert prod(p ** e for p, e in f.items()) == (abs(n) or 1)


@PROPERTY
@given(st.fractions(-10**5, 10**5, max_denominator=10**3))
def test_square_class_matches_loop(a):
    assert square_class(a) == loop_square_class(a)


small_rationals = st.fractions(-100, 100, max_denominator=50)


@PROPERTY
@given(small_rationals, small_rationals)
def test_relevant_places_match_loop(a, b):
    assert relevant_places(a, b) == loop_relevant_places(a, b)
