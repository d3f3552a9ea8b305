"""The integer-arithmetic kernel (_linalg.factor, _linalg.is_prime) and the
integer pairings and signatures against the code they replaced.

The reference functions below are the hand-written copies the callers
carried before: Place's trial-division primality, the Moebius-product
cyclotomic polynomial with its own x^k - 1 multiply and divide, and the
trial-division euler_phi, square_class and relevant_places.  Beside them
are the Fraction paths that integer ones replaced: the signature counted
from qform.diagonalize's Fraction congruence, the form evaluated on
Fraction coordinates, fixed_sublattice scanning every divisor of the
order, and restriction_matrix solving for one image at a time.  They are
kept only as oracles.
"""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthocusp import _linalg as la
from orthocusp.cycles import (
    FixedLocusReport,
    _canonical_exponent,
    _cyclotomic_coeffs,
    _divisors,
    _int_identity,
    enumerate_isometries,
    euler_phi,
    fixed_sublattice,
    restriction_matrix,
)
from orthocusp.errors import DegenerateForm, NoPositiveEigenplane, NotRootOfUnity
from orthocusp.qform import (
    REAL_PLACE,
    Place,
    QuadraticLattice,
    diagonalize,
    int_signature,
    orthogonal_complement_basis,
    relevant_places,
    signature,
    square_class,
)

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


def diagonalize_signature(B):
    """(r, s) counted from the Fraction congruence diagonalize runs."""
    diag, _ = diagonalize(QuadraticLattice(B))
    r = sum(1 for d in diag if d > 0)
    return r, len(diag) - r


def signature_outcome(fn, B):
    try:
        return fn(B)
    except DegenerateForm as e:
        return "DegenerateForm", str(e)


def full_scan_fixed_sublattice(g, L):
    """fixed_sublattice scanning every divisor of the order, each block's
    signature from a Fraction lattice, the matrix polynomial by mat_add."""
    if g.order is None:
        raise NotRootOfUnity("isometry must have finite order")
    coeffs = {m: _cyclotomic_coeffs(m) for m in _divisors(g.order)}
    powers = [_int_identity(len(g.mat))]
    while len(powers) < max(map(len, coeffs.values())):
        powers.append(la.mat_mul(powers[-1], g.mat))
    chosen = None
    for m, cs in coeffs.items():
        P = la.mat_scale(0, powers[0])
        for c, p in zip(coeffs[m], powers):
            P = la.mat_add(P, la.mat_scale(c, p))
        ker = la.kernel_int(P)
        if not ker:
            continue
        r, _ = diagonalize_signature([[L.bilinear(a, b) for b in ker] for a in ker])
        if r == 2:
            if chosen is not None:
                raise NoPositiveEigenplane("positive plane is not unique")
            chosen = (m, ker)
    if chosen is None:
        raise NoPositiveEigenplane("no cyclotomic factor carries a signature-(2,*) subspace")
    m, s_basis = chosen
    perp = orthogonal_complement_basis(L, s_basis)
    return FixedLocusReport(
        s_basis=tuple(s_basis),
        s_perp_basis=tuple(perp),
        defining_equations=tuple(tuple(la.mat_vec(L.gram, y)) for y in perp),
        r_tau=m,
        lambda_exponent=_canonical_exponent(m),
    )


def solve_each_restriction_matrix(g_mat, basis):
    """restriction_matrix with one la.solve per basis image."""
    cols = []
    for img in [la.mat_vec(g_mat, v) for v in basis]:
        sol = la.solve(la.transpose(basis), img)
        if sol is None:
            raise ValueError("sublattice is not stable under g")
        cols.append(sol)
    R = la.transpose(cols)
    if any(x.denominator != 1 for row in R for x in row):
        raise ValueError("restriction is not integral; basis not saturated?")
    return tuple(tuple(int(x) for x in row) for row in R)


def outcome(fn, *args):
    """The value, or the domain or value error's type and message."""
    try:
        return fn(*args)
    except (NoPositiveEigenplane, NotRootOfUnity, ValueError) as e:
        return type(e).__name__, str(e)


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


# zero-heavy entries, so that zero pivots, zero-diagonal blocks and
# singular matrices are common
sym_entry = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, -5])


@st.composite
def symmetric_int_matrices(draw):
    """Symmetric integer n x n, n <= 6: free, zero on the diagonal, or a sum
    of fewer than n rank-one terms (singular)."""
    n = draw(st.integers(1, 6))
    mode = draw(st.sampled_from(["free", "hollow", "low_rank"]))
    B = [[0] * n for _ in range(n)]
    if mode == "low_rank":
        for _ in range(draw(st.integers(0, n - 1))):
            v = [draw(sym_entry) for _ in range(n)]
            s = draw(st.sampled_from([1, -1, 2]))
            for i in range(n):
                for j in range(n):
                    B[i][j] += s * v[i] * v[j]
        return B
    for i in range(n):
        for j in range(i, n):
            B[i][j] = B[j][i] = 0 if mode == "hollow" and i == j else draw(sym_entry)
    return B


@PROPERTY
@given(symmetric_int_matrices())
@example([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])  # U+U
@example([[0, 1, 0], [1, 0, 0], [0, 0, -2]])                        # U+<-2>
@example([[0, 0, 1], [0, 0, 0], [1, 0, 0]])                         # singular, zero row
@example([[1, 1], [1, 1]])
@example([[0]])
def test_integer_signature_matches_diagonalize(B):
    want = signature_outcome(diagonalize_signature, B)
    assert signature_outcome(int_signature, B) == want
    # a rational Gram goes through its scaled integer Gram
    L = QuadraticLattice([[Fraction(x, 6) for x in row] for row in B])
    assert signature_outcome(signature, L) == want


def test_integer_signature_of_the_empty_block():
    assert int_signature([]) == (0, 0)


coordinate = st.one_of(st.integers(-20, 20),
                       st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)),
                       st.booleans())


@st.composite
def rational_forms(draw):
    """(G, x, y): a symmetric rational Gram and two coordinate vectors of
    int, Fraction and bool entries."""
    n = draw(st.integers(1, 5))
    G = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            G[i][j] = G[j][i] = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 5)))
    vec = st.lists(coordinate, min_size=n, max_size=n).map(tuple)
    return G, draw(vec), draw(vec)


@PROPERTY
@given(rational_forms())
def test_scaled_bilinear_matches_fraction_form(system):
    G, x, y = system
    L = QuadraticLattice(G)
    got = L.bilinear(x, y)
    assert type(got) is Fraction
    assert got == la.form(L.gram, la.vec(x), la.vec(y))
    assert L.quadratic(x) == la.form(L.gram, la.vec(x), la.vec(x))


RAMIFY_POOLS = {
    "<1,1,-1>": ([[1, 0, 0], [0, 1, 0], [0, 0, -1]], 2),
    "A2+<-1>": ([[2, 1, 0], [1, 2, 0], [0, 0, -1]], 2),
    "U+<-2>": ([[0, 1, 0], [1, 0, 0], [0, 0, -2]], 2),
    "diag(1,1,-1,-1)": ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]], 1),
}


@pytest.mark.parametrize("name", sorted(RAMIFY_POOLS))
def test_fixed_sublattice_and_restriction_match_full_scans(name):
    gram, bound = RAMIFY_POOLS[name]
    L = QuadraticLattice(gram)
    outcomes = set()
    for g in enumerate_isometries(L, bound):
        got = outcome(fixed_sublattice, g, L)
        assert got == outcome(full_scan_fixed_sublattice, g, L), g.mat
        outcomes.add(type(got).__name__)
        if isinstance(got, FixedLocusReport):
            for basis in (got.s_basis, got.s_perp_basis):
                assert restriction_matrix(g.mat, basis) == \
                    solve_each_restriction_matrix(g.mat, basis), g.mat
    # U+<-2> has signature (1, 2): no element has a positive eigenplane
    assert ("FixedLocusReport" in outcomes) == (signature(L)[0] == 2)


@PROPERTY
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=1, max_size=n))))
@example(([[0, 1], [1, 0]], [[2, 0], [0, 1]]))   # stable, not integral
@example(([[0, 1], [1, 0]], [[1, 1], [0, 2]]))   # stable and integral
@example(([[1, 0], [0, 2]], [[1, 1]]))           # not stable
def test_restriction_matrix_matches_one_solve_per_image(g_basis):
    g, basis = g_basis
    g = tuple(map(tuple, g))
    basis = [tuple(v) for v in basis]  # dependent and zero vectors included
    assert outcome(restriction_matrix, g, basis) == \
        outcome(solve_each_restriction_matrix, g, basis)
