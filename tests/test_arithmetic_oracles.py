"""The integer-arithmetic kernel (_linalg.factor, _linalg.is_prime) and the
integer pairings and signatures against the code they replaced.

The reference functions below are the hand-written copies the callers
carried before: Place's trial-division primality, the Moebius-product
cyclotomic polynomial with its own x^k - 1 multiply and divide, and the
trial-division euler_phi, square_class and relevant_places.  Beside them
are the Fraction paths that integer ones replaced: diagonalize's own
Fraction congruence and the signature counted from it, the form
evaluated on Fraction coordinates, fixed_sublattice scanning every
divisor of the order, and restriction_matrix solving for one image at a
time.  Last are
chern's hand-rolled accumulators: Newton's power sums, the Chern
character and the Todd class with their own exponential, the series log
through a full series inverse, log_correction and error_term_symbolic,
which the graded ring's own sums and products replaced.  Then the
private matrix kernels that grew beside _linalg: qform's denominator
clearing, and domains' sparse form evaluator, its loop from tube data to
lattice coordinates, its column-by-column circle action and its
hand-filled bounded-model Gram A'.  They are kept only as oracles.
"""

import itertools
import random
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orthocusp import _linalg as la
from orthocusp.chern import (
    GradedClass,
    _newton_power_sums,
    _series_inverse,
    _series_log,
    ch_from_chern,
    error_term_symbolic,
    log_correction,
    todd_from_chern,
    todd_series_coefficients,
    universal_Q,
)
from orthocusp.cycles import (
    FixedLocusReport,
    _canonical_exponent,
    _cyclotomic_coeffs,
    _divisors,
    enumerate_isometries,
    euler_phi,
    fixed_sublattice,
    restriction_matrix,
)
from orthocusp.domains import (
    BoundedFrame,
    TubePoint,
    circle_action_matrix,
    grass_of,
    in_tube,
    psi,
)
from orthocusp.errors import DegenerateForm, NoPositiveEigenplane, NotRootOfUnity
from orthocusp.gaussian import GaussianRational
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
    standard_atilde,
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


def reference_diagonalize(L):
    """diagonalize as a Fraction congruence on a copy of the Gram, with
    its own determinant test for a singular one."""
    if la.determinant(L.gram) == 0:
        raise DegenerateForm("det(gram) = 0")
    n = L.rank
    G = [list(row) for row in L.gram]
    T = [list(row) for row in la.identity(n)]

    def add_col(dst, src, c):
        # column_dst += c * column_src, congruently (also the matching rows)
        for i in range(n):
            G[i][dst] += c * G[i][src]
        for j in range(n):
            G[dst][j] += c * G[src][j]
        for i in range(n):
            T[i][dst] += c * T[i][src]

    def swap_col(i, j):
        for r in range(n):
            G[r][i], G[r][j] = G[r][j], G[r][i]
        for c in range(n):
            G[i][c], G[j][c] = G[j][c], G[i][c]
        for r in range(n):
            T[r][i], T[r][j] = T[r][j], T[r][i]

    for k in range(n):
        if G[k][k] == 0:
            j = next((j for j in range(k + 1, n) if G[j][j] != 0), None)
            if j is not None:
                swap_col(k, j)
            else:
                j = next((j for j in range(k + 1, n) if G[k][j] != 0), None)
                if j is None:
                    raise DegenerateForm("zero block encountered")
                add_col(k, j, Fraction(1))
        piv = G[k][k]
        for j in range(k + 1, n):
            if G[k][j] != 0:
                add_col(j, k, -G[k][j] / piv)
    diag = tuple(G[i][i] for i in range(n))
    if any(d == 0 for d in diag):
        raise DegenerateForm("diagonalization produced a zero entry")
    return diag, tuple(tuple(row) for row in T)


def diagonalize_signature(B):
    """(r, s) counted from the reference Fraction congruence."""
    diag, _ = reference_diagonalize(QuadraticLattice(B))
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
    powers = [la.identity(len(g.mat))]
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


def reference_cleared(v):
    """(w, d): the integer vector w = d * v with d the lcm of the
    denominators of the rational entries of v."""
    if all(type(t) is int for t in v):
        return v, 1
    d = lcm(*(t.denominator for t in v))
    return [t.numerator * (d // t.denominator) for t in v], d


def reference_bilinear(L, x, y):
    """QuadraticLattice.bilinear over reference_cleared."""
    (x, dx), (y, dy) = reference_cleared(x), reference_cleared(y)
    return Fraction(la.form(L.scaled_gram, x, y), L.den * dx * dy)


def reference_sparse_form(G, x, y):
    """sum_i x_i sum_j G[i][j] y_j over complex coordinates, skipping the
    zero entries of G and the exact-zero x_i."""
    out = 0
    for i, xi in enumerate(x):
        if isinstance(xi, (int, Fraction)) and xi == 0:
            continue
        row = G[i]
        acc = 0
        for j, yj in enumerate(y):
            if row[j] != 0:
                acc = acc + yj * row[j]
        out = out + xi * acc
    return out


def reference_ambient_from_tube(frame, a, b, y):
    """Coordinates of a*e1 + b*e2 + sum y_i u_i in the lattice basis."""
    m = frame.lattice.rank
    out = [0] * m
    for k in range(m):
        acc = a * frame.e1[k] + b * frame.e2[k]
        for yi, u in zip(y, frame.u_basis):
            if u[k] != 0:
                acc = acc + yi * u[k]
        out[k] = acc
    return tuple(out)


def reference_a_prime(lattice):
    """The bounded-model Gram A' = diag(-2, -2) + A, filled by hand."""
    m = lattice.rank
    n = m - 2
    A_prime = [[Fraction(0)] * n for _ in range(n)]
    A_prime[0][0] = Fraction(-2)
    A_prime[1][1] = Fraction(-2)
    for i in range(4, m):
        for j in range(4, m):
            A_prime[i - 2][j - 2] = lattice.gram[i][j]
    return la.mat(A_prime)


def reference_circle_action_matrix(plane, r=1, cos_sin_2theta=None, theta=None):
    """circle_action_matrix with one pair of bilinear calls per unit vector."""
    if not plane.is_normalized:
        raise ValueError("plane must be normalized (equal norms, orthogonal)")
    if cos_sin_2theta is None:
        if theta is None:
            raise ValueError("supply cos_sin_2theta or theta")
        import math

        c, s = math.cos(2 * theta), math.sin(2 * theta)
    else:
        c, s = la.frac(cos_sin_2theta[0]), la.frac(cos_sin_2theta[1])
        if c * c + s * s != 1:
            raise ValueError("cos^2 + sin^2 must equal 1 exactly")
    r2 = la.frac(r) * la.frac(r) if cos_sin_2theta is not None else float(r) ** 2
    L = plane.lattice
    X, Y = plane.x, plane.y
    qn = L.quadratic(X)
    m = L.rank
    MX = tuple(r2 * (c * X[k] + s * Y[k]) for k in range(m))
    MY = tuple(r2 * (-s * X[k] + c * Y[k]) for k in range(m))
    cols = []
    for j in range(m):
        e = tuple(1 if i == j else 0 for i in range(m))
        lam = L.bilinear(e, X) / qn
        mu = L.bilinear(e, Y) / qn
        col = tuple(
            e[k] + lam * (MX[k] - X[k]) + mu * (MY[k] - Y[k]) for k in range(m)
        )
        cols.append(col)
    return la.transpose(la.mat(cols))


def reference_newton_power_sums(cs, kmax: int):
    """Power sums p_k from elementary symmetric classes via Newton."""
    r = len(cs)
    ps = {}
    for k in range(1, kmax + 1):
        acc = None
        for i in range(1, k):
            if i <= r:
                term = cs[i - 1] * ps[k - i] * (Fraction(-1) ** (i - 1))
                acc = term if acc is None else acc + term
        tail = (Fraction(-1) ** (k - 1)) * k * cs[k - 1] if k <= r else None
        if tail is not None:
            acc = tail if acc is None else acc + tail
        if acc is None:
            acc = cs[0] * 0
        ps[k] = acc
    return ps


def reference_ch_from_chern(cs, truncation: int, rank=None) -> GradedClass:
    """Chern character from c_1..c_r: rank + sum p_k / k!."""
    cs = list(cs)
    if not cs:
        raise ValueError("need at least c_1 (use rank only via unit)")
    rank = len(cs) if rank is None else rank
    degs = {}
    for c in cs:
        degs.update(c._deg_map())
    out = GradedClass.make({(): rank}, degs, truncation)
    ps = reference_newton_power_sums(cs, truncation)
    fact = 1
    for k in range(1, truncation + 1):
        fact *= k
        out = out + ps[k] * Fraction(1, fact)
    return out


def reference_series_log(coeffs):
    """log of a power series with a(0) = 1."""
    n = len(coeffs)
    # log(f) ' = f'/f; integrate
    deriv = [(k + 1) * coeffs[k + 1] if k + 1 < n else Fraction(0) for k in range(n)]
    finv = _series_inverse(coeffs)
    prod = [Fraction(0)] * n
    for i in range(n):
        for j in range(n - i):
            prod[i + j] += deriv[i] * finv[j]
    out = [Fraction(0)] * n
    for k in range(1, n):
        out[k] = prod[k - 1] / k
    return out


def reference_todd_from_chern(cs, truncation: int) -> GradedClass:
    """Todd class from Chern classes: exp(sum log-series(k) p_k)."""
    cs = list(cs)
    degs = {}
    for c in cs:
        degs.update(c._deg_map())
    lam = reference_series_log(todd_series_coefficients(truncation))
    ps = reference_newton_power_sums(cs, truncation)
    expo = None
    for k in range(1, truncation + 1):
        if lam[k]:
            term = ps[k] * lam[k]
            expo = term if expo is None else expo + term
    out = GradedClass.unit(degs, truncation)
    if expo is None:
        return out
    power = GradedClass.unit(degs, truncation)
    fact = 1
    for k in range(1, truncation + 1):
        power = power * expo
        fact *= k
        out = out + power * Fraction(1, fact)
    return out


def reference_log_correction(c_log, deltas):
    """c_j(Omega^1) = sum_{i<=j} c_i(Omega^1(log)) Delta_{j-i}.

    Inputs are lists of GradedClass indexed 1..n (c_0 = Delta_0 = 1
    implicitly); returns the list of c_j(Omega^1), j = 1..n.
    """
    n = len(c_log)
    if len(deltas) != n:
        raise ValueError("need matching truncation for c(log) and Delta")
    if n == 0:
        return []
    one = GradedClass.unit(c_log[0]._deg_map() if c_log else {}, c_log[0].truncation)
    cl = [one] + list(c_log)
    dl = [one] + list(deltas)
    out = []
    for j in range(1, n + 1):
        acc = None
        for i in range(0, j + 1):
            term = cl[i] * dl[j - i]
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def reference_error_term_symbolic(n: int, n_prime: int):
    """The boundary error term as a polynomial in the weight.

    Returns {i: GradedClass} for i = 0..n_prime, the coefficient of ell^i:
        sum_{|alpha| = n-i} b_alpha (c^alpha(Omega^1) - c^alpha(Omega^1(log)))
    with c^alpha(Omega^1) expanded through the log-boundary correction, so
    every surviving monomial carries a positive Delta-degree.  Generators:
    lg_j = c_j(Omega^1(log)), D_k = Delta_k.
    """
    if n_prime > n:
        raise ValueError("boundary dimension bound exceeds the dimension")
    degs = {f"lg{j}": j for j in range(1, n + 1)}
    degs.update({f"D{k}": k for k in range(1, n + 1)})
    lg = [GradedClass.gen(f"lg{j}", j, degs, n) for j in range(1, n + 1)]
    dl = [GradedClass.gen(f"D{k}", k, degs, n) for k in range(1, n + 1)]
    c_omega = reference_log_correction(lg, dl)
    q1 = universal_Q(n, 1)
    # b_alpha at ell-power i: entries with beta = (1,)*i
    out = {}
    one = GradedClass.unit(degs, n)
    for i in range(0, n_prime + 1):
        acc = GradedClass.make({}, degs, n)
        for (beta, alpha), coeff in q1.table:
            if beta != tuple([1] * i):
                continue
            prod_omega = one
            prod_log = one
            for a in alpha:
                prod_omega = prod_omega * c_omega[a - 1]
                prod_log = prod_log * lg[a - 1]
            acc = acc + (prod_omega - prod_log) * coeff
        out[i] = acc
    return out


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
@example([[0, 1], [1, 0]])                                          # demo 01's plane
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
    # diagonalize replays the integer congruence: the reference's (diag, T)
    # exactly, and its refusal of a singular Gram
    for M in (QuadraticLattice(B), L):
        assert signature_outcome(diagonalize, M) == signature_outcome(reference_diagonalize, M)


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
    assert got == reference_bilinear(L, x, y)
    w, d = reference_cleared(x)
    assert la.scaled_int([x]) == ((tuple(w),), d)


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


# the generators random Chern classes are drawn over, with their degrees
CHERN_POOL = {"a": 1, "b": 1, "y": 2, "z": 3}


def random_classes(rnd, r, n):
    """c_1..c_r with random rational coefficients, c_i homogeneous of degree
    i; each carries the degree map of its own generators (plus one at
    random) and a truncation of n or n + 1."""
    out = []
    for i in range(1, r + 1):
        terms = {}
        for _ in range(rnd.randint(1, 3)):
            mono, d = {}, i
            while d:
                g = rnd.choice([g for g, k in CHERN_POOL.items() if k <= d])
                mono[g] = mono.get(g, 0) + 1
                d -= CHERN_POOL[g]
            terms[tuple(mono.items())] = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
        names = {g for mono in terms for g, _ in mono} | {rnd.choice(list(CHERN_POOL))}
        degs = {g: CHERN_POOL[g] for g in names}
        out.append(GradedClass.make(terms, degs, n + rnd.randint(0, 1)))
    return out


def formal_root_classes(r, n):
    """The elementary symmetric classes of formal roots a_1..a_r of degree 1."""
    degs = {f"a{i}": 1 for i in range(1, r + 1)}
    roots = [GradedClass.gen(f"a{i}", 1, degs, n) for i in range(1, r + 1)]
    one = GradedClass.unit(degs, n)
    return [sum((prod(combo, start=one) for combo in itertools.combinations(roots, k)),
                one * 0)
            for k in range(1, r + 1)]


def chern_systems(n):
    """Chern classes at truncation n: three random draws and the formal roots."""
    rnd = random.Random(4001 + n)
    systems = [random_classes(rnd, rnd.randint(1, max(n, 1)), n) for _ in range(3)]
    return systems + [formal_root_classes(min(max(n, 1), 3), n)]


@pytest.mark.parametrize("n", range(9))
def test_power_sums_ch_and_todd_match_the_accumulators(n):
    for cs in chern_systems(n):
        assert _newton_power_sums(cs, n) == reference_newton_power_sums(cs, n)
        assert ch_from_chern(cs, n) == reference_ch_from_chern(cs, n)
        assert todd_from_chern(cs, n) == reference_todd_from_chern(cs, n)


@pytest.mark.parametrize("n", range(9))
def test_log_correction_and_error_term_match_the_accumulators(n):
    rnd = random.Random(5003 + n)
    for _ in range(3):
        c_log, deltas = random_classes(rnd, n, n), random_classes(rnd, n, n)
        assert log_correction(c_log, deltas) == reference_log_correction(c_log, deltas)
    for n_prime in range(n + 1):
        assert error_term_symbolic(n, n_prime) == reference_error_term_symbolic(n, n_prime)


@pytest.mark.parametrize("n", range(13))
def test_series_log_recurrence_matches_integrated_quotient(n):
    got = _series_log(todd_series_coefficients(n))
    assert got == reference_series_log(todd_series_coefficients(n))
    assert all(type(x) is Fraction for x in got)
    rnd = random.Random(6007 + n)
    series = [Fraction(1)] + [Fraction(rnd.randint(-5, 5), rnd.randint(1, 4)) for _ in range(n)]
    assert _series_log(series) == reference_series_log(series)
    # the Fraction(0) seed keeps integer coefficients exact
    ints = [1] + [rnd.randint(-5, 5) for _ in range(n)]
    assert all(type(x) is Fraction for x in _series_log(ints))


def test_series_inverse_is_exact_on_int_coefficients():
    got = _series_inverse([1, 1, 0])
    assert got == [1, -1, 1]
    assert all(type(x) is Fraction for x in got)


small_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
BACKENDS = {
    "exact": st.builds(GaussianRational, small_fractions, small_fractions),
    "float": st.builds(complex, *[st.floats(-1e3, 1e3, allow_nan=False)] * 2),
}


@st.composite
def atilde_frames(draw):
    """A BoundedFrame of rank 4..8: two hyperbolic planes plus the
    negative-definite block -(M M^t + I) / d for a random integer M."""
    k = draw(st.integers(0, 4))
    M = draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                      min_size=k, max_size=k))
    d = draw(st.integers(1, 3))
    block = [[Fraction(-la.dot(r, s) - (i == j), d) for j, s in enumerate(M)]
             for i, r in enumerate(M)]
    return BoundedFrame(standard_atilde(k + 2, block))


@PROPERTY
@given(atilde_frames(), st.sampled_from(sorted(BACKENDS)), st.data())
def test_domain_forms_match_the_sparse_loops(frame, backend, data):
    coord = BACKENDS[backend]
    G, m, n = frame.lattice.gram, frame.lattice.rank, frame.n
    x, y = (data.draw(st.lists(coord, min_size=m, max_size=m)) for _ in range(2))
    z = data.draw(st.lists(coord, min_size=n, max_size=n))
    a, b = data.draw(coord), data.draw(coord)
    assert frame.a_prime == reference_a_prime(frame.lattice)
    assert frame.bilinear_c(x, y) == reference_sparse_form(G, x, y)
    assert frame.quadratic_c(x) == reference_sparse_form(G, x, x)
    assert frame.q_u(z) == reference_sparse_form(frame.u_gram, z, z)
    assert frame.q_a_prime(z) == reference_sparse_form(frame.a_prime, z, z)
    conj = [t.conjugate() for t in z]
    assert frame.h_a_prime(z) == reference_sparse_form(frame.a_prime, z, conj).real
    assert frame.ambient_from_tube(a, b, z) == reference_ambient_from_tube(frame, a, b, z)


@st.composite
def normalized_planes(draw):
    """span(Re v, Im v) for v = psi(y) at an exact point y of the tube over
    a random frame: a normalized positive plane."""
    frame = draw(atilde_frames())
    im = [Fraction(draw(st.integers(1, 6))) for _ in range(2)] \
        + [Fraction(draw(st.integers(-1, 1)), 4) for _ in range(frame.n - 2)]
    y = tuple(GaussianRational(draw(small_fractions), t) for t in im)
    assume(in_tube(y, frame))
    plane = grass_of(psi(TubePoint(y, frame)))
    assert plane.is_normalized
    return plane


@PROPERTY
@given(normalized_planes(), small_fractions, small_fractions,
       st.floats(-10, 10, allow_nan=False), st.floats(-3, 3, allow_nan=False))
def test_circle_action_matches_the_column_loop(plane, t, r, theta, r_float):
    # (cos 2theta, sin 2theta) = ((1 - t^2), 2t) / (1 + t^2), exactly
    cs = ((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))
    assert circle_action_matrix(plane, r, cos_sin_2theta=cs) == \
        reference_circle_action_matrix(plane, r, cos_sin_2theta=cs)
    assert circle_action_matrix(plane, r_float, theta=theta) == \
        reference_circle_action_matrix(plane, r_float, theta=theta)
