"""Fixed sublattices, eigenvalue characters, and ramification classification.

All computations run on exact eigen-data of finite-order integral
isometries: the candidate period plane of g lives on the saturated kernel
of the cyclotomic value Phi_m(g) for the unique m whose isotypic subspace
carries positive index 2.  The classification depends only on the order
r_tau of the character image, never on a choice of primitive root.
matrix_order's power loop keeps the traces tr(g^k), which give
dim ker Phi_m(g) for every m | order, so a kernel is taken only for a
factor Phi_m that occurs, and the certificate takes r_tau = m from it.

The data belong to the cyclic subgroup <g>: for gcd(k, N) = 1, N = ord g,
x -> x^k permutes the primitive m-th roots of unity for each m | N, so
ker Phi_m(g^k) = ker Phi_m(g) with the same multiplicity, and S, S^perp,
r_tau, the classification and the field agree.  On S, R^k spans the same
algebra Q[R] as R, so the certificate's cyclic spans, singularity tests
and mate searches find the same subspaces.  Only the basis kernel_int
picks for S, in which the certificate reads its first candidates, can
tell g^k from g.

-I acts trivially on D_L, and the subgroups <g> and <-g> pair up: the
generators of <-g> are the negatives of those of <g>.  With m' = 2m for
odd m, m/2 for m = 2 mod 4 and m for 4 | m, Phi_m'(-x) = +-Phi_m(x), so
ker Phi_m'(-g) = ker Phi_m(g): -g has g's S, S^perp and equations, with
r_tau = m'.  enumerate_isometries runs the power loop, and
classify_subgroups takes S, once per +-pair; each subgroup then runs the
classification tail (and certificate) on its own element.

Everything runs over int: powers, kernels, the restricted Grams (blocks
of the scaled integer Gram, whose positive scale moves no signature or
zero test) and their signatures (qform.int_signature), the restriction
of g to S (one scaled solve) and the certificate's candidates (one integer
multiple of the rational kernel basis).  Fractions appear only in what
is reported: the defining equations (integer images over den) and the
factor bases, divided back to that rational basis.

Errors: the CLI reaches none of the 3 ValueErrors, chi_order_at's
AssertionError or the certificate's 2 RuntimeErrors (a failed repair
would be a bug).  IsometryElement.make and chi_order_at are library-only,
and ramify calls restriction_matrix only on S = ker Phi_m(g), which is
g-stable and saturated.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd

from . import _linalg as la
from .errors import FixedVectorPresent, NoPositiveEigenplane, NotRootOfUnity
from .qform import QuadraticLattice, int_signature, orthogonal_complement_basis

INTERIOR_UNRAMIFIED = "interior_unramified"
HEEGNER_REFLECTION = "heegner_reflection_type"
MINUS_IDENTITY = "minus_identity"
SPECIAL_CYCLE = "special_cycle"


@dataclass(frozen=True)
class IsometryElement:
    mat: tuple
    order: int | None = None
    # tr(g^k) for k < order, as matrix_order found them (None: derive)
    traces: tuple | None = field(default=None, compare=False, repr=False)
    # the least pool generator of <g> (None: infinite order or not from a pool)
    subgroup: tuple | None = field(default=None, compare=False, repr=False)

    @staticmethod
    def make(mat, lattice: QuadraticLattice) -> "IsometryElement":
        m = la.mat(mat)
        if not la.preserves_form(m, lattice.gram):
            raise ValueError("matrix does not preserve the Gram matrix")
        return IsometryElement(m, *_order_traces(m)[:2])


@functools.lru_cache(maxsize=None)
def max_finite_order(m: int) -> int:
    """Largest finite order in GL_m(Q), and so in GL_m(Z): the largest n with
    psi(n) <= m, where psi(n) sums phi(p^a) over the prime powers p^a
    exactly dividing n, less 1 when n = 2 mod 4.  Only products of prime
    powers q with phi(q) <= m can qualify, so only those are tried."""
    orders = [(1, 0)]  # (n, sum of phi over the prime powers of n)
    for p in range(2, m + 2):
        if la.is_prime(p):
            powers, q = [(1, 0)], p
            while euler_phi(q) <= m:
                powers.append((q, euler_phi(q)))
                q *= p
            orders = [(n * q, c + f) for n, c in orders for q, f in powers]
    return max(n for n, c in orders if c - (n % 4 == 2) <= m)


def matrix_order(m):
    """Order of a square matrix, or None when it is not of finite order.

    Powers stop at max_finite_order(rank); int matrices are multiplied
    over int.  Each power p is also tested by its trace: a rational matrix
    of finite order is diagonalisable over C with roots of unity as
    eigenvalues, so every power of it has |tr p| <= n, with tr p = n only
    when p = I.  A power with tr p >= n that is not I, or with tr p < -n,
    proves the order infinite, and the loop stops there.  It keeps g^k and
    tr(g^k), k < order (_order_traces): the traces give every
    dim ker Phi_m(g) (_multiplicities), the powers the other generators.
    """
    return _order_traces(m)[0]


def _order_traces(m):
    """(order, (tr m^0, .., tr m^(order - 1)), [m^0, .., m^(order - 1)]),
    or (None, None, None)."""
    p = m = tuple(map(tuple, m))
    n = len(m)
    powers, traces = [la.identity(n)], [n]
    for _ in range(max_finite_order(n)):
        if p == powers[0]:
            return len(traces), tuple(traces), powers
        traces.append(sum(p[i][i] for i in range(n)))
        if traces[-1] >= n or traces[-1] < -n:
            break
        powers.append(p)
        p = la.mat_mul(p, m)
    return None, None, None


def _multiplicities(traces):
    """{m: dim ker Phi_m(g)} for m | N from tr(g^k), k < N, where g^N = I.

    By character orthogonality (Serre, Linear Representations, 2.3) the
    eigenvalues x with x^e = 1 number (e/N) sum_j tr(g^(je)) for e | N; the
    primitive m-th roots of unity are those of x^m = 1 less those of the
    proper divisors of m.
    """
    N, mults = len(traces), {}
    for m in _divisors(N):
        mults[m] = m * sum(traces[::m]) // N - sum(k for d, k in mults.items() if m % d == 0)
    return mults


def enumerate_isometries(L: QuadraticLattice, bound: int):
    """All integral isometries with entries bounded by bound.

    Column backtracking (la.gram_preservers) over the box [-bound, bound]^m
    on the integer multiple of the Gram matrix; always contains +/-
    identity.  The matrices are kept as int rows, sorted.  The power loop
    runs on the first element g of each cyclic subgroup: each g^k in the
    pool with gcd(k, N) = 1 takes order N, traces tr(g^(kj mod N)), j < N,
    and g as its subgroup.

    Box and form are invariant under X -> -X, so negation reverses the
    sorted pool: found[~i] = -found[i].  The generators of <-g> are the
    -g^k, so the same loop gives each -g^k the order N' of -g (the least
    j >= 1 with (-1)^j tr(g^(j mod N)) = n), traces (-1)^j tr(g^(kj mod N)),
    j < N', and the least -g^k as its subgroup; -g has infinite order when
    g has.
    """
    box = itertools.product(range(-bound, bound + 1), repeat=L.rank)
    found = sorted(tuple(zip(*cols)) for cols in la.gram_preservers(L.scaled_gram, box))
    pool = [None] * len(found)
    for i, g in enumerate(found):
        if pool[i] is not None:
            continue
        N, traces, powers = _order_traces(g)
        if N is None:
            pool[i], pool[~i] = IsometryElement(g), IsometryElement(found[~i])
            continue
        gens = [(i, 1)]  # (index, k) of the g^k in the pool, gcd(k, N) = 1
        for k in (k for k in range(2, N) if gcd(k, N) == 1):
            j = bisect_left(found, powers[k], i)
            # keep found[j], not the equal powers[k]: a pool holding the
            # power loop's copies peaked about 0.1 MB higher in RSS
            if j < len(found) and found[j] == powers[k]:
                gens.append((j, k))
        for j, k in gens:
            pool[j] = IsometryElement(found[j], N, tuple(traces[k * e % N] for e in range(N)), g)
        if pool[~i] is None:  # -g is not a generator of <g>
            n = len(g)
            M = next(e for e in range(1, 2 * N + 1) if (-1) ** e * traces[e % N] == n)
            key = found[~max(j for j, _ in gens)]
            for j, k in gens:
                pool[~j] = IsometryElement(found[~j], M, tuple(
                    (-1) ** e * traces[k * e % N] for e in range(M)), key)
    return pool


@functools.lru_cache(maxsize=None)
def _cyclotomic_coeffs(n: int):
    """Integer coefficients of the n-th cyclotomic polynomial, ascending.

    x^n - 1 = prod_{d | n} Phi_d, so Phi_n is x^n - 1 divided exactly by
    the monic Phi_d of every proper divisor d.
    """
    poly = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n)[:-1]:
        phi = _cyclotomic_coeffs(d)
        top = len(phi) - 1
        quot = [0] * (len(poly) - top)
        for i in reversed(range(len(quot))):
            quot[i] = c = poly[i + top]
            for k, b in enumerate(phi):
                poly[i + k] -= c * b
        poly = quot
    return tuple(poly)


def euler_phi(n: int) -> int:
    out = n
    for p in la.factor(n):
        out -= out // p
    return out


def _matrix_poly(coeffs, powers):
    """sum_i coeffs[i] g^i from the powers g^0, g^1, ... of g, entry by entry."""
    terms = [(c, p) for c, p in zip(coeffs, powers) if c]
    n = len(powers[0])
    return tuple(tuple(sum([c * p[i][j] for c, p in terms]) for j in range(n))
                 for i in range(n))


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _scaled_gram_on(L: QuadraticLattice, basis):
    """Integer Gram of the span of basis: den times its rational Gram."""
    images = [la.mat_vec(L.scaled_gram, a) for a in basis]
    return [[la.dot(Ba, b) for b in basis] for Ba in images]


@dataclass(frozen=True)
class FixedLocusReport:
    """Fixed-plane data of a finite-order isometry."""

    s_basis: tuple
    s_perp_basis: tuple
    defining_equations: tuple  # rows b(z, y_j) = 0 cutting D_{L,S}
    r_tau: int | None = None
    lambda_exponent: int | None = None
    classification: str | None = None
    field_descriptor: str | None = None
    decomposition: "CyclotomicCertificate | None" = None
    notes: tuple = ()


def fixed_sublattice(g: IsometryElement, L: QuadraticLattice) -> FixedLocusReport:
    """S = saturated double-perp of the candidate eigenplane of g.

    Selects the unique cyclotomic factor Phi_m of g whose rational isotypic
    subspace has positive index 2; S is the saturation of ker Phi_m(g) in L
    and S^perp its orthogonal complement.  g has finite order, so x^ord - 1
    is squarefree and Q^n is the direct sum of the ker Phi_m(g) over the
    divisors m of ord.  Their dimensions come from the traces of g's
    powers (_multiplicities), so a kernel is taken only for a factor that
    occurs; its rank must equal that dimension, and the dimensions must
    sum to n, so the kernels left out are zero.
    """
    if g.order is None:
        raise NotRootOfUnity("isometry must have finite order")
    n, traces = len(g.mat), g.traces
    if traces is None:  # a caller-given order: g^order = I must hold
        order, traces, _ = _order_traces(g.mat)
        if order is None or g.order % order:
            raise NotRootOfUnity(f"isometry does not have order dividing {g.order}")
    mults = _multiplicities(traces)
    if sum(mults.values()) != n:
        raise NotRootOfUnity("eigenvalue multiplicities do not sum to the rank")
    powers = [la.identity(n)]
    chosen = None
    for m in (m for m, k in mults.items() if k):
        cs = _cyclotomic_coeffs(m)
        while len(powers) < len(cs):
            powers.append(la.mat_mul(powers[-1], g.mat))
        ker = la.kernel_int(_matrix_poly(cs, powers))
        if len(ker) != mults[m]:
            raise NotRootOfUnity(f"ker Phi_{m}(g) has rank {len(ker)}, not {mults[m]}")
        r, _ = int_signature(_scaled_gram_on(L, ker))
        if r == 2:
            if chosen is not None:
                raise NoPositiveEigenplane("positive plane is not unique")
            chosen = (m, ker)
    if chosen is None:
        raise NoPositiveEigenplane("no cyclotomic factor carries a signature-(2,*) subspace")
    m, s_basis = chosen
    perp = orthogonal_complement_basis(L, s_basis)
    eqs = tuple(tuple(Fraction(x, L.den) for x in la.mat_vec(L.scaled_gram, y)) for y in perp)
    return FixedLocusReport(
        s_basis=tuple(s_basis),
        s_perp_basis=tuple(perp),
        defining_equations=eqs,
        r_tau=m,
        lambda_exponent=_canonical_exponent(m),
    )


def _canonical_exponent(m: int) -> int:
    """Exponent k of the reported eigenvalue zeta_m^k (Im > 0 for m > 2)."""
    return 0 if m == 1 else (m // 2 if m == 2 else 1)


def double_perp(L: QuadraticLattice, vectors):
    """((span)^perp)^perp cap L as a saturated basis."""
    ident = la.identity(L.rank)
    perp = orthogonal_complement_basis(L, vectors) if vectors else ident
    return orthogonal_complement_basis(L, perp) if perp else ident


def restriction_matrix(g_mat, basis):
    """Matrix of g on the saturated sublattice spanned by basis, as int rows.

    One scaled solve of basis^t R = d images^t finds the coordinates of
    every image at once; no solution means some image leaves the span.
    """
    images = [la.mat_vec(g_mat, v) for v in basis]
    sol = la.scaled_solve(la.transpose(basis), la.transpose(images))
    if sol is None:
        raise ValueError("sublattice is not stable under g")
    R, d = sol
    if any(x % d for row in R for x in row):
        raise ValueError("restriction is not integral; basis not saturated?")
    return tuple(tuple(x // d for x in row) for row in R)


def chi_order_at(g: IsometryElement, L: QuadraticLattice):
    """(lambda as (exponent, order), r_tau) for the selected eigenplane.

    The kernel criterion lambda = 1 <=> g fixes S pointwise is part of the
    returned data (checked literally on the basis vectors).
    """
    report = fixed_sublattice(g, L)
    m = report.r_tau
    fixes_S = all(
        tuple(la.mat_vec(g.mat, v)) == tuple(map(Fraction, v)) for v in report.s_basis
    )
    if (m == 1) != fixes_S:
        raise AssertionError("kernel criterion violated: lambda=1 iff g|_S = id")
    return (report.lambda_exponent, m), m


@dataclass(frozen=True)
class CyclotomicCertificate:
    """S tensor Q decomposed as d orthogonal q-nondegenerate Phi_m factors."""

    m: int
    d: int
    rank: int
    factor_bases: tuple
    nondegenerate: bool
    orthogonal: bool
    repaired_pairs: int

    @property
    def verified(self) -> bool:
        return (self.nondegenerate and self.orthogonal
                and self.d * euler_phi(self.m) == self.rank)


def cyclotomic_decomposition(g: IsometryElement, L: QuadraticLattice,
                             s_basis=None) -> CyclotomicCertificate:
    """Certificate that S decomposes into q-nondegenerate cyclic factors.

    Requires the mu_{r_tau}-action on S to have no nonzero fixed vectors
    (FixedVectorPresent otherwise).  When a cyclic factor K v is q-trivial
    it is repaired by y = v + R^j u, j < m, or last y = v - u, for a mate
    u that pairs with K v.  With b = Tr_{K/Q} h on S (K = Q(zeta_m) acting
    through R), h(y, y) = h(u, u) + 2 Re(zeta^-j h(v, u)).  For m > 1 these
    sum to m h(u, u) over j < m, and for m = 1 the values at v + u and
    v - u differ by 4 h(v, u): either way they all vanish only if
    h(v, u) = 0.  So on a nondegenerate S, such as S = ker Phi_m(g), a
    failed repair is a RuntimeError, not a fact about g.

    Runs over int: the Gram of S is den times the rational one, and each
    round's candidates are the complement's rational basis times one
    integer c, so every cyclic span scales by c and no zero test moves.
    Pairings are dot products with the images B w, one per cyclic-span
    vector w.  The factor bases are divided by c again.  m is the order of
    the restriction R, found by matrix_order: on the selected
    S = ker Phi_m(g) R has minimal polynomial Phi_m, so m = r_tau.
    """
    if s_basis is None:
        s_basis = fixed_sublattice(g, L).s_basis
    R = restriction_matrix(g.mat, s_basis)
    k = len(s_basis)
    m = matrix_order(R)
    if m is None:
        raise NotRootOfUnity("restriction has infinite order")
    if m > 1:
        R_minus_1 = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(R)]
        if la.rank(R_minus_1) < k:
            raise FixedVectorPresent("action on S has nonzero fixed vectors")
    phi = euler_phi(m)
    gram_S = _scaled_gram_on(L, s_basis)

    def cyclic_span(v):
        """(W, BW): v, Rv, .., R^(phi - 1) v and their images under gram_S."""
        W = [tuple(v)]
        for _ in range(phi - 1):
            W.append(la.mat_vec(R, W[-1]))
        return W, [la.mat_vec(gram_S, w) for w in W]

    def singular(W, BW):
        return la.rank([[la.dot(Ba, b) for b in W] for Ba in BW]) < len(W)

    factors = []
    repaired = 0
    space_eqs = []  # rows: pairing functionals B w of the factors found so far

    while len(factors) * phi < k:
        # pick a vector in the orthogonal complement of the found factors,
        # which is nonzero: they give fewer than k pairing functionals
        cands, c = la.scaled_nullspace(space_eqs or [(0,) * k])
        v = cands[0]
        W, BW = cyclic_span(v)
        if singular(W, BW):
            mate = next((u for u in cands[1:] if any(la.dot(Bw, u) for Bw in BW)), None)
            if mate is None:
                raise RuntimeError("no mate pairs with a q-trivial factor")
            u = mate
            for j in range(m + 1):  # v + R^j mate for j < m, then v - mate
                W, BW = cyclic_span(la.vec_add(v, u))
                if not singular(W, BW):
                    break
                u = la.mat_vec(R, u) if j < m - 1 else la.vec_scale(-1, mate)
            else:
                raise RuntimeError("no v + R^j mate or v - mate repairs a q-trivial factor")
            repaired += 1
        factors.append((W, BW, c))
        space_eqs += BW
    ortho = all(la.dot(Ba, b) == 0 for (_, B1, _), (f2, _, _)
                in itertools.combinations(factors, 2) for Ba in B1 for b in f2)
    return CyclotomicCertificate(
        m=m,
        d=len(factors),
        rank=k,
        factor_bases=tuple(tuple(tuple(Fraction(x, c) for x in w) for w in W)
                           for W, _, c in factors),
        nondegenerate=True,  # every factor kept passed singular() above
        orthogonal=ortho,
        repaired_pairs=repaired,
    )


def classify_ramification(g: IsometryElement, L: QuadraticLattice) -> FixedLocusReport:
    """Full classification of the ramification type of a finite-order isometry."""
    return _classify_locus(g, L, fixed_sublattice(g, L))


def _classify_locus(g, L, report):
    """classify_ramification's tail on g's fixed-plane report."""
    m = report.r_tau
    notes, decomposition, field = [], None, None
    if m == 1:
        cls = INTERIOR_UNRAMIFIED if not report.s_perp_basis else HEEGNER_REFLECTION
        if cls == HEEGNER_REFLECTION:
            notes.append(
                f"codimension-{len(report.s_perp_basis)} cycle driven by the "
                "pointwise-fixing group of S-perp"
            )
    elif m == 2:
        cls = MINUS_IDENTITY
        notes.append("acts trivially on the cycle; quotient effect equals -g on S-perp")
    else:
        cls = SPECIAL_CYCLE
        field = f"Q(zeta_{m})"
        decomposition = cyclotomic_decomposition(g, L, report.s_basis)
        notes.append(f"CM field {field}; certificate d*phi(m) = "
                     f"{decomposition.d}*{euler_phi(m)} = {decomposition.rank}")
    return replace(report, classification=cls, field_descriptor=field,
                   decomposition=decomposition, notes=tuple(notes))


def _twin_index(m: int) -> int:
    """m' with Phi_m'(-x) = +-Phi_m(x): 2m for odd m, m/2 for m = 2 mod 4,
    m for 4 | m."""
    return 2 * m if m % 2 else (m // 2 if m % 4 == 2 else m)


def classify_subgroups(pool, L: QuadraticLattice):
    """{subgroup: classify_ramification(g, L), or the class of the error it
    raises} over the finite-order g of an enumerate_isometries pool.

    pool[~i] is -pool[i], and one fixed_sublattice serves both: -g has g's
    S, S^perp and equations with r_tau = m' (module docstring; kernel_int
    takes the same basis for the kernel of -M as of M).  Each subgroup
    runs the classification tail on its own element.  An error is kept as
    its class: the caught object would pin this frame via its traceback.
    """
    out = {}
    for i, g in enumerate(pool):
        if g.order is None or g.subgroup in out:
            continue
        try:
            report = fixed_sublattice(g, L)
        except (NoPositiveEigenplane, NotRootOfUnity) as e:
            out[g.subgroup] = out[pool[~i].subgroup] = type(e)
            continue
        m = _twin_index(report.r_tau)
        twin = replace(report, r_tau=m, lambda_exponent=_canonical_exponent(m))
        for h, rep in ((g, report), (pool[~i], twin)):
            if h.subgroup not in out:  # false for -g when -g generates <g>
                out[h.subgroup] = _classify_locus(h, L, rep)
    return out


def stabilizer_orders(L: QuadraticLattice, s_basis, isometries):
    """Desk-scale orders of Gamma_S, Gamma-bar_S, Gamma-tilde_S in a pool."""
    gamma_s = [g for g in isometries
               if all(la.in_span(la.mat_vec(g.mat, v), s_basis) for v in s_basis)]
    restrictions = {restriction_matrix(g.mat, s_basis) for g in gamma_s}
    perp = orthogonal_complement_basis(L, s_basis)
    tilde = sum(all(tuple(la.mat_vec(g.mat, v)) == tuple(map(Fraction, v)) for v in perp)
                for g in gamma_s)
    return {"gamma_S": len(gamma_s), "gamma_bar_S": len(restrictions),
            "gamma_tilde_S": tilde}


def gamma_canonical(alphas) -> bool:
    """Sum of fractional parts of the eigenvalue angles is at least 1."""
    return sum(a % 1 for a in map(la.frac, alphas)) >= 1
