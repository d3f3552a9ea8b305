"""The integer enumeration layer against the Fraction reference code.

The reference functions below are the paths the integer column
backtracking replaced: a Fraction scan of the whole box at every depth of
the isometry search, matrix powers up to a fixed cap of 120, and a scan of
all mod^(m^2) matrices for congruence counts.  The column search is kept
twice more: as the self-recursive closure it was before it became a
module-level generator, and as that generator before forward checking,
which tests each column only against the earlier ones.  matrix_order is
checked against its power loop without the trace test.  Beside them, the
Fraction forms that bilinear, pair and contains, which evaluate a scaled
integer matrix, must agree with on integral and rational forms alike, and
the Fraction cyclotomic certificate (on the rational Gram of S and the
rational kernel bases) that the integer one replaced.  The classification
is checked against the path before trace multiplicities: a kernel of
Phi_m(g) for every divisor m of the order, matrix_order of the restriction
in the certificate, and every pairing a full la.form.  The ramify rows
are checked against cli.cmd_ramify's loop before cyclic subgroups were
classified once per +-pair: one classification per element, on its own
order and traces.  They are slow and kept only as oracles.
"""

import argparse
import gc
import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orthocusp import _linalg as la
from orthocusp import reportio as io
from orthocusp.cli import cmd_ramify
from orthocusp.corecone import SelfAdjointCone, light_cone
from orthocusp.cycles import (
    HEEGNER_REFLECTION,
    INTERIOR_UNRAMIFIED,
    MINUS_IDENTITY,
    SPECIAL_CYCLE,
    CyclotomicCertificate,
    FixedLocusReport,
    IsometryElement,
    _canonical_exponent,
    _cyclotomic_coeffs,
    _divisors,
    _matrix_poly,
    _multiplicities,
    _order_traces,
    classify_ramification,
    cyclotomic_decomposition,
    enumerate_isometries,
    euler_phi,
    fixed_sublattice,
    matrix_order,
    max_finite_order,
    restriction_matrix,
)
from orthocusp.dimform import _count_gram_preservers
from orthocusp.errors import (
    FixedVectorPresent,
    NoPositiveEigenplane,
    NotRootOfUnity,
    OrthocuspError,
)
from orthocusp.qform import QuadraticLattice, int_signature, orthogonal_complement_basis

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)


# ---------------------------------------------------------------- reference


def fraction_form(G, x, y):
    return la.dot(la.mat_vec(la.mat(G), la.vec(x)), la.vec(y))


def box_scan_isometries(G, bound):
    """Row tuples of every isometry with entries in [-bound, bound]."""
    G = la.mat(G)
    m = len(G)
    cols_domain = list(itertools.product(range(-bound, bound + 1), repeat=m))
    out = []

    def extend(cols):
        j = len(cols)
        if j == m:
            out.append(tuple(zip(*cols)))
            return
        for cand in cols_domain:
            if fraction_form(G, cand, cand) != G[j][j]:
                continue
            if all(fraction_form(G, prev, cand) == G[i][j] for i, prev in enumerate(cols)):
                extend(cols + [cand])

    extend([])
    return sorted(out)


def capped_order(m, cap=120):
    ident = la.identity(len(m))
    p = m
    for k in range(1, cap + 1):
        if la.mat_eq(p, ident):
            return k
        p = la.mat_mul(p, m)
    return None


def scan_count(A, m, mod):
    """#{X mod `mod` : X^t A X = A mod `mod`} over all mod^(m^2) matrices."""
    count = 0
    for flat in itertools.product(range(mod), repeat=m * m):
        X = [flat[i * m:(i + 1) * m] for i in range(m)]
        ok = True
        for a in range(m):
            if not ok:
                break
            for b in range(a, m):
                s = 0
                for i in range(m):
                    xia = X[i][a]
                    if not xia:
                        continue
                    row = A[i]
                    for j in range(m):
                        if row[j]:
                            s += xia * row[j] * X[j][b]
                if (s - A[a][b]) % mod:
                    ok = False
                    break
        if ok:
            count += 1
    return count


def closure_gram_preservers(A, domain, mod=None):
    """gram_preservers as a self-recursive closure, reducing every sum by red."""
    def red(x):
        return x % mod if mod else x

    m = len(A)
    by_norm = {}
    for v in domain:
        Av = tuple(sum(map(mul, row, v)) for row in A)
        by_norm.setdefault(red(sum(map(mul, Av, v))), []).append((v, Av))
    cols, images = [], []

    def extend(j):
        if j == m:
            yield tuple(cols)
            return
        targets = [red(A[i][j]) for i in range(j)]
        for v, Av in by_norm.get(red(A[j][j]), ()):
            if all(red(sum(map(mul, img, v))) == t for img, t in zip(images, targets)):
                cols.append(v)
                images.append(Av)
                yield from extend(j + 1)
                cols.pop()
                images.pop()

    yield from extend(0)


def plain_gram_preservers(A, domain, mod=None):
    """gram_preservers without forward checking: column j is drawn from the
    norm-A[j][j] candidates and tested only against the earlier columns."""
    by_norm = {}
    for v in domain:
        Av = tuple(sum(map(mul, row, v)) for row in A)
        q = sum(map(mul, Av, v))
        by_norm.setdefault(q % mod if mod else q, []).append((v, Av))
    yield from _extend_columns(A, mod, by_norm, [], [])


def _extend_columns(A, mod, by_norm, cols, images):
    j = len(cols)
    if j == len(A):
        yield tuple(cols)
        return
    *targets, norm = [A[i][j] % mod if mod else A[i][j] for i in range(j + 1)]
    for v, Av in by_norm.get(norm, ()):
        if mod:
            ok = all(sum(map(mul, img, v)) % mod == t for img, t in zip(images, targets))
        else:
            ok = all(sum(map(mul, img, v)) == t for img, t in zip(images, targets))
        if ok:
            cols.append(v)
            images.append(Av)
            yield from _extend_columns(A, mod, by_norm, cols, images)
            cols.pop()
            images.pop()


def power_loop_order(m):
    """matrix_order without the trace test: every power up to the bound."""
    m = tuple(map(tuple, m))
    ident = la.identity(len(m))
    p = m
    for k in range(1, max_finite_order(len(m)) + 1):
        if p == ident:
            return k
        p = la.mat_mul(p, m)
    return None


def restricted_gram(L, basis):
    return la.mat([[L.bilinear(a, b) for b in basis] for a in basis])


def fraction_cyclotomic_decomposition(g, L, s_basis=None):
    """The certificate computed over Fraction on the rational Gram of S."""
    if s_basis is None:
        report = fixed_sublattice(g, L)
        s_basis = report.s_basis
        m = report.r_tau
    else:
        m = None
    R = restriction_matrix(g.mat, s_basis)
    k = len(s_basis)
    if m is None:
        m = matrix_order(R)
    if m is None:
        raise NotRootOfUnity("restriction has infinite order")
    if m > 1:
        fixed = la.nullspace(la.mat_add(R, la.mat_scale(Fraction(-1), la.identity(k))))
        if fixed:
            raise FixedVectorPresent("action on S has nonzero fixed vectors")
    phi = euler_phi(m)
    gram_S = restricted_gram(L, s_basis)

    def pair(x, y):
        return la.form(gram_S, x, y)

    def cyclic_span(v):
        vecs = [la.vec(v)]
        for _ in range(phi - 1):
            vecs.append(la.mat_vec(R, vecs[-1]))
        return vecs

    factors = []
    repaired = 0
    space_eqs = []

    def complement_basis():
        if not space_eqs:
            return [la.vec(row) for row in la.identity(k)]
        return [la.vec(v) for v in la.nullspace(space_eqs)]

    while True:
        cands = [v for v in complement_basis() if any(v)]
        if not cands:
            break
        v = cands[0]
        W = cyclic_span(v)
        GW = [[pair(a, b) for b in W] for a in W]
        if la.determinant(GW) == 0:
            mate = next((u for u in cands[1:]
                         if any(pair(w, u) != 0 for w in W)), None)
            if mate is None:
                raise RuntimeError("no mate pairs with a q-trivial factor")
            tries = [mate]  # v + R^j mate, j < m, then v - mate
            while len(tries) < m:
                tries.append(la.mat_vec(R, tries[-1]))
            for u in tries + [la.vec_scale(-1, mate)]:
                W = cyclic_span(la.vec_add(v, u))
                if la.determinant([[pair(a, b) for b in W] for a in W]) != 0:
                    break
            else:
                raise RuntimeError("no v + R^j mate or v - mate repairs a q-trivial factor")
            repaired += 1
        factors.append(tuple(W))
        for w in W:
            space_eqs.append(la.mat_vec(gram_S, w))
        if len(factors) * phi >= k:
            break
    ortho = all(
        pair(a, b) == 0
        for f1, f2 in itertools.combinations(factors, 2)
        for a in f1
        for b in f2
    )
    nondeg = all(la.determinant([[pair(a, b) for b in f] for a in f]) != 0
                 for f in factors)
    return CyclotomicCertificate(
        m=m,
        d=len(factors),
        rank=k,
        factor_bases=tuple(factors),
        nondegenerate=nondeg,
        orthogonal=ortho,
        repaired_pairs=repaired,
    )


def form_gram_on(L, basis):
    return [[la.form(L.scaled_gram, a, b) for b in basis] for a in basis]


def divisor_loop_fixed_sublattice(g, L):
    """fixed_sublattice with a kernel of Phi_m(g) for every divisor m of the order."""
    if g.order is None:
        raise NotRootOfUnity("isometry must have finite order")
    n = len(g.mat)
    powers = [tuple(tuple(int(i == j) for j in range(n)) for i in range(n))]
    chosen = None
    for m in _divisors(g.order):
        cs = _cyclotomic_coeffs(m)
        while len(powers) < len(cs):
            powers.append(la.mat_mul(powers[-1], g.mat))
        ker = la.kernel_int(_matrix_poly(cs, powers))
        if ker and int_signature(form_gram_on(L, ker))[0] == 2:
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


def form_certificate(g, L, s_basis):
    """The integer certificate with matrix_order(R) and every pairing a la.form."""
    R = restriction_matrix(g.mat, s_basis)
    k = len(s_basis)
    m = matrix_order(R)
    if m is None:
        raise NotRootOfUnity("restriction has infinite order")
    if m > 1 and la.rank(la.mat_add(R, la.mat_scale(-1, la.identity(k)))) < k:
        raise FixedVectorPresent("action on S has nonzero fixed vectors")
    phi = euler_phi(m)
    gram_S = form_gram_on(L, s_basis)

    def pair(x, y):
        return la.form(gram_S, x, y)

    def cyclic_span(v):
        vecs = [tuple(v)]
        for _ in range(phi - 1):
            vecs.append(la.mat_vec(R, vecs[-1]))
        return vecs

    def singular(W):
        return la.rank([[pair(a, b) for b in W] for a in W]) < len(W)

    factors, repaired, space_eqs = [], 0, []
    while True:
        cands, c = la.scaled_nullspace(space_eqs or [(0,) * k])
        if not cands:
            break
        v = cands[0]
        W = cyclic_span(v)
        if singular(W):
            mate = next((u for u in cands[1:] if any(pair(w, u) != 0 for w in W)), None)
            if mate is None:
                raise RuntimeError("no mate pairs with a q-trivial factor")
            u = mate
            for j in range(m + 1):
                W = cyclic_span(la.vec_add(v, u))
                if not singular(W):
                    break
                u = la.mat_vec(R, u) if j < m - 1 else la.vec_scale(-1, mate)
            else:
                raise RuntimeError("no v + R^j mate or v - mate repairs a q-trivial factor")
            repaired += 1
        factors.append((W, c))
        space_eqs += [la.mat_vec(gram_S, w) for w in W]
        if len(factors) * phi >= k:
            break
    return CyclotomicCertificate(
        m=m,
        d=len(factors),
        rank=k,
        factor_bases=tuple(tuple(tuple(Fraction(x, c) for x in w) for w in W)
                           for W, c in factors),
        nondegenerate=not any(singular(f) for f, _ in factors),
        orthogonal=all(pair(a, b) == 0
                       for (f1, _), (f2, _) in itertools.combinations(factors, 2)
                       for a in f1 for b in f2),
        repaired_pairs=repaired,
    )


def reference_classify(g, L):
    """classify_ramification over the divisor loop and the la.form certificate."""
    report = divisor_loop_fixed_sublattice(g, L)
    m = report.r_tau
    notes, decomposition, field = [], None, None
    if m == 1:
        cls = INTERIOR_UNRAMIFIED if not report.s_perp_basis else HEEGNER_REFLECTION
        if cls == HEEGNER_REFLECTION:
            notes.append(f"codimension-{len(report.s_perp_basis)} cycle driven by the "
                         "pointwise-fixing group of S-perp")
    elif m == 2:
        cls = MINUS_IDENTITY
        notes.append("acts trivially on the cycle; quotient effect equals -g on S-perp")
    else:
        cls, field = SPECIAL_CYCLE, f"Q(zeta_{m})"
        decomposition = form_certificate(g, L, report.s_basis)
        notes.append(f"CM field {field}; certificate d*phi(m) = "
                     f"{decomposition.d}*{euler_phi(m)} = {decomposition.rank}")
    return replace(report, classification=cls, field_descriptor=field,
                   decomposition=decomposition, notes=tuple(notes))


def reference_ramify_rows(pool, L):
    """cli.cmd_ramify's row loop before sharing: one classification per
    element of finite order, each from that element's own order and traces."""
    rows = []
    for g in pool:
        row = {
            "matrix": io.matrix_to_json(g.mat),
            "order": g.order,
        }
        if g.order is None:
            row["classification"] = "skipped: infinite order"
        else:
            try:
                rep = classify_ramification(g, L)
                row.update(
                    {
                        "classification": rep.classification,
                        "r_tau": rep.r_tau,
                        "field": rep.field_descriptor,
                        "s_rank": len(rep.s_basis),
                        "s_perp_rank": len(rep.s_perp_basis),
                    }
                )
                if rep.decomposition is not None:
                    row["decomposition_verified"] = rep.decomposition.verified
            except NoPositiveEigenplane:
                row["classification"] = "skipped: no positive eigenplane"
            except NotRootOfUnity:
                row["classification"] = "skipped: not finite order"
        rows.append(row)
    return rows


# ---------------------------------------------------------------- strategies


@st.composite
def integral_grams(draw, ranks=(2, 3), entries=2, dens=(1,)):
    """Symmetric Grams: int entries, over a denominator d drawn from dens when d > 1."""
    m = draw(st.sampled_from(ranks))
    d = draw(st.sampled_from(dens))
    G = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            x = draw(st.integers(-entries, entries))
            G[i][j] = G[j][i] = x if d == 1 else Fraction(x, d)
    return G


def nondegenerate(G):
    return la.determinant(la.mat(G)) != 0


# ---------------------------------------------------------------- properties


@settings(max_examples=20, deadline=None, derandomize=True)
@given(integral_grams(), st.integers(1, 2))
def test_isometries_match_box_scan(G, bound):
    assume(nondegenerate(G))
    pool = enumerate_isometries(QuadraticLattice(G), bound)
    want = box_scan_isometries(G, bound)
    assert [g.mat for g in pool] == [la.mat(g) for g in want]
    for g in pool:
        assert g.order == capped_order(g.mat)


@PROPERTY
@given(integral_grams(ranks=(2, 3)), st.sampled_from([None, 2, 3, 4]))
def test_gram_preservers_match_closure_in_order(A, mod):
    domain = list(itertools.product(range(mod) if mod else range(-1, 2), repeat=len(A)))
    got = list(la.gram_preservers(A, domain, mod))
    assert got == list(closure_gram_preservers(A, domain, mod))
    assert got == list(plain_gram_preservers(A, domain, mod))


# at rank 4 or mod 9 a group can have hundreds of thousands of elements, so
# these draws are compared on their first PREFIX terms (all of them when
# there are fewer)
PREFIX = 200


@PROPERTY
@given(st.one_of(
    st.tuples(integral_grams(ranks=(4,)), st.sampled_from([None, 2, 3, 4, 9])),
    st.tuples(integral_grams(ranks=(2, 3)), st.just(9))))
def test_gram_preservers_match_closure_prefix_at_rank_4_and_mod_9(case):
    A, mod = case
    domain = list(itertools.product(range(mod) if mod else range(-1, 2), repeat=len(A)))
    got = list(itertools.islice(la.gram_preservers(A, domain, mod), PREFIX))
    assert got == list(itertools.islice(closure_gram_preservers(A, domain, mod), PREFIX))
    assert got == list(itertools.islice(plain_gram_preservers(A, domain, mod), PREFIX))


@st.composite
def cyclotomic_conjugates(draw):
    """P C P^-1 over Fraction, with C block diagonal in cyclotomic
    companions: finite-order matrices of rank 2 to 4 with Fraction entries."""
    blocks, n = [], 0
    while n < 2 or draw(st.booleans()) and n < 4:
        order = draw(st.sampled_from([k for k in range(1, 13) if euler_phi(k) <= 4 - n]))
        coeffs = _cyclotomic_coeffs(order)
        d = len(coeffs) - 1
        blocks.append([[int(i == j + 1) for j in range(d - 1)] + [-coeffs[i]]
                       for i in range(d)])
        n += d
    C = [[0] * n for _ in range(n)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            C[at + i][at:at + len(row)] = row
        at += len(block)
    P = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    assume(la.determinant(P) not in (0, 1, -1))
    return la.mat_mul(la.mat_mul(P, C), la.inverse(P))


@st.composite
def unipotents(draw):
    """I + N with N strictly upper triangular, conjugated by a signed
    permutation: infinite order unless N = 0, and trace n throughout."""
    n = draw(st.integers(1, 4))
    U = [[1 if i == j else draw(st.integers(-2, 2)) if j > i else 0 for j in range(n)]
         for i in range(n)]
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    return tuple(tuple(signs[i] * signs[j] * U[perm[i]][perm[j]] for j in range(n))
                 for i in range(n))


SMALL_INT_MATRICES = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple),
    min_size=n, max_size=n).map(tuple))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(SMALL_INT_MATRICES, unipotents(), cyclotomic_conjugates()))
@example(((-1, 0), (0, -1)))  # order 2 at trace -n
@example(((1, 0, 0), (0, 0, -1), (0, 1, 1)))  # order 6 at trace n - 1
def test_matrix_order_matches_power_loop(g):
    assert matrix_order(g) == power_loop_order(g)


def test_gram_preservers_leave_no_reference_cycles():
    A = ((1, 0, 0), (0, 1, 0), (0, 0, -1))
    gc.collect()
    gc.disable()
    try:
        found = list(la.gram_preservers(A, itertools.product(range(-1, 2), repeat=3)))
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert len(found) == 16 and unreachable == 0


@PROPERTY
@given(integral_grams(ranks=(2,), entries=6), st.sampled_from([(3, 1), (3, 2), (5, 1)]))
def test_congruence_counts_match_full_scan(A, pk):
    p, k = pk
    assert _count_gram_preservers(A, 2, p**k) == scan_count(A, 2, p**k)


@settings(max_examples=3, deadline=None, derandomize=True)
@given(integral_grams(ranks=(2,), entries=6))
def test_congruence_counts_match_full_scan_mod_25(A):
    assert _count_gram_preservers(A, 2, 25) == scan_count(A, 2, 25)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(integral_grams(dens=(2, 3, 6)))
def test_rational_gram_isometries_match_box_scan_of_integer_multiple(G):
    L = QuadraticLattice(G)
    assume(nondegenerate(G) and L.den > 1)
    pool = enumerate_isometries(L, 1)
    want = box_scan_isometries(la.mat_scale(L.den, L.gram), 1)
    assert [g.mat for g in pool] == [la.mat(g) for g in want]


@PROPERTY
@given(integral_grams(ranks=(2, 3, 4), entries=3, dens=(1, 2, 3)), st.data())
def test_int_bilinear_matches_fraction_form(G, data):
    L = QuadraticLattice(G)
    vecs = st.lists(st.integers(-5, 5), min_size=L.rank, max_size=L.rank).map(tuple)
    x, y = data.draw(vecs), data.draw(vecs)
    got = L.bilinear(x, y)
    assert type(got) is Fraction and got == fraction_form(G, x, y)
    assert L.bilinear(la.vec(x), la.vec(y)) == got


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_int_products_stay_int_and_match_fraction_products(n, m, data):
    ints = st.integers(-9, 9)
    A = data.draw(st.lists(st.lists(ints, min_size=m, max_size=m).map(tuple),
                           min_size=n, max_size=n).map(tuple))
    B = data.draw(st.lists(st.lists(ints, min_size=n, max_size=n).map(tuple),
                           min_size=m, max_size=m).map(tuple))
    u = data.draw(st.lists(ints, min_size=m, max_size=m).map(tuple))
    w = data.draw(st.lists(ints, min_size=n, max_size=n).map(tuple))

    def entries(x):
        return [y for z in x for y in entries(z)] if isinstance(x, tuple) else [x]

    def fractions(x):
        return tuple(map(fractions, x)) if isinstance(x, tuple) else Fraction(x)

    for fn, args in ((la.mat_mul, (A, B)), (la.mat_vec, (A, u)), (la.dot, (w, w)),
                     (la.form, (A, u, w))):
        got = fn(*args)
        assert all(type(x) is int for x in entries(got)), fn.__name__
        assert fn(*map(fractions, args)) == got, fn.__name__


def fraction_contains(cone, v, closed):
    q, s = fraction_form(cone.lattice.gram, v, v), la.dot(cone.side, la.vec(v))
    return q >= 0 and s >= 0 if closed else q > 0 and s > 0


@PROPERTY
@given(st.sampled_from([1, 2, 3]), st.sampled_from([1, 2, 3]), st.sampled_from([1, 2, 3]),
       st.data())
def test_int_cone_tests_match_fraction_inputs(k, gram_den, inner_den, data):
    # light_cone(k), and the same quadric over gram_den with a non-identity
    # inner form over inner_den
    G = la.mat_scale(Fraction(1, gram_den), light_cone(k).lattice.gram)
    inner = [[Fraction(2 if i == j else int(i + j == 1), inner_den) for j in range(k + 1)]
             for i in range(k + 1)]
    for cone in (light_cone(k), SelfAdjointCone(G, (2,) + (1,) * k, inner=inner)):
        vecs = st.lists(st.integers(-4, 4), min_size=k + 1, max_size=k + 1).map(tuple)
        v, w = data.draw(vecs), data.draw(vecs)
        for closed in (False, True):
            want = fraction_contains(cone, v, closed)
            assert cone.contains(v, closed) == cone.contains(la.vec(v), closed) == want
        got = cone.pair(v, w)
        assert type(got) is Fraction and got == fraction_form(cone.inner, v, w)
        assert cone.pair(la.vec(v), la.vec(w)) == got


# ---------------------------------------------------------------- explicit


def test_scaled_int_reads_entries_exactly():
    assert la.scaled_int([[0.5, "1/3"], [2, Fraction(1, 6)]]) == (((3, 2), (12, 1)), 6)
    assert la.primitive((0.5, "3/2")) == (1, 3)
    assert la.kernel_int([["1/2", 0.5]]) == la.kernel_int([[1, 1]])


def test_g4_bound_1_group():
    pool = enumerate_isometries(QuadraticLattice([[1, 0, 0, 0], [0, 1, 0, 0],
                                                  [0, 0, -1, 0], [0, 0, 0, -1]]), 1)
    assert len(pool) == 576
    assert sum(g.order is None for g in pool) == 448


def test_diag_11m1_count_at_3():
    A = [[1, 0, 0], [0, 1, 0], [0, 0, -1]]
    assert _count_gram_preservers(A, 3, 3) == 48 == scan_count(A, 3, 3)


def test_diag_11m1_count_at_27():
    # about a second with forward checking; the plain search took 15-18 s
    assert _count_gram_preservers([[1, 0, 0], [0, 1, 0], [0, 0, -1]], 3, 27) == 34992


def test_uu_minus_2_bound_1_group():
    G = [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 1, 0, 0],
         [0, 0, 0, 0, -2]]
    assert len(enumerate_isometries(QuadraticLattice(G), 1)) == 1600


def certificate_outcome(fn, *args):
    """The certificate's fields, or the domain error's type and message."""
    try:
        cert = fn(*args)
    except OrthocuspError as e:
        return type(e).__name__, str(e)
    return (cert.m, cert.d, cert.rank, cert.factor_bases, cert.nondegenerate,
            cert.orthogonal, cert.repaired_pairs, cert.verified)


@pytest.mark.parametrize("G, bound, repairs", [
    ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]], 1, False),
    ([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], 1, True),
    ([[2, 1, 0], [1, 2, 0], [0, 0, -1]], 2, False),
], ids=["g4", "u+u", "a2+<-1>"])
def test_integer_certificate_matches_fraction_certificate(G, bound, repairs):
    L = QuadraticLattice(G)
    finite = [g for g in enumerate_isometries(L, bound) if g.order is not None]
    certificates = []
    for g in finite:
        want = certificate_outcome(fraction_cyclotomic_decomposition, g, L)
        assert certificate_outcome(cyclotomic_decomposition, g, L) == want, g.mat
        if len(want) > 2:
            certificates.append(want)
        try:
            s_basis = fixed_sublattice(g, L).s_basis
        except NoPositiveEigenplane:
            continue
        assert certificate_outcome(cyclotomic_decomposition, g, L, s_basis) == \
            certificate_outcome(fraction_cyclotomic_decomposition, g, L, s_basis)
    assert certificates
    assert any(c[6] for c in certificates) == repairs  # U+U has q-trivial factors


def classification_outcome(g, L, classify=classify_ramification):
    """The full report (certificate included), or the domain error's type."""
    try:
        return classify(g, L)
    except OrthocuspError as e:
        return type(e)


def kernel_ranks(g):
    """{m: rank of ker Phi_m(g)} over every divisor m of g's order."""
    powers = [la.identity(len(g.mat))]
    while len(powers) <= max(euler_phi(m) for m in _divisors(g.order)):
        powers.append(la.mat_mul(powers[-1], g.mat))
    return {m: len(la.kernel_int(_matrix_poly(_cyclotomic_coeffs(m), powers)))
            for m in _divisors(g.order)}


@pytest.mark.parametrize("G, bound", [
    ([[1, 0], [0, 1]], 1),
    ([[2, 1], [1, 2]], 1),
    ([[1, 0, 0], [0, 1, 0], [0, 0, -1]], 1),
    ([[Fraction(1, 2), 0, 0], [0, Fraction(1, 2), 0], [0, 0, Fraction(-1, 2)]], 1),
    ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]], 1),
    ([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], 1),
    ([[2, 1, 0], [1, 2, 0], [0, 0, -1]], 2),
    ([[0, 1, 0], [1, 0, 0], [0, 0, -2]], 2),
], ids=["diag11", "a2", "sig21", "sig21-half", "g4", "u+u", "a2m1-b2", "um2-b2"])
def test_classification_matches_divisor_loop_and_form_certificate(G, bound):
    L = QuadraticLattice(G)
    outcomes = set()
    for g in enumerate_isometries(L, bound):
        if g.order is None:
            continue
        got = classification_outcome(g, L)
        assert got == classification_outcome(g, L, reference_classify), g.mat
        # the carried traces are those of the powers, and each one's
        # character multiplicity is the rank of its kernel
        assert _order_traces(g.mat)[:2] == (g.order, g.traces)
        assert _multiplicities(g.traces) == kernel_ranks(g), g.mat
        if isinstance(got, FixedLocusReport):
            outcomes.add(got.classification)
            if got.classification == SPECIAL_CYCLE:
                R = restriction_matrix(g.mat, got.s_basis)
                assert matrix_order(R) == got.r_tau == got.decomposition.m
        else:
            outcomes.add(got)
    assert NoPositiveEigenplane in outcomes  # and some reports when the signature is (2, *)
    assert (INTERIOR_UNRAMIFIED in outcomes) == (int_signature(L.scaled_gram)[0] == 2)


def test_fraction_conjugates_classify_as_the_reference():
    # the conjugates of TestClassification.test_conjugation_invariance:
    # Fraction entries and a caller-given order, so no carried traces
    rng = random.Random(313)
    L = QuadraticLattice([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
    pool = enumerate_isometries(L, 1)
    classifiable = [g for g in pool if g.order is not None
                    and not isinstance(classification_outcome(g, L), type)]
    hs = rng.sample(pool, 10)
    special = 0
    for g in rng.sample(classifiable, 10):
        for h in hs:
            conj = IsometryElement(la.mat_mul(la.mat_mul(h.mat, g.mat), la.inverse(h.mat)),
                                   g.order)
            assert conj.traces is None
            got = classification_outcome(conj, L)
            assert got == classification_outcome(conj, L, reference_classify), conj.mat
            special += getattr(got, "classification", None) == SPECIAL_CYCLE
    assert special


U_PLUS_U = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
A2M1 = [[2, 1, 0], [1, 2, 0], [0, 0, -1]]


@pytest.mark.parametrize("G, bound", [
    ([[1, 0], [0, 1]], 1),
    ([[2, 1], [1, 2]], 1),
    ([[1, 0, 0], [0, 1, 0], [0, 0, -1]], 1),
    ([[1, 0, 0], [0, 1, 0], [0, 0, -1]], 3),
    (A2M1, 2),
    ([[0, 1, 0], [1, 0, 0], [0, 0, -2]], 2),
    ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]], 1),
    (U_PLUS_U, 1),
    (U_PLUS_U, 2),
    ([row + [0] for row in U_PLUS_U] + [[0, 0, 0, 0, -2]], 1),
    ([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, -2, -1], [0, 0, -1, -2]], 1),
], ids=["diag11", "a2", "sig21", "sig21-b3", "a2m1-b2", "um2-b2", "g4", "u+u",
        "u+u-b2", "u+u+<-2>", "a2+a2(-1)"])
def test_shared_ramify_rows_match_per_element_rows(G, bound, tmp_path):
    # the rows of a subgroup's other generators are copied from its first
    # element's; the reference classifies every element on its own data
    L = QuadraticLattice(G)
    pool = enumerate_isometries(L, bound)
    own = [IsometryElement(g.mat, *_order_traces(g.mat)[:2]) for g in pool]
    for g, h in zip(pool, own):
        assert (g.order, g.traces) == (h.order, h.traces), g.mat
    finite = [g for g in pool if g.order is not None]
    assert len({g.subgroup for g in finite}) < len(finite)  # some rows are shared
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps({"gram": G}))
    got = cmd_ramify(argparse.Namespace(gram=str(gram), bound=bound))["results"]
    got = json.loads(io.dumps_canonical(got))
    assert got["elements"] == json.loads(io.dumps_canonical(reference_ramify_rows(own, L)))
    if G is A2M1:  # rows i and ~i are g and -g: a twin pair with odd m >= 3
        rows = got["elements"]
        assert (3, 6) in {(a.get("r_tau"), b.get("r_tau")) for a, b in zip(rows, reversed(rows))}
