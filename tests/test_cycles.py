"""Isometry enumeration, fixed sublattices, and ramification types."""

import math
import random
from fractions import Fraction as F

import pytest

from orthocusp import _linalg as la
from orthocusp.cycles import (
    HEEGNER_REFLECTION,
    INTERIOR_UNRAMIFIED,
    MINUS_IDENTITY,
    SPECIAL_CYCLE,
    CyclotomicCertificate,
    IsometryElement,
    _cyclotomic_coeffs,
    _twin_index,
    chi_order_at,
    classify_ramification,
    classify_subgroups,
    cyclotomic_decomposition,
    double_perp,
    enumerate_isometries,
    euler_phi,
    fixed_sublattice,
    gamma_canonical,
    matrix_order,
    max_finite_order,
    restriction_matrix,
    stabilizer_orders,
)
from orthocusp.errors import FixedVectorPresent, NoPositiveEigenplane, NotRootOfUnity
from orthocusp.qform import QuadraticLattice

DIAG11 = QuadraticLattice([[1, 0], [0, 1]])
A2 = QuadraticLattice([[2, 1], [1, 2]])
SIG21 = QuadraticLattice([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
SIG22 = QuadraticLattice([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])

J2 = ((0, -1), (1, 0))
JJ = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))


def elem(mat, lattice):
    return IsometryElement.make(mat, lattice)


class TestEnumerate:
    def test_contains_plus_minus_identity(self):
        for L in (DIAG11, A2):
            mats = [g.mat for g in enumerate_isometries(L, 1)]
            assert la.identity(2) in mats
            assert la.mat_scale(F(-1), la.identity(2)) in mats

    def test_diag11_dihedral_order_8(self):
        assert len(enumerate_isometries(DIAG11, 1)) == 8

    def test_a2_hexagonal_order_12(self):
        assert len(enumerate_isometries(A2, 1)) == 12

    def test_orders_divide_group_order(self):
        for L, n in ((DIAG11, 8), (A2, 12)):
            for g in enumerate_isometries(L, 1):
                assert g.order is not None and n % g.order == 0


class TestCarriedTraces:
    def test_enumerated_elements_equal_elements_without_traces(self):
        for g in enumerate_isometries(SIG22, 1):
            plain = IsometryElement(g.mat, g.order)
            assert plain.traces is None and (g.traces is None) == (g.order is None)
            assert g == plain and hash(g) == hash(plain) and repr(g) == repr(plain)

    def test_subgroup_key_is_shared_by_generators_and_not_compared(self):
        pool = enumerate_isometries(SIG22, 1)
        by_mat = {g.mat: g for g in pool}
        for g in pool:
            plain = IsometryElement(g.mat, g.order, g.traces)
            assert g == plain and hash(g) == hash(plain) and repr(g) == repr(plain)
            if g.order is None:
                assert g.subgroup is None
                continue
            # every generator of <g> that the pool holds carries the same key,
            # the least of them
            power, generators = g.mat, []
            for k in range(1, g.order + 1):
                if math.gcd(k, g.order) == 1 and power in by_mat:
                    generators.append(power)
                power = la.mat_mul(power, g.mat)
            assert {by_mat[h].subgroup for h in generators} == {min(generators)}

    def test_made_elements_carry_their_traces(self):
        assert elem(J2, DIAG11).traces == (2, 0, -2, 0)
        assert elem(la.identity(2), DIAG11).traces == (2,)

    def test_caller_order_must_be_an_order(self):
        # J2 squares to -I: order 2 is refused before any kernel is taken
        with pytest.raises(NotRootOfUnity, match="order dividing 2"):
            fixed_sublattice(IsometryElement(J2, 2), DIAG11)
        with pytest.raises(NotRootOfUnity):
            classify_ramification(IsometryElement(la.mat(J2), 2), DIAG11)
        # a multiple of the order is an order
        rep = fixed_sublattice(IsometryElement(J2, 8), DIAG11)
        assert rep == fixed_sublattice(elem(J2, DIAG11), DIAG11)

    def test_traces_that_do_not_fit_g_are_refused(self):
        with pytest.raises(NotRootOfUnity, match="do not sum to the rank"):
            fixed_sublattice(IsometryElement(J2, 4, (3, 0, 0, 0)), DIAG11)
        with pytest.raises(NotRootOfUnity, match="has rank 0, not 1"):
            fixed_sublattice(IsometryElement(J2, 4, (2, 0, 2, 0)), DIAG11)


class TestTwins:
    def test_cyclotomic_twin_lemma(self):
        # Phi_m'(-x) = +-Phi_m(x), so ker Phi_m'(-g) = ker Phi_m(g)
        for m in range(1, 121):
            twin = _twin_index(m)
            at_minus_x = tuple((-1) ** i * c for i, c in enumerate(_cyclotomic_coeffs(twin)))
            phi = _cyclotomic_coeffs(m)
            assert at_minus_x in (phi, tuple(-c for c in phi)), m
            assert _twin_index(twin) == m

    def test_pool_negation_reverses_the_order(self):
        for L in (DIAG11, A2, SIG21, SIG22):
            pool = enumerate_isometries(L, 1)
            assert all(pool[~i].mat == la.mat_scale(-1, g.mat) for i, g in enumerate(pool))

    def test_twin_subgroups_classify_as_their_own_elements(self):
        A2M1 = QuadraticLattice([[2, 1, 0], [1, 2, 0], [0, 0, -1]])
        for L, bound in ((SIG22, 1), (A2M1, 2)):
            pool = enumerate_isometries(L, bound)
            out = classify_subgroups(pool, L)
            for g in pool:
                if g.order is None:
                    assert g.subgroup is None
                    continue
                try:
                    own = classify_ramification(g, L)
                except NoPositiveEigenplane as e:
                    assert out[g.subgroup] is type(e), g.mat
                    continue
                got = out[g.subgroup]
                assert (got.classification, got.r_tau, got.lambda_exponent, got.field_descriptor,
                        len(got.s_basis), len(got.s_perp_basis)) == (
                    own.classification, own.r_tau, own.lambda_exponent, own.field_descriptor,
                    len(own.s_basis), len(own.s_perp_basis)), g.mat
            r_taus = {(out[g.subgroup].r_tau, out[pool[~i].subgroup].r_tau)
                      for i, g in enumerate(pool) if hasattr(out.get(g.subgroup), "r_tau")}
            assert all(b == _twin_index(a) for a, b in r_taus)
        assert (3, 6) in r_taus  # a twin with odd m >= 3


class TestFixedSublattice:
    def test_identity_gives_whole_lattice(self):
        rep = fixed_sublattice(elem(la.identity(2), DIAG11), DIAG11)
        assert len(rep.s_basis) == 2
        assert rep.s_perp_basis == ()
        assert rep.r_tau == 1

    def test_minus_identity(self):
        g = elem(la.mat_scale(F(-1), la.identity(2)), DIAG11)
        rep = fixed_sublattice(g, DIAG11)
        assert len(rep.s_basis) == 2
        assert rep.r_tau == 2

    def test_reflection_on_definite_has_no_plane(self):
        g = elem([[1, 0], [0, -1]], DIAG11)
        with pytest.raises(NoPositiveEigenplane):
            fixed_sublattice(g, DIAG11)

    def test_corank1_reflection_on_sig21(self):
        g = elem([[1, 0, 0], [0, 1, 0], [0, 0, -1]], SIG21)
        rep = fixed_sublattice(g, SIG21)
        assert rep.r_tau == 1
        assert len(rep.s_basis) == 2 and len(rep.s_perp_basis) == 1
        # the defining equation of D_{L,S} is b(z, e3) = 0
        assert rep.defining_equations == ((F(0), F(0), F(-1)),)

    def test_double_perp_idempotence(self):
        for L, vectors in ((SIG21, [(1, 0, 0), (0, 1, 0)]), (SIG22, [(1, 0, 0, 0)])):
            S = double_perp(L, vectors)
            SS = double_perp(L, double_perp(L, S))
            assert la.rank(S) == la.rank(SS)
            for v in S:
                assert la.in_span(v, SS)


class TestChiOrder:
    def test_identity(self):
        (k, m), r = chi_order_at(elem(la.identity(2), DIAG11), DIAG11)
        assert (k, m, r) == (0, 1, 1)

    def test_minus_identity(self):
        g = elem(la.mat_scale(F(-1), la.identity(2)), DIAG11)
        (k, m), r = chi_order_at(g, DIAG11)
        assert (m, r) == (2, 2)

    def test_j_rotation_order_4(self):
        (k, m), r = chi_order_at(elem(J2, DIAG11), DIAG11)
        assert (k, m, r) == (1, 4, 4)

    def test_jj_on_sig22(self):
        (k, m), r = chi_order_at(elem(JJ, SIG22), SIG22)
        assert (m, r) == (4, 4)

    def test_kernel_criterion_on_enumerated_groups(self):
        for L in (DIAG11, A2):
            skipped = 0
            for g in enumerate_isometries(L, 1):
                try:
                    chi_order_at(g, L)  # raises AssertionError on violation
                except NoPositiveEigenplane:
                    skipped += 1
            # the reflections (half of each dihedral group) are skipped
            assert skipped == len(enumerate_isometries(L, 1)) // 2


class TestCyclotomicDecomposition:
    def test_j_on_diag11(self):
        cert = cyclotomic_decomposition(elem(J2, DIAG11), DIAG11)
        assert cert.m == 4 and cert.d == 1 and cert.rank == 2
        assert cert.verified

    def test_jj_on_sig22(self):
        cert = cyclotomic_decomposition(elem(JJ, SIG22), SIG22)
        assert cert.m == 4 and cert.d == 2 and cert.rank == 4
        assert cert.verified

    def test_order3_on_a2(self):
        g = elem([[-1, -1], [1, 0]], A2)
        assert g.order == 3
        cert = cyclotomic_decomposition(g, A2)
        assert cert.m == 3 and cert.d == 1 and cert.rank == 2
        assert cert.verified

    def test_restriction_is_int_rows(self):
        R = restriction_matrix(la.mat(JJ), ((1, 0, 0, 0), (0, 1, 0, 0)))
        assert R == ((0, -1), (1, 0))
        assert all(type(x) is int for row in R for x in row)

    def test_phi_divides_rank(self):
        for L, mat in ((DIAG11, J2), (SIG22, JJ)):
            cert = cyclotomic_decomposition(elem(mat, L), L)
            assert cert.rank % euler_phi(cert.m) == 0

    def test_non_coordinate_aligned_factors(self):
        # conjugate J+J by a unimodular mix so factors are not coordinate
        # planes; the complement search must still find a second factor
        base = JJ
        U = la.mat(((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
        Ui = la.inverse(U)
        g = la.mat_mul(la.mat_mul(U, la.mat(base)), Ui)
        G = la.mat_mul(la.mat_mul(la.transpose(Ui), SIG22.gram), Ui)
        L = QuadraticLattice(G)
        cert = cyclotomic_decomposition(IsometryElement.make(g, L), L)
        assert cert.d == 2 and cert.rank == 4 and cert.verified

    def test_fixed_vector_raises(self):
        g = elem(la.identity(2), DIAG11)
        # restrict to S = L with m = 1: the action has fixed vectors but m=1
        # is allowed; force the check with a reflection-like block on SIG21
        h = elem([[1, 0, 0], [0, -1, 0], [0, 0, -1]], SIG21)
        with pytest.raises(FixedVectorPresent):
            cyclotomic_decomposition(h, SIG21, s_basis=((1, 0, 0), (0, 1, 0)))


class TestClassification:
    def test_identity(self):
        rep = classify_ramification(elem(la.identity(3), SIG21), SIG21)
        assert rep.classification == INTERIOR_UNRAMIFIED

    def test_minus_identity(self):
        g = elem(la.mat_scale(F(-1), la.identity(3)), SIG21)
        rep = classify_ramification(g, SIG21)
        assert rep.classification == MINUS_IDENTITY

    def test_corank1_reflection(self):
        g = elem([[1, 0, 0], [0, 1, 0], [0, 0, -1]], SIG21)
        rep = classify_ramification(g, SIG21)
        assert rep.classification == HEEGNER_REFLECTION
        assert len(rep.s_perp_basis) == 1

    def test_jj_special_cycle(self):
        rep = classify_ramification(elem(JJ, SIG22), SIG22)
        assert rep.classification == SPECIAL_CYCLE
        assert rep.field_descriptor == "Q(zeta_4)"
        assert rep.decomposition is not None and rep.decomposition.verified
        assert rep.decomposition.d == 2

    def test_conjugation_invariance(self):
        rng = random.Random(313)
        pool = enumerate_isometries(SIG22, 1)
        classifiable = []
        for g in pool:
            if g.order is None:
                continue
            try:
                classifiable.append((g, classify_ramification(g, SIG22)))
            except NoPositiveEigenplane:
                continue
        hs = rng.sample(pool, 10)
        checked = 0
        for g, rep in rng.sample(classifiable, min(10, len(classifiable))):
            for h in hs:
                hg = la.mat_mul(la.mat_mul(h.mat, g.mat), la.inverse(h.mat))
                conj = IsometryElement(mat=hg, order=g.order)
                try:
                    rep2 = classify_ramification(conj, SIG22)
                except (NoPositiveEigenplane, NotRootOfUnity):
                    continue
                assert rep2.classification == rep.classification
                assert rep2.r_tau == rep.r_tau
                checked += 1
        assert checked > 10


class TestInfiniteOrder:
    def test_fixed_sublattice_rejects_infinite_order(self):
        # hyperbolic boost on the even unimodular plane: infinite order
        H = QuadraticLattice([[0, 1], [1, 0]])
        g = IsometryElement.make([[2, 0], [0, F(1, 2)]], H)
        assert g.order is None
        with pytest.raises(NotRootOfUnity):
            fixed_sublattice(g, H)


def _companion(coeffs):
    """Companion matrix of the monic polynomial with ascending coeffs."""
    n = len(coeffs) - 1
    return [[int(i == j + 1) if j < n - 1 else -coeffs[i] for j in range(n)]
            for i in range(n)]


def _block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    k = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[k + i][k:k + len(row)] = row
        k += len(b)
    return out


class TestOrderBound:
    def test_max_finite_orders_by_rank(self):
        assert [max_finite_order(m) for m in range(1, 13)] == \
            [2, 6, 6, 12, 12, 30, 30, 60, 60, 120, 120, 210]

    def test_order_210_at_rank_12(self):
        # -(C(Phi_3) + C(Phi_5) + C(Phi_7)): order lcm(2, 3 * 5 * 7), beyond a cap of 120
        g = _block_diag(_companion([1, 1, 1]), _companion([1, 1, 1, 1, 1]),
                        _companion([1, 1, 1, 1, 1, 1, 1]))
        g = [[-x for x in row] for row in g]
        assert matrix_order(g) == 210
        assert matrix_order(la.mat(g)) == 210

    def test_maximal_orders_are_reached(self):
        # -C(Phi_3) has order 6 at rank 2; -(C(Phi_3) + C(Phi_5)) order 30 at rank 6
        assert matrix_order([[-x for x in row] for row in _companion([1, 1, 1])]) == 6
        g = _block_diag(_companion([1, 1, 1]), _companion([1, 1, 1, 1, 1]))
        assert matrix_order([[-x for x in row] for row in g]) == 30

    def test_rational_boost_has_no_order(self):
        assert matrix_order([[2, 0], [0, F(1, 2)]]) is None
        assert matrix_order(la.mat([[1, 1], [0, 1]])) is None


class TestStabilizerOrders:
    def test_reports_pool_orders(self):
        pool = enumerate_isometries(SIG21, 1)
        g = elem([[1, 0, 0], [0, 1, 0], [0, 0, -1]], SIG21)
        rep = fixed_sublattice(g, SIG21)
        orders = stabilizer_orders(SIG21, rep.s_basis, pool)
        assert orders["gamma_S"] >= orders["gamma_tilde_S"] >= 1
        assert orders["gamma_bar_S"] >= 1


class TestGammaCanonical:
    def test_examples(self):
        assert gamma_canonical([F(1, 2), F(1, 2)])
        assert gamma_canonical([F(1, 3), F(2, 3)])
        assert not gamma_canonical([F(1, 4), F(1, 4)])
        assert gamma_canonical([F(5, 4), F(3, 4)])  # fractional parts 1/4+3/4
