"""Parabolic data: unipotent displays, cones, Phi, Levi pieces, adjacency."""

import random
from fractions import Fraction as F

import pytest

from orthocusp import _linalg as la
from orthocusp.domains import KappaClass, in_kappa, standard_bounded_frame
from orthocusp.errors import NotInParabolic, UnsupportedShape, WrongFlagKind
from orthocusp.gaussian import GaussianRational as GR
from orthocusp.parab import (
    AdjacencyRecord,
    CuspFlag,
    adjacency_data,
    boundary_data,
    build_unipotent,
    center_element,
    chart_coords,
    is_in_unipotent,
    levi_cone_action,
    levi_project,
    omega_member,
    phi_alpha,
    stabilizes_flag,
    unipotent_params,
)
from orthocusp.qform import QuadraticLattice, standard_atilde

L5 = standard_atilde(3)  # rank 5, n = 3, block (-2)
L4 = standard_atilde(2)  # rank 4, n = 2, empty block
F1 = CuspFlag.from_lattice(L5, "rank1")
F2 = CuspFlag.from_lattice(L5, "rank2")


def rand_params_rank1(rng, n):
    return (F(rng.randint(-3, 3), rng.randint(1, 3)),
            F(rng.randint(-3, 3), rng.randint(1, 3)),
            tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n - 2)))


def rand_params_rank2(rng, n):
    return (tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n - 2)),
            tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n - 2)),
            F(rng.randint(-3, 3), rng.randint(1, 3)))


class TestBuildUnipotent:
    def test_zero_params_identity(self):
        n = F1.n
        assert la.mat_eq(build_unipotent(F1, (0, 0, (0,) * (n - 2))), la.identity(n + 2))
        z = (0,) * (n - 2)
        assert la.mat_eq(build_unipotent(F2, (z, z, 0)), la.identity(n + 2))

    def test_worked_example(self):
        g = build_unipotent(F1, (1, 0, (0,)))
        assert g[0][1] == F(-1)
        assert g[0][2] == F(0)
        G = L5.gram
        assert la.mat_eq(la.mat_mul(la.mat_mul(la.transpose(g), G), g), G)

    def test_preserves_gram_random(self):
        rng = random.Random(41)
        G = L5.gram
        for _ in range(25):
            g1 = build_unipotent(F1, rand_params_rank1(rng, F1.n))
            g2 = build_unipotent(F2, rand_params_rank2(rng, F2.n))
            for g in (g1, g2):
                assert la.mat_eq(la.mat_mul(la.mat_mul(la.transpose(g), G), g), G)

    def test_rank1_center_additivity(self):
        rng = random.Random(43)
        for _ in range(20):
            p = rand_params_rank1(rng, F1.n)
            q = rand_params_rank1(rng, F1.n)
            s = (p[0] + q[0], p[1] + q[1], tuple(a + b for a, b in zip(p[2], q[2])))
            assert la.mat_eq(
                la.mat_mul(build_unipotent(F1, p), build_unipotent(F1, q)),
                build_unipotent(F1, s),
            )

    def test_rank2_composition_law(self):
        rng = random.Random(47)
        A = F2.block
        for _ in range(20):
            p = rand_params_rank2(rng, F2.n)
            q = rand_params_rank2(rng, F2.n)
            prod = la.mat_mul(build_unipotent(F2, p), build_unipotent(F2, q))
            yAz = sum(p[0][i] * sum(A[i][j] * q[1][j] for j in range(len(A)))
                      for i in range(len(A)))
            s = (tuple(a + b for a, b in zip(p[0], q[0])),
                 tuple(a + b for a, b in zip(p[1], q[1])),
                 p[2] + q[2] - yAz)
            assert la.mat_eq(prod, build_unipotent(F2, s))

    def test_rank2_commutators_in_center(self):
        rng = random.Random(53)
        for _ in range(20):
            g = build_unipotent(F2, rand_params_rank2(rng, F2.n))
            h = build_unipotent(F2, rand_params_rank2(rng, F2.n))
            comm = la.mat_mul(la.mat_mul(la.mat_mul(g, h), la.inverse(g)), la.inverse(h))
            y4, z4, x3 = unipotent_params(F2, comm)
            assert all(v == 0 for v in y4) and all(v == 0 for v in z4)
            assert la.mat_eq(comm, center_element(F2, comm[1][2]))

    def test_wrong_kind_raises(self):
        with pytest.raises(WrongFlagKind):
            build_unipotent(F1, ((0,), (0,), 0))


class TestIsInUnipotent:
    def test_identity(self):
        assert is_in_unipotent(la.identity(5), F1)
        assert is_in_unipotent(la.identity(5), F2)

    def test_built_elements(self):
        rng = random.Random(59)
        for _ in range(10):
            assert is_in_unipotent(build_unipotent(F1, rand_params_rank1(rng, 3)), F1)
            assert is_in_unipotent(build_unipotent(F2, rand_params_rank2(rng, 3)), F2)

    def test_levi_element_rejected(self):
        m = [[F(0)] * 5 for _ in range(5)]
        m[0][0] = F(2)
        m[2][2] = F(1, 2)
        m[1][1] = m[3][3] = m[4][4] = F(1)
        assert not is_in_unipotent(la.mat(m), F1)


class TestOmega:
    def test_rank1_examples(self):
        assert omega_member((1, 1, (0,)), F1)
        assert not omega_member((1, -1, (0,)), F1)

    def test_rank2_examples(self):
        assert omega_member((5,), F2)
        assert not omega_member((-1,), F2)

    def test_dimension_bookkeeping(self):
        b1, b2 = boundary_data(F1), boundary_data(F2)
        n = F1.n
        assert b1.u_dim + b1.v_dim + b1.f_dim == n
        assert b2.u_dim + b2.v_dim + b2.f_dim == n


class TestPhi:
    def test_rank1_paper_projection(self):
        p = (GR(5, 2), GR(7, 3), GR(-1, 0))
        assert phi_alpha(p, F1) == (F(2), F(3), (F(0),))

    def test_rank2_display(self):
        p = (GR(0, 1), GR(0, 2), GR(0, 0))
        assert phi_alpha(p, F2) == (F(4),)

    def test_domain_iff_omega_rank1(self):
        rng = random.Random(61)
        frame = standard_bounded_frame(3)
        hits = 0
        for _ in range(100):
            # sample B_alpha: quadric lift of a random chart tuple
            chart = tuple(GR(F(rng.randint(-3, 3), 2), F(rng.randint(-6, 6), 2))
                          for _ in range(3))
            v = ambient_from_chart(chart)
            member = omega_member(phi_alpha(chart, F1), F1)
            kap = in_kappa(v, frame)
            assert member == (kap == KappaClass.PLUS)
            hits += member
        assert hits > 0

    def test_domain_iff_omega_rank2(self):
        rng = random.Random(67)
        frame = standard_bounded_frame(3)
        hits = 0
        for _ in range(100):
            # sample B_alpha: chart tuple with Im(F-coordinate) > 0 built in
            chart = (GR(F(rng.randint(-3, 3), 2), F(rng.randint(1, 6), 2)),
                     GR(F(rng.randint(-3, 3), 2), F(rng.randint(-6, 6), 2)),
                     GR(F(rng.randint(-3, 3), 2), F(rng.randint(-3, 3), 2)))
            member = omega_member(phi_alpha(chart, F2), F2)
            v = ambient_from_chart(chart)
            kap = in_kappa(v, frame)
            assert member == (kap == KappaClass.PLUS)
            hits += member
        assert hits > 0

    def test_levi_equivariance_rank1(self):
        rng = random.Random(71)
        frame = standard_bounded_frame(3)
        levis = []
        for a, t in [(F(2), F(1)), (F(1), F(2)), (F(3), F(1, 2))]:
            m = [[F(0)] * 5 for _ in range(5)]
            m[0][0] = a
            m[2][2] = 1 / a
            m[1][1] = t
            m[3][3] = 1 / t
            m[4][4] = F(1)
            levis.append(la.mat(m))
        for g in levis:
            G = L5.gram
            assert la.mat_eq(la.mat_mul(la.mat_mul(la.transpose(g), G), g), G)
            for _ in range(10):
                v = tuple(GR(F(rng.randint(-3, 3), 2), F(rng.randint(-3, 3), 2))
                          for _ in range(5))
                if not v[2]:
                    continue
                chart = chart_coords(F1, v)
                gv = tuple(sum((GR(g[i][j]) * v[j] for j in range(5)), GR(0))
                           for i in range(5))
                lhs = phi_alpha(chart_coords(F1, gv), F1)
                u = phi_alpha(chart, F1)
                rhs = levi_cone_action(g, F1, u)
                assert lhs[0] == rhs[0] and lhs[1] == rhs[1] and tuple(lhs[2]) == tuple(rhs[2])

    def test_levi_equivariance_rank2(self):
        # equivariance holds for G_{l,alpha} = the diagonal G_m in the GL2
        # factor (p_l = det = t^2); full-torus elements carry an h-component
        rng = random.Random(73)
        for t in [F(2), F(1, 3), F(-2)]:
            m = [[F(0)] * 5 for _ in range(5)]
            m[0][0], m[1][1] = t, t
            m[2][2], m[3][3] = 1 / t, 1 / t
            m[4][4] = F(1)
            g = la.mat(m)
            for _ in range(10):
                chart = (GR(F(rng.randint(-3, 3), 2), F(rng.randint(1, 6), 2)),
                         GR(F(rng.randint(-3, 3), 2), F(rng.randint(-6, 6), 2)),
                         GR(F(rng.randint(-3, 3), 2), F(rng.randint(-3, 3), 2)))
                v = ambient_from_chart(chart)
                gv = tuple(sum((GR(g[i][j]) * v[j] for j in range(5)), GR(0))
                           for i in range(5))
                lhs = phi_alpha(chart_coords(F2, gv), F2)
                rhs = levi_cone_action(g, F2, phi_alpha(chart, F2))
                assert lhs == rhs


def ambient_from_chart(chart):
    """kappa-representative with chart coordinates (c1, c2, c4...): the
    isotropic lift [-(c1 c2 + q_A-part) : c2 : 1 : c1 : c4...] for L5."""
    c1, c2 = chart[0], chart[1]
    c4 = chart[2:]
    qa = sum(GR(-2) * c * c for c in c4)  # block = (-2)
    v0 = -(c1 * c2) - qa * GR(F(1, 2))
    return (v0, c2, GR(1), c1) + tuple(c4)


class TestLevi:
    def test_identity(self):
        h, ell = levi_project(la.identity(5), F1)
        assert h is None and ell[0] == 1
        h2, ell2 = levi_project(la.identity(5), F2)
        assert la.mat_eq(h2, la.identity(2)) and ell2 == 1

    def test_rank2_unipotent_class(self):
        # block diag ((1 1; 0 1), its inverse-transpose, 1)
        g = [[F(0)] * 5 for _ in range(5)]
        g[0][0] = g[1][1] = F(1)
        g[0][1] = F(1)
        blk = la.transpose(la.inverse(la.mat([[1, 1], [0, 1]])))
        for i in range(2):
            for j in range(2):
                g[2 + i][2 + j] = blk[i][j]
        g[4][4] = F(1)
        g = la.mat(g)
        G = L5.gram
        assert la.mat_eq(la.mat_mul(la.mat_mul(la.transpose(g), G), g), G)
        h, ell = levi_project(g, F2)
        assert la.mat_eq(h, la.mat([[1, 1], [0, 1]]))
        assert ell == 1

    def test_not_in_parabolic(self):
        # swap v0 <-> v2 is an isometry not stabilizing the line
        g = [[F(0)] * 5 for _ in range(5)]
        g[0][2] = g[2][0] = F(1)
        g[1][1] = g[3][3] = g[4][4] = F(1)
        with pytest.raises(NotInParabolic):
            levi_project(la.mat(g), F1)
        with pytest.raises(NotInParabolic):
            levi_cone_action(g, F1, (F(1), F(2), (F(3),)))
        with pytest.raises(NotInParabolic):
            levi_cone_action(g, F2, (F(1),))

    def test_non_isometry_not_in_parabolic(self):
        # diag(2, 1, 1, 1, 1) keeps both flags but scales b(v0, v2);
        # diag(2, 1, 1/2, 1, 1) is the isometry that keeps them
        def diag(*d):
            return la.mat([[d[i] if i == j else 0 for j in range(5)] for i in range(5)])
        assert stabilizes_flag(diag(2, 1, F(1, 2), 1, 1), F1)
        assert levi_project(diag(2, 1, F(1, 2), 1, 1), F1)[1][0] == 2
        g = diag(2, 1, 1, 1, 1)
        for flag, u in ((F1, (1, 1, (0,))), (F2, (1,))):
            assert not stabilizes_flag(g, flag)
            with pytest.raises(NotInParabolic):
                levi_project(g, flag)
            with pytest.raises(NotInParabolic):
                levi_cone_action(g, flag, u)


class TestAdjacency:
    def test_standard_nested_flags(self):
        rec = adjacency_data(F2, (1, 0, 0, 0, 0))
        assert isinstance(rec, AdjacencyRecord)
        assert rec.ray == (0, 1, 0)
        assert rec.ray_is_isotropic

    def test_other_line_in_plane(self):
        rec = adjacency_data(F2, (0, 1, 0, 0, 0))
        assert rec == adjacency_data(F2, (1, 0, 0, 0, 0))
        assert rec.ray_is_isotropic

    def test_disjoint_line_returns_none(self):
        assert adjacency_data(F2, (0, 0, 1, 0, 0)) is None

    def test_generator_needs_rank_integer_coordinates(self):
        # a short vector or a fractional one is no generator, not span(v0)
        for generator in [(1, 0), (F(3, 2), 1, 0, 0, 0)]:
            with pytest.raises(ValueError):
                adjacency_data(F2, generator)

    def test_ray_fixed_by_rank2_unipotents(self):
        rng = random.Random(79)
        c = center_element(F2, F(1))
        for _ in range(10):
            p = rand_params_rank2(rng, 3)
            u = build_unipotent(F2, p)
            conj = la.mat_mul(la.mat_mul(u, c), la.inverse(u))
            assert la.mat_eq(conj, c)


def test_unsupported_shape():
    with pytest.raises(UnsupportedShape):
        CuspFlag.from_lattice(QuadraticLattice(la.identity(5)), "rank1")


class TestNondiagonalBlock:
    def test_unipotents_preserve_gram(self):
        block = [[-2, -1], [-1, -4]]
        L = standard_atilde(4, block)
        G = L.gram
        f1 = CuspFlag.from_lattice(L, "rank1")
        f2 = CuspFlag.from_lattice(L, "rank2")
        rng = random.Random(83)
        for _ in range(15):
            p1 = (F(rng.randint(-3, 3), 2), F(rng.randint(-3, 3), 2),
                  (F(rng.randint(-3, 3), 2), F(rng.randint(-3, 3), 2)))
            p2 = ((F(rng.randint(-3, 3), 2), F(rng.randint(-3, 3), 2)),
                  (F(rng.randint(-3, 3), 2), F(rng.randint(-3, 3), 2)),
                  F(rng.randint(-3, 3), 2))
            g1, g2 = build_unipotent(f1, p1), build_unipotent(f2, p2)
            for g in (g1, g2):
                assert la.mat_eq(la.mat_mul(la.mat_mul(la.transpose(g), G), g), G)
            assert is_in_unipotent(g1, f1)
            assert is_in_unipotent(g2, f2)
        # omega with an off-diagonal block: q-value is the literal pairing
        assert omega_member((1, 1, (0, 0)), f1)
        # y1 y3 + (1/2) y4 A y4 with y4 = (1, 0): 1*4 + (1/2)(-2) = 3 > 0
        assert omega_member((1, 4, (1, 0)), f1)
        # 1*1 + (1/2)(-2) = 0: boundary, not in the open cone
        assert not omega_member((1, 1, (1, 0)), f1)
