"""Model conversions: round trips, quadric membership, paper identities.

All assertions run in the exact Gaussian-rational backend unless a test is
explicitly about float tolerances.
"""

import math
import random
from fractions import Fraction as F

import pytest

from orthocusp import _linalg as la
from orthocusp.domains import (
    BoundedPoint,
    Frame,
    GrassPlane,
    KappaClass,
    ProjPoint,
    TubePoint,
    circle_action_matrix,
    grass_of,
    grass_plane_from_vectors,
    in_bounded,
    in_kappa,
    in_tube,
    is_isometry,
    oplus_sign,
    psi,
    psi_bounded,
    psi_inv,
    standard_bounded_frame,
    tube_r,
    upsilon,
    upsilon_inv,
)
from orthocusp.errors import BoundaryPoint, NearBoundary, SingularDenominator
from orthocusp.gaussian import GaussianRational as GR
from orthocusp.gaussian import I
from orthocusp.qform import QuadraticLattice, standard_atilde


def simple_tube_frame():
    """U = diag(1,-1), q(e2) = 0: lattice H + diag(1,-1)."""
    L = QuadraticLattice([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
    return Frame(L, (1, 0, 0, 0), (0, 1, 0, 0), [(0, 0, 1, 0), (0, 0, 0, 1)])


def random_gr(rng, scale=8):
    return GR(F(rng.randint(-scale, scale), rng.randint(1, scale)),
              F(rng.randint(-scale, scale), rng.randint(1, scale)))


def random_tube_point(rng, frame):
    """Exact point of H_q^+ for the diag-split frame above."""
    while True:
        coords = tuple(random_gr(rng) for _ in range(frame.n))
        im = [c.im for c in coords]
        qv = sum(im[i] * sum(frame.u_gram[i][j] * im[j] for j in range(frame.n))
                 for i in range(frame.n))
        if qv > 0 and im[0] > 0:
            return TubePoint(coords, frame)


def random_bounded_point(rng, frame):
    while True:
        z = tuple(GR(F(rng.randint(-3, 3), rng.randint(4, 9)),
                     F(rng.randint(-3, 3), rng.randint(4, 9)))
                  for _ in range(frame.n))
        if in_bounded(z, frame):
            return BoundedPoint(z, frame)


class TestPsi:
    def test_worked_example(self):
        frame = simple_tube_frame()
        y = TubePoint((I, GR(0)), frame)
        p = psi(y)
        assert p.coords == (GR(F(1, 2)), GR(1), I, GR(0))
        assert not frame.quadratic_c(p.coords)
        bvv = frame.bilinear_c(p.coords, tuple(c.conjugate() for c in p.coords))
        assert bvv == GR(2)

    def test_round_trip_random(self):
        rng = random.Random(5)
        frame = simple_tube_frame()
        for _ in range(100):
            y = random_tube_point(rng, frame)
            assert psi_inv(psi(y)).coords == y.coords

    def test_first_coordinate_cancellation(self):
        frame = simple_tube_frame()
        # q_U(y) = -q(e2) = 0: pick isotropic-in-U complex y in the domain
        y = TubePoint((GR(1, 1), GR(1, 1)), frame)  # q_U = (1+i)^2 - (1+i)^2 = 0
        p = psi(y)
        assert not p.coords[0]

    def test_first_coordinate_cancellation_nonzero_qe2(self):
        # frame with q(e2) = 1: the e1 coefficient vanishes iff q_U(y) = -1
        L = QuadraticLattice([[1, 0, 0, 0], [0, 1, 0, 0],
                              [0, 0, -1, 0], [0, 0, 0, -1]])
        frame = Frame(L, (1, 0, 1, 0), (1, 0, 0, 0),
                      [(0, 1, 0, 0), (0, 0, 0, 1)])
        assert frame.q_e2 == 1
        y = TubePoint((GR(0), GR(1)), frame)  # q_U(y) = -1
        p = psi(y)
        assert frame.e2_coefficient(p.coords) == GR(1)
        # the e1-coefficient of the output: pair with e2 and subtract parts
        a = frame.bilinear_c(p.coords, tuple(GR(x) for x in frame.e2)) \
            - GR(frame.q_e2)
        assert not a

    def test_scale_invariance_of_inverse(self):
        rng = random.Random(6)
        frame = simple_tube_frame()
        y = random_tube_point(rng, frame)
        p = psi(y)
        c = GR(F(3, 7), F(-2, 5))
        scaled = ProjPoint(tuple(c * x for x in p.coords), frame)
        assert psi_inv(scaled).coords == y.coords

    def test_boundary_point_raises(self):
        frame = simple_tube_frame()
        v = (GR(1), GR(0), GR(1), GR(1))  # b(v, e1) = coefficient of e2 = 0
        with pytest.raises(BoundaryPoint):
            psi_inv(ProjPoint(v, frame))

    def test_membership_preserved(self):
        rng = random.Random(7)
        frame = simple_tube_frame()
        for _ in range(20):
            y = random_tube_point(rng, frame)
            assert in_kappa(psi(y).coords, frame) == KappaClass.PLUS


class TestInKappa:
    def test_base_point_is_plus(self):
        frame = standard_bounded_frame(2)
        v = (GR(1), I, GR(1), I)
        assert in_kappa(v, frame) == KappaClass.PLUS

    def test_real_isotropic_is_outside(self):
        frame = standard_bounded_frame(2)
        v = (GR(1), GR(0), GR(0), GR(0))
        assert in_kappa(v, frame) == KappaClass.OUTSIDE

    def test_scale_invariance(self):
        rng = random.Random(9)
        frame = standard_bounded_frame(2)
        v = (GR(1), I, GR(1), I)
        for _ in range(10):
            c = random_gr(rng)
            if not c:
                continue
            assert in_kappa(tuple(c * x for x in v), frame) == KappaClass.PLUS

    def test_conjugate_is_minus(self):
        frame = standard_bounded_frame(2)
        v = (GR(1), -I, GR(1), -I)
        assert in_kappa(v, frame) == KappaClass.MINUS

    def test_float_near_boundary(self):
        frame = standard_bounded_frame(2)
        # on the quadric (v2 = 0 kills q) with b(v, conj v) within tolerance
        v = (complex(1), 1e-14j, complex(0), complex(0))
        with pytest.raises(NearBoundary):
            in_kappa(v, frame, tol=1e-9)

    def test_float_clear_point(self):
        frame = standard_bounded_frame(2)
        v = (complex(1), 1j, complex(1), 1j)
        assert in_kappa(v, frame, tol=1e-9) == KappaClass.PLUS

    def test_float_tiny_point_is_not_zero(self):
        # |x|^2 underflows to 0 here; the nonzero test must not square
        frame = standard_bounded_frame(2)
        v = (1e-200, 1e-200j, 1e-200, 1e-200j)
        assert in_kappa(v, frame, tol=1e-9) == KappaClass.PLUS
        with pytest.raises(ValueError, match="nonzero"):
            in_kappa((0.0, 0j, 0.0, 0j), frame, tol=1e-9)


class TestGrass:
    def test_orthonormal_pair(self):
        L = QuadraticLattice(la.identity(3))
        X, Y = (1, 0, 0), (0, 1, 0)
        P = grass_plane_from_vectors(X, Y, L)
        assert P.is_normalized

    def test_representative_independence(self):
        rng = random.Random(11)
        frame = standard_bounded_frame(2)
        v = (GR(1), I, GR(1), I)
        P0 = grass_of(ProjPoint(v, frame))
        for _ in range(10):
            c = random_gr(rng)
            if not c:
                continue
            P = grass_of(ProjPoint(tuple(c * x for x in v), frame))
            assert P.same_plane(P0)

    def test_base_point_plane(self):
        frame = standard_bounded_frame(2)
        P = grass_of(ProjPoint((GR(1), I, GR(1), I), frame))
        assert P.x == tuple(map(F, (1, 0, 1, 0)))
        assert P.y == tuple(map(F, (0, 1, 0, 1)))
        assert P.is_normalized

    def test_float_point_plane(self):
        frame = standard_bounded_frame(2)
        P = grass_of(ProjPoint((1 + 0j, 1j, 1 + 0j, 1j), frame))
        assert P.x == tuple(map(F, (1, 0, 1, 0)))
        assert P.y == tuple(map(F, (0, 1, 0, 1)))
        assert P.is_normalized


class TestBoundedModel:
    @pytest.mark.parametrize("n,block", [(2, None), (3, None), (4, [[-2, -1], [-1, -4]])])
    def test_upsilon_zero(self, n, block):
        frame = standard_bounded_frame(n, block)
        z = BoundedPoint(tuple(GR(0) for _ in range(n)), frame)
        y = upsilon(z)
        assert y.coords[:2] == (I, I)
        assert all(not c for c in y.coords[2:])
        assert upsilon_inv(y).coords == z.coords

    def test_round_trips_random(self):
        rng = random.Random(13)
        frame = standard_bounded_frame(3)
        for _ in range(100):
            z = random_bounded_point(rng, frame)
            y = upsilon(z)
            assert upsilon_inv(y).coords == z.coords
            assert upsilon(upsilon_inv(y)).coords == y.coords

    def test_r_identity_paper(self):
        rng = random.Random(17)
        frame = standard_bounded_frame(3)
        for _ in range(100):
            z = random_bounded_point(rng, frame)
            Q = frame.q_a_prime(z.coords)
            s = 1 - 2 * z.coords[0] - F(1, 2) * Q
            assert tube_r(upsilon(z)) == s

    def test_images_in_tube(self):
        rng = random.Random(19)
        frame = standard_bounded_frame(3)
        for _ in range(30):
            z = random_bounded_point(rng, frame)
            assert in_tube(upsilon(z).coords, frame)

    def test_upsilon_inv_lands_in_bounded(self):
        rng = random.Random(23)
        frame = standard_bounded_frame(3)
        for _ in range(30):
            y = random_tube_point_atilde(rng, frame)
            z = upsilon_inv(y)
            assert in_bounded(z.coords, frame)
            assert upsilon(z).coords == y.coords

    def test_psi_bounded_base_point(self):
        frame = standard_bounded_frame(2)
        z = BoundedPoint((GR(0), GR(0)), frame)
        assert psi_bounded(z).coords == (GR(1), I, GR(1), I)

    def test_psi_bounded_on_quadric(self):
        rng = random.Random(29)
        frame = standard_bounded_frame(3)
        for _ in range(100):
            z = random_bounded_point(rng, frame)
            assert not frame.quadratic_c(psi_bounded(z).coords)

    def test_psi_bounded_is_psi_after_upsilon(self):
        rng = random.Random(31)
        frame = standard_bounded_frame(3)
        for _ in range(100):
            z = random_bounded_point(rng, frame)
            p1 = psi(upsilon(z))
            p2 = psi_bounded(z)
            k = next(i for i, c in enumerate(p2.coords) if c)
            lam = p1.coords[k] / p2.coords[k]
            assert all(a == lam * b for a, b in zip(p1.coords, p2.coords))

    def test_in_bounded_examples(self):
        frame = standard_bounded_frame(2)
        assert in_bounded((GR(0), GR(0)), frame)
        # |z A' z^t| = 3 > 2 violates the second inequality
        z = (GR(0), GR(0, 1), GR(0))
        frame3 = standard_bounded_frame(3)
        # q_a_prime((0, i, 0)) = -2 * i^2 = 2 ... build a |Q| > 2 point instead
        bad = (GR(2), GR(0), GR(0))
        assert frame3.q_a_prime(bad) == F(-8)
        assert not in_bounded(bad, frame3)

    def test_float_near_boundary_in_bounded(self):
        frame = standard_bounded_frame(3)
        # |Q| = 2 exactly: the second inequality sits on the boundary
        z = (complex(1.0), complex(0), complex(0))
        assert frame.q_a_prime(z) == -2.0
        with pytest.raises(NearBoundary):
            in_bounded(z, frame, tol=1e-9)

    def test_singular_denominator(self):
        frame = standard_bounded_frame(2)
        # s(z) = 1 - 2 z1 - (1/2) Q; pick real z1 solving s = 0 with z2 = 0:
        # Q = -2 z1^2, so s = 1 - 2 z1 + z1^2 = (1 - z1)^2 -> z1 = 1
        z = BoundedPoint((GR(1), GR(0)), frame)
        with pytest.raises(SingularDenominator):
            upsilon(z)


def random_tube_point_atilde(rng, frame):
    """Exact H_q^+ point for an Atilde frame (hyperbolic pair + block)."""
    n = frame.n
    while True:
        coords = tuple(random_gr(rng, 6) for _ in range(n))
        if in_tube(coords, frame):
            return TubePoint(coords, frame)


class TestHigherRank:
    def test_n5_with_nondiagonal_block(self):
        # signature (2,5): two hyperbolic planes plus a 3x3 negative block
        block = [[-2, -1, 0], [-1, -4, 1], [0, 1, -3]]
        frame = standard_bounded_frame(5, block)
        rng = random.Random(59)
        for _ in range(10):
            z = random_bounded_point(rng, frame)
            y = upsilon(z)
            assert upsilon_inv(y).coords == z.coords
            Q = frame.q_a_prime(z.coords)
            assert tube_r(y) == 1 - 2 * z.coords[0] - F(1, 2) * Q
            p = psi_bounded(z)
            assert not frame.quadratic_c(p.coords)
            assert in_kappa(p.coords, frame) == KappaClass.PLUS


class TestFloatBackend:
    def test_round_trips_within_tolerance(self):
        import cmath

        rng = random.Random(97)
        frame = standard_bounded_frame(3)
        done = 0
        while done < 100:
            z = tuple(complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
                      for _ in range(3))
            if not in_bounded(z, frame, tol=1e-9):
                continue
            zp = BoundedPoint(z, frame)
            y = upsilon(zp)
            back = upsilon_inv(y)
            scale = max(abs(c) for c in z) or 1.0
            assert max(abs(a - b) for a, b in zip(z, back.coords)) <= 1e-9 * scale
            p = psi(y)
            y2 = psi_inv(p, tol=1e-12)
            yscale = max(abs(c) for c in y.coords)
            assert max(abs(a - b) for a, b in zip(y.coords, y2.coords)) <= 1e-9 * yscale
            done += 1


def as_complex(x):
    """The complex double nearest the exact value x (GaussianRational or rational)."""
    return complex(float(x.real), float(x.imag))


class TestOneFormulaBothBackends:
    FRAMES = [(2, None), (3, None), (4, [[-2, -1], [-1, -4]])]

    @staticmethod
    def assert_close(exact, approx):
        exact = exact.coords if hasattr(exact, "coords") else (exact,)
        approx = approx.coords if hasattr(approx, "coords") else (approx,)
        assert len(exact) == len(approx)
        scale = max(abs(as_complex(c)) for c in exact) or 1.0
        assert max(abs(as_complex(a) - b) for a, b in zip(exact, approx)) <= 1e-9 * scale

    @pytest.mark.parametrize("n,block", FRAMES)
    def test_float_run_matches_exact_run(self, n, block):
        # each conversion on the complex image of an exact point: the same
        # formula, in doubles, lands within 1e-9 of the exact answer
        rng = random.Random(43 + n)
        frame = standard_bounded_frame(n, block)
        for _ in range(25):
            z = random_bounded_point(rng, frame)
            y = random_tube_point_atilde(rng, frame)
            c = random_gr(rng) or GR(1)
            p = ProjPoint(tuple(c * x for x in psi(y).coords), frame)
            for f, pt in ((upsilon, z), (psi_bounded, z), (upsilon_inv, y), (tube_r, y),
                          (psi, y), (psi_inv, p)):
                approx = f(type(pt)(tuple(as_complex(x) for x in pt.coords), frame))
                assert all(isinstance(x, complex)
                           for x in getattr(approx, "coords", (approx,))), f.__name__
                self.assert_close(f(pt), approx)


class TestCircleAction:
    def test_identity_at_theta_zero(self):
        frame = standard_bounded_frame(2)
        P = grass_of(ProjPoint((GR(1), I, GR(1), I), frame))
        M = circle_action_matrix(P, r=1, cos_sin_2theta=(1, 0))
        assert la.mat_eq(M, la.identity(4))

    def test_theta_half_pi(self):
        frame = standard_bounded_frame(2)
        P = grass_of(ProjPoint((GR(1), I, GR(1), I), frame))
        M = circle_action_matrix(P, r=1, cos_sin_2theta=(-1, 0))
        assert la.mat_vec(M, P.x) == tuple(-x for x in P.x)
        assert la.mat_vec(M, P.y) == tuple(-x for x in P.y)
        # identity on the orthogonal complement
        for w in la.kernel_int([la.mat_vec(frame.lattice.gram, P.x),
                                la.mat_vec(frame.lattice.gram, P.y)]):
            assert la.mat_vec(M, w) == tuple(map(F, w))
        assert is_isometry(M, frame.lattice)

    def test_eigenvector_recovers_point(self):
        frame = standard_bounded_frame(2)
        v = (GR(1), I, GR(1), I)
        P = grass_of(ProjPoint(v, frame))
        M = circle_action_matrix(P, r=1, cos_sin_2theta=(F(3, 5), F(4, 5)))
        w = tuple(GR(x) - I * GR(y) for x, y in zip(P.x, P.y))  # X - iY
        Mw = tuple(sum((GR(M[i][j]) * w[j] for j in range(4)), GR(0)) for i in range(4))
        lam = GR(F(3, 5), F(4, 5))  # e^{2 i theta}
        assert Mw == tuple(lam * c for c in w)
        # the eigenvector spans the same plane as the original [v]
        assert grass_of(ProjPoint(w, frame)).same_plane(P)

    def test_float_theta(self):
        frame = standard_bounded_frame(2)
        P = grass_of(ProjPoint((1 + 0j, 1j, 1 + 0j, 1j), frame))
        M = circle_action_matrix(P, theta=0.3)
        assert len(M) == 4 and all(len(row) == 4 for row in M)
        c, s = math.cos(0.6), math.sin(0.6)
        want = tuple(c * x + s * y for x, y in zip(P.x, P.y))
        assert max(abs(a - b) for a, b in zip(la.mat_vec(M, P.x), want)) < 1e-12


class TestIsometryEquivariance:
    def split_isometries(self, frame, rng):
        """Rational isometries fixing the split (Levi-type + unipotent)."""
        from orthocusp.parab import CuspFlag, build_unipotent

        flag = CuspFlag.from_lattice(frame.lattice, "rank1")
        mats = []
        for _ in range(17):
            y1 = F(rng.randint(-2, 2), rng.randint(1, 3))
            y3 = F(rng.randint(-2, 2), rng.randint(1, 3))
            y4 = tuple(F(rng.randint(-2, 2), rng.randint(1, 3))
                       for _ in range(frame.lattice.rank - 4))
            mats.append(build_unipotent(flag, (y1, y3, y4)))
        for a in (F(2), F(1, 3), F(-1)):
            m = [[F(0)] * frame.lattice.rank for _ in range(frame.lattice.rank)]
            m[0][0] = a
            m[2][2] = 1 / a
            m[1][1] = m[3][3] = F(1)
            for k in range(4, frame.lattice.rank):
                m[k][k] = F(1)
            mats.append(la.mat(m))
        return mats

    def test_in_kappa_equivariance(self):
        rng = random.Random(37)
        frame = standard_bounded_frame(3)
        pts = [psi_bounded(random_bounded_point(rng, frame)).coords for _ in range(5)]
        for g in self.split_isometries(frame, rng):
            assert is_isometry(g, frame.lattice)
            sign = oplus_sign(g, frame.lattice)
            assert oplus_sign([[float(x) for x in row] for row in g], frame.lattice) == sign
            for v in pts:
                gv = tuple(sum((GR(g[i][j]) * v[j] for j in range(len(v))), GR(0))
                           for i in range(len(v)))
                got = in_kappa(gv, frame)
                if sign == 1:
                    assert got == KappaClass.PLUS
                else:
                    assert got == KappaClass.MINUS
