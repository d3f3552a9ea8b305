"""Kernels, cores, windowed extreme points, and support fans."""

import json
import random
from fractions import Fraction as F

import pytest

from orthocusp import _linalg as la
from orthocusp import corecone
from orthocusp.cli import main
from orthocusp.corecone import (
    ExtremeSet,
    KernelSpec,
    SelfAdjointCone,
    boundary_rays,
    cone_lattice_points,
    core_extremes,
    first_quadrant_cone,
    gamma_check,
    light_cone,
    semi_dual,
    support_fan,
    support_function,
)
from orthocusp.errors import NotConePreserving, UnstableTruncation
from orthocusp.fan import RationalCone, fan_from_maximal, validate_fan


class TestLatticePoints:
    def test_first_quadrant_strict(self):
        pts = cone_lattice_points(first_quadrant_cone(), 3)
        assert set(pts) == {(a, b) for a in range(1, 4) for b in range(1, 4)}

    def test_first_quadrant_closed_adds_boundary(self):
        strict = set(cone_lattice_points(first_quadrant_cone(), 3))
        closed = set(cone_lattice_points(first_quadrant_cone(), 3, closed=True))
        extra = closed - strict
        assert extra == {(a, 0) for a in range(1, 4)} | {(0, b) for b in range(1, 4)}

    def test_light_cone(self):
        pts = cone_lattice_points(light_cone(2), 2)
        want = {(x, y, z) for x in (1, 2) for y in range(-2, 3) for z in range(-2, 3)
                if x * x > y * y + z * z}
        assert set(pts) == want


class TestClosedCone:
    def test_rho_vanishing_on_a_boundary_ray_keeps_the_right_half(self):
        # rho = (1, 0) vanishes on the isotropic line x = 0; the closed
        # cone still holds (0, 1) and not (0, -1)
        cone = SelfAdjointCone([[0, 1], [1, 0]], (1, 0))
        assert cone.contains((0, 1), closed=True)
        assert not cone.contains((0, -1), closed=True)
        assert boundary_rays(cone, 2) == ((0, 1), (1, 0))

    def test_selectors_of_one_quadrant_agree(self):
        got = {rho: core_extremes(SelfAdjointCone([[0, 1], [1, 0]], rho), "perfect", 3).points
               for rho in ((1, 1), (2, 1), (1, 0))}
        assert set(got.values()) == {((1, 1),)}

    def test_cone_is_one_component_for_any_accepted_rho(self):
        # rho = (1, -2) is positive on parts of both quadrants; the cone is
        # the quadrant where rho is positive at the interior point -(1, 1)
        cone = SelfAdjointCone([[0, 1], [1, 0]], (1, -2))
        assert cone.contains((-1, -3)) and cone.contains((-1, 0), closed=True)
        assert not cone.contains((3, 1)) and not cone.contains((3, 1), closed=True)

    def test_rho_vanishing_at_the_interior_point_is_refused(self):
        with pytest.raises(ValueError):
            SelfAdjointCone([[0, 1], [1, 0]], (1, -1))


class TestKernelAxioms:
    def test_zero_not_in_kernel(self):
        cone = first_quadrant_cone()
        K = semi_dual([(1, 0), (0, 1)], cone)
        assert not K.member((0, 0), cone)

    def test_additive_stability_sampled(self):
        rng = random.Random(211)
        cone = light_cone(2)
        K = semi_dual([(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1)], cone)
        members = [v for v in cone_lattice_points(cone, 4) if K.member(v, cone)]
        omega = cone_lattice_points(cone, 3)
        assert members
        for _ in range(500):
            x = rng.choice(members)
            w = rng.choice(omega)
            s = tuple(a + b for a, b in zip(x, w))
            assert K.member(s, cone)

    def test_semi_dual_first_quadrant(self):
        cone = first_quadrant_cone()
        K = semi_dual([(1, 0), (0, 1)], cone)
        assert K.member((1, 1), cone)
        assert K.member((2, 1), cone)
        assert not K.member((1, 0), cone)  # <(1,0),(0,1)> = 0 < 1

    def test_semi_dual_single_point(self):
        cone = first_quadrant_cone()
        K = semi_dual([(1, 1)], cone)
        assert K.member((1, 0), cone)  # <(1,0),(1,1)> = 1
        assert not K.member((F(1, 4), F(1, 4)), cone)

    def test_semi_dual_antitone(self):
        cone = first_quadrant_cone()
        small = semi_dual([(1, 1)], cone)
        big = semi_dual([(1, 1), (2, 1), (1, 3)], cone)
        for v in cone_lattice_points(cone, 3, closed=True):
            if big.member(v, cone):
                assert small.member(v, cone)


class TestCoreExtremes:
    def test_first_quadrant_central(self):
        E = core_extremes(first_quadrant_cone(), "central", 4)
        assert E.points == ((1, 1),)
        assert E.stable

    def test_first_quadrant_perfect(self):
        E = core_extremes(first_quadrant_cone(), "perfect", 4)
        assert E.points == ((1, 1),)

    def test_first_quadrant_central_dual(self):
        # co-core {x1 + x2 >= 1} in the quadrant: boundary vertices
        E = core_extremes(first_quadrant_cone(), "central_dual", 4)
        assert E.points == ((0, 1), (1, 0))

    def test_light_cone_central_dual_frozen(self):
        E = core_extremes(light_cone(2), "central_dual", 2)
        assert E.points == ((1, -1, 0), (1, 0, -1), (1, 0, 1), (1, 1, 0))
        assert E.stable

    def test_light_cone_central_frozen(self):
        # H=4 window, cross-checked at 2H by the certificate
        E = core_extremes(light_cone(2), "central", 4)
        assert E.points == ((1, 0, 0), (3, -2, -2), (3, -2, 2), (3, 2, -2), (3, 2, 2))
        for p in E.points:
            assert light_cone(2).contains(p)

    def test_core_coverage_sampled(self):
        rng = random.Random(223)
        cone = first_quadrant_cone()
        E = core_extremes(cone, "central", 4)
        K = KernelSpec(points=((1, 0), (0, 1)))
        members = [v for v in cone_lattice_points(cone, 6, closed=True)
                   if K.member(v, cone)]
        for v in rng.sample(members, 20):
            assert any(cone.contains(tuple(a - b for a, b in zip(v, e)), closed=True)
                       for e in E.points)

    def test_unstable_truncation_raises(self):
        # at H=2 the (2,1,1)-type vertices are reduced by H=4 reducers
        with pytest.raises(UnstableTruncation):
            core_extremes(light_cone(2), "central", 2)


class TestSupportFan:
    def test_degenerate_first_quadrant(self):
        cone = first_quadrant_cone()
        E = core_extremes(cone, "perfect", 4)
        fan, report = support_fan(E, cone)
        assert report.degenerate
        assert any("DegenerateSupport" in w for w in report.warnings)
        tops = fan.top_cones()
        assert len(tops) == 1
        assert tops[0].rays == ((0, 1), (1, 0))
        assert validate_fan(fan).valid

    def test_two_adjacent_vertices_give_cone(self):
        # kernel with vertices (1,0), (1/3,1/3), (0,1): supports at y=(2,1)
        # and y=(1,2) produce the subdivision of the quadrant at (1,1)
        cone = first_quadrant_cone()
        E = ExtremeSet(points=((1, 0), (F(1, 3), F(1, 3)), (0, 1)),
                       truncation=4, variant="custom", stable=True)
        fan, report = support_fan(E, cone)
        assert not report.degenerate
        tops = sorted(c.rays for c in fan.top_cones())
        assert tops == [((0, 1), (1, 1)), ((1, 0), (1, 1))]
        assert validate_fan(fan).valid
        assert set(report.functionals) == {(F(2), F(1)), (F(1), F(2))}

    def test_projectivity_certificate(self):
        cone = first_quadrant_cone()
        E = ExtremeSet(points=((1, 0), (F(1, 3), F(1, 3)), (0, 1)),
                       truncation=4, variant="custom", stable=True)
        fan, report = support_fan(E, cone)
        phi = support_function(report, cone)
        rng = random.Random(227)
        for c in fan.top_cones():
            # linear on the cone: the minimizing functional is constant there
            interior = tuple(sum(r[k] for r in c.rays) for k in range(2))
            y_star = min(report.functionals, key=lambda y: cone.pair(interior, y))
            for _ in range(20):
                a = F(rng.randint(0, 5), rng.randint(1, 3))
                b = F(rng.randint(0, 5), rng.randint(1, 3))
                x = tuple(a * r1 + b * r2 for r1, r2 in zip(*c.rays))
                assert phi(x) == cone.pair(x, y_star)
        # positive away from zero on samples
        for v in cone_lattice_points(cone, 3):
            assert phi(v) > 0

    def test_all_cones_meet_rational_closure(self):
        cone = first_quadrant_cone()
        E = ExtremeSet(points=((1, 0), (F(1, 3), F(1, 3)), (0, 1)),
                       truncation=4, variant="custom", stable=True)
        fan, _ = support_fan(E, cone)
        for c in fan.top_cones():
            for r in c.rays:
                assert cone.contains(r, closed=True)


class TestGammaCheck:
    def quadrant_fan(self):
        return fan_from_maximal([RationalCone([(1, 0), (0, 1)], 2)], 2)

    def test_trivial_group(self):
        cone = first_quadrant_cone()
        rep = gamma_check(self.quadrant_fan(), [la.identity(2)], cone, window_bound=8)
        assert rep.preserved
        assert len(rep.orbits) == 1

    def test_swap_preserves_quadrant(self):
        cone = first_quadrant_cone()
        swap = ((0, 1), (1, 0))
        rep = gamma_check(self.quadrant_fan(), [swap], cone, window_bound=8)
        assert rep.preserved
        assert len(rep.orbits) == 1

    def test_hyperbolic_unit_permutes_window_cones(self):
        # q = x^2 - 2 y^2, unit gamma = [[3,4],[2,3]] preserving the cone
        cone = SelfAdjointCone([[1, 0], [0, -2]], (1, 0))
        g = ((3, 4), (2, 3))
        base = (1, 0)
        rays = [base]
        v = base
        for _ in range(3):
            v = tuple(int(x) for x in la.mat_vec(g, v))
            rays.append(v)
        cones = [RationalCone([rays[i], rays[i + 1]], 2) for i in range(3)]
        fan = fan_from_maximal(cones, 2)
        rep = gamma_check(fan, [g], cone, window_bound=120)
        assert rep.preserved
        # interior cones map into the fan; the last one is excused by window
        assert len(rep.excused) == 1
        assert len(rep.orbits) == 1

    def test_non_isometry_raises(self):
        cone = first_quadrant_cone()
        bad = ((1, 0), (0, -1))  # g^t G g != G for G = [[0,1],[1,0]]
        with pytest.raises(NotConePreserving):
            gamma_check(self.quadrant_fan(), [bad], cone, window_bound=8)

    def test_unexcused_missing_image_raises(self):
        # swap is an isometry preserving the quadrant, but it maps the
        # half-cone ((1,0),(1,1)) to ((0,1),(1,1)), which is not in the fan
        # and stays inside the window: a genuine violation
        cone = first_quadrant_cone()
        half = fan_from_maximal([RationalCone([(1, 0), (1, 1)], 2)], 2)
        swap = ((0, 1), (1, 0))
        with pytest.raises(NotConePreserving):
            gamma_check(half, [swap], cone, window_bound=50)


class TestOneWindowScan:
    @pytest.fixture
    def scans(self, monkeypatch):
        heights = []
        scan = corecone._closed_window

        def counted(cone, height):
            heights.append(height)
            return scan(cone, height)

        monkeypatch.setattr(corecone, "_closed_window", counted)
        return heights

    @pytest.mark.parametrize("variant, height", [
        ("perfect", 3), ("central", 3), ("central_dual", 2)])
    def test_core_decompose_scans_once_at_twice_the_height(self, tmp_path, scans,
                                                            variant, height):
        gram = tmp_path / "g.json"
        gram.write_text(json.dumps({"gram": [["1", "0", "0"], ["0", "-1", "0"],
                                             ["0", "0", "-1"]]}))
        argv = ["core-decompose", "--gram", str(gram), "--variant", variant,
                "--height", str(height), "--out", str(tmp_path / "out.json")]
        assert main(argv) == 0
        assert scans == [2 * height]

    def test_support_fan_scans_only_another_window(self, scans):
        cone = light_cone(2)
        E = core_extremes(cone, "perfect", 3)
        assert E.recession == boundary_rays(cone, 3)
        del scans[:]
        assert support_fan(E, cone)[1] == support_fan(E, cone, window=3)[1]
        assert scans == []
        support_fan(E, cone, window=4)
        assert scans == [4]
