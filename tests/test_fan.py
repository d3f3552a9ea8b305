"""Cones, fans, charts, orbits: the toric machinery at desk scale."""

import itertools
import random
from fractions import Fraction as F

import pytest

from orthocusp import _linalg as la
from orthocusp import fan as fan_module
from orthocusp.corecone import (
    _extreme_points_of,
    boundary_rays,
    cone_lattice_points,
    light_cone,
)
from orthocusp.errors import ConeNotInFan, DeskScopeError
from orthocusp.fan import (
    Fan,
    PLSupport,
    RationalCone,
    _extreme_rays_of_halfspaces,
    barycentric_subdivide,
    chart_presentation,
    dual_cone,
    faces,
    fan_from_maximal,
    hilbert_basis,
    intersect_cones,
    is_complete,
    is_regular,
    make_regular,
    orbit_record,
    star_subdivide,
    validate_fan,
)


def cone(*rays, rank=None):
    rank = rank or len(rays[0])
    return RationalCone(list(rays), rank)


def p2_fan():
    return fan_from_maximal(
        [cone((1, 0), (0, 1)), cone((0, 1), (-1, -1)), cone((-1, -1), (1, 0))], 2
    )


def p1xp1_fan():
    return fan_from_maximal(
        [cone((1, 0), (0, 1)), cone((0, 1), (-1, 0)),
         cone((-1, 0), (0, -1)), cone((0, -1), (1, 0))], 2
    )


class TestDualCone:
    def test_first_quadrant_self_dual(self):
        c = cone((1, 0), (0, 1))
        assert dual_cone(c).rays == c.rays

    def test_two_dim_example(self):
        c = cone((1, 0), (1, 2))
        assert dual_cone(c).rays == (( 0, 1), (2, -1))

    def test_involution_random(self):
        rng = random.Random(101)
        done = 0
        while done < 50:
            dim = rng.choice([2, 3])
            rays = [tuple(rng.randint(-4, 4) for _ in range(dim))
                    for _ in range(rng.randint(dim, dim + 2))]
            rays = [r for r in rays if any(r)]
            if not rays:
                continue
            c = RationalCone(rays, dim)
            if c.dim != dim:
                continue
            d = dual_cone(c)
            if d.is_degenerate or not d.rays:
                continue  # c was not pointed
            cc = dual_cone(d)
            if cc.rays != c.rays:
                # c not pointed: double dual adds the lineality; skip those
                assert all(cc.contains(r) for r in c.rays)
                continue
            done += 1

    def test_dual_of_ray_is_degenerate(self):
        d = dual_cone(cone((1, 0)))
        assert d.is_degenerate
        assert d.lines == ((0, 1),)
        assert d.rays == ((1, 0),)


class TestFaces:
    def test_quadrant(self):
        fs = faces(cone((1, 0), (0, 1)))
        assert len(fs) == 4
        dims = sorted(f.dim for f in fs)
        assert dims == [0, 1, 1, 2]

    def test_single_ray(self):
        fs = faces(cone((1, 1)))
        assert len(fs) == 2

    def test_three_dim_simplicial(self):
        fs = faces(cone((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert len(fs) == 8


class TestNonSimplicial:
    def square_cone(self):
        return cone((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))

    def test_face_count(self):
        # cone over a square: 1 + 4 + 4 + 1 faces
        fs = faces(self.square_cone())
        assert len(fs) == 10
        assert sorted(f.dim for f in fs) == [0, 1, 1, 1, 1, 2, 2, 2, 2, 3]

    def test_dual_is_square_cone(self):
        d = dual_cone(self.square_cone())
        assert len(d.rays) == 4 and not d.is_degenerate
        assert dual_cone(d).rays == self.square_cone().rays

    def test_hilbert_basis_generates_window(self):
        c = self.square_cone()
        hb = hilbert_basis(c)
        d = dual_cone(c)
        for x in itertools.product(range(-3, 4), repeat=3):
            if d.contains(x) and any(x):
                assert _n_generated(x, hb, d) or x in hb, x

    def test_not_regular(self):
        assert not is_regular(self.square_cone())

    def test_make_regular_resolves(self):
        f = fan_from_maximal([self.square_cone()], 3)
        g = make_regular(f)
        assert all(is_regular(c) for c in g.cones)
        assert validate_fan(g).valid


class TestDegenerateDual:
    def test_halfplane_dual_is_ray(self):
        halfplane = RationalCone([(1, 0)], 2, lines=[(0, 1)], canonicalize=False)
        d = dual_cone(halfplane)
        assert not d.is_degenerate
        assert d.rays == ((1, 0),)

    def test_zero_cone_dual_is_everything(self):
        zero = cone(rank=2, *[])
        d = dual_cone(zero)
        assert d.is_degenerate and len(d.lines) == 2


class TestLineality:
    def test_non_pointed_cone_keeps_its_generators(self):
        c = RationalCone([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)], 2)
        assert c.rays == ((-1, 0), (0, -1), (0, 1), (1, 0), (1, 1))
        assert c.contains((1, 0)) and c.contains((-3, 5))

    def test_half_plane_keeps_its_generators(self):
        c = RationalCone([(1, 0), (-1, 0), (0, 1), (1, 1), (2, 0)], 2)
        assert c.rays == ((-1, 0), (0, 1), (1, 0), (1, 1))
        assert c.contains((-5, 1)) and not c.contains((0, -1))

    def test_kernel_on_non_pointed_systems(self):
        # a solution cone with a line of any dimension is refused, and so is
        # a cone with a line as an input of intersect_cones
        for normals, dim, equations in [
            ([(1, 0, 0), (0, 1, 0)], 3, ()),
            ([(1, 1, 0)], 3, [(0, 0, 2)]),
            ([], 1, ()),
            ([(1, 0, 0)], 3, ()),
            ([], 2, ()),
        ]:
            with pytest.raises(ValueError, match="contains a line"):
                _extreme_rays_of_halfspaces(normals, dim, equations)
        half_plane = RationalCone([(1, 0), (-1, 0), (0, 1)], 2)
        half_space = RationalCone([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                                   (0, 0, 1)], 3)
        for c in (half_plane, half_space):
            for other in (c, RationalCone([(1, 0, 0)[:c.rank]], c.rank)):
                with pytest.raises(ValueError, match="pointed cones only"):
                    intersect_cones(c, other)
                with pytest.raises(ValueError, match="pointed cones only"):
                    intersect_cones(other, c)


class TestOnePassPerHull:
    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        kernel = fan_module._double_description

        def counted(*args, **kwargs):
            calls.append(args)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(fan_module, "_double_description", counted)
        return calls

    def test_pointed_cone_canonicalizes_in_one_pass(self, passes):
        c = cone((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, 1))
        assert c.rays == ((-1, 0, 1), (0, -1, 1), (0, 1, 1), (1, 0, 1))
        assert len(passes) == 1

    def test_window_extreme_points_in_one_pass(self, passes):
        lc = light_cone(2)
        pool = cone_lattice_points(lc, 2, closed=True)
        recession = boundary_rays(lc, 2)
        assert _extreme_points_of(pool, recession, lc)
        assert len(passes) == 1

    def test_dual_of_cached_cone_runs_no_pass(self, passes):
        c = cone((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))
        del passes[:]
        assert len(dual_cone(c).rays) == 4
        assert passes == []


class TestValidate:
    def test_p2_valid(self):
        assert validate_fan(p2_fan()).valid

    def test_overlapping_invalid(self):
        f = fan_from_maximal([cone((1, 0), (0, 1)), cone((1, 1), (-1, 1))], 2)
        rep = validate_fan(f)
        assert not rep.valid
        assert rep.violations[0]["kind"] == "bad_intersection"

    def test_single_cone_plus_faces(self):
        assert validate_fan(fan_from_maximal([cone((1, 0), (1, 2))], 2)).valid

    def test_missing_face_detected(self):
        c = cone((1, 0), (0, 1))
        f = Fan([c], 2)
        rep = validate_fan(f)
        assert not rep.valid
        assert rep.violations[0]["kind"] == "missing_face"


class TestRegular:
    def test_examples(self):
        assert is_regular(cone((1, 0), (0, 1)))
        assert not is_regular(cone((1, 0), (1, 2)))
        assert is_regular(cone((1, 0), (1, 1)))

    def test_lower_dimensional(self):
        assert is_regular(cone((1, 0, 0), (0, 1, 0)))
        assert not is_regular(cone((1, 1, 0), (1, -1, 0)))

    def test_non_simplicial_false(self):
        c = cone((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1))
        assert len(c.rays) == 4
        assert not is_regular(c)


class TestComplete:
    def test_p2(self):
        assert is_complete(p2_fan())

    def test_p1xp1(self):
        assert is_complete(p1xp1_fan())

    def test_quadrant_not_complete(self):
        assert not is_complete(fan_from_maximal([cone((1, 0), (0, 1))], 2))

    def test_line_fan(self):
        f = fan_from_maximal([cone((1,)), cone((-1,))], 1)
        assert is_complete(f)
        assert not is_complete(fan_from_maximal([cone((1,))], 1))


class TestSubdivision:
    def test_a1_resolution(self):
        f = fan_from_maximal([cone((1, 0), (1, 2))], 2)
        g = barycentric_subdivide(f, [cone((1, 0), (1, 2))])
        tops = g.top_cones()
        assert sorted(t.rays for t in tops) == [((1, 0), (1, 1)), ((1, 1), (1, 2))]
        assert all(is_regular(t) for t in tops)
        assert validate_fan(g).valid

    def test_p2_subdivision_stays_complete(self):
        f = p2_fan()
        g = barycentric_subdivide(f, list(f.top_cones()))
        assert validate_fan(g).valid
        assert is_complete(g)
        assert len(g.top_cones()) == 6

    def test_empty_selector_is_identity(self):
        f = p2_fan()
        g = barycentric_subdivide(f, [])
        assert tuple(g.cones) == tuple(f.cones)

    def test_support_preserved_by_sampling(self):
        rng = random.Random(103)
        f = fan_from_maximal([cone((1, 0), (1, 2)), cone((1, 2), (0, 1))], 2)
        g = barycentric_subdivide(f, list(f.top_cones()))
        for _ in range(1000):
            x = (F(rng.randint(-20, 20), rng.randint(1, 7)),
                 F(rng.randint(-20, 20), rng.randint(1, 7)))
            in_f = any(c.contains(x) for c in f.top_cones())
            in_g = any(c.contains(x) for c in g.top_cones())
            assert in_f == in_g

    def test_make_regular_terminates(self):
        rng = random.Random(107)
        rounds_needed = []
        for _ in range(12):
            a = rng.randint(1, 10)
            b = rng.randint(1, 10)
            c0 = cone((1, 0), (a, b))
            if c0.dim != 2:
                continue
            f = fan_from_maximal([c0], 2)
            g = make_regular(f, max_rounds=10)
            assert all(is_regular(c) for c in g.cones)
            assert validate_fan(g).valid
        # cone((1,0),(7,10)) needs three rounds: below that the cap is a
        # typed refusal that states the rounds allowed and the faces left
        rough = fan_from_maximal([cone((1, 0), (7, 10))], 2)
        with pytest.raises(DeskScopeError,
                           match="after 2 rounds allowed: 1 non-regular faces left"):
            make_regular(rough, max_rounds=2)
        assert all(is_regular(c) for c in make_regular(rough, max_rounds=3).cones)


class TestHilbertBasis:
    def test_quadrant(self):
        assert hilbert_basis(cone((1, 0), (0, 1))) == ((0, 1), (1, 0))

    def test_a1_cone(self):
        hb = hilbert_basis(cone((1, 0), (1, 2)))
        assert sorted(hb) == [(0, 1), (1, 0), (2, -1)]

    def test_regular_full_dim_has_n_generators(self):
        assert len(hilbert_basis(cone((1, 0), (1, 1)))) == 2
        assert len(hilbert_basis(cone((1, 0, 0), (0, 1, 0), (0, 0, 1)))) == 3

    def test_multiplicity_two_cone_in_rank_three(self):
        assert hilbert_basis(cone((1, 0, 0), (0, 1, 0), (1, 1, 2))) == (
            (0, 0, 1), (0, 1, 0), (0, 2, -1), (1, 0, 0), (1, 1, -1), (2, 0, -1))

    def test_every_window_point_is_generated(self):
        c = cone((1, 0), (1, 3))
        hb = hilbert_basis(c)
        d = dual_cone(c)

        def generated(x, gens, cone_):
            if all(v == 0 for v in x):
                return True
            for g in gens:
                diff = tuple(a - b for a, b in zip(x, g))
                if cone_.contains(diff) and generated(diff, gens, cone_):
                    return True
            return False

        for x in itertools.product(range(-6, 7), repeat=2):
            if d.contains(x):
                assert generated(x, hb, d), x

    def test_minimality(self):
        c = cone((1, 0), (1, 2))
        hb = hilbert_basis(c)
        d = dual_cone(c)
        for g in hb:
            others = [h for h in hb if h != g]
            # g must not be an N-combination of the others
            assert not _n_generated(g, others, d)


def _generated_modulo_lines(x, gens, rays):
    """Whether x is gens' N-combination plus a vector orthogonal to every
    ray: the pairings with the rays decide it."""
    def pair(v):
        return tuple(la.dot(r, v) for r in rays)

    steps = {pair(g) for g in gens} - {pair((0,) * len(x))}
    seen = set()

    def reach(v):
        if not any(v):
            return True
        if v in seen:
            return False
        seen.add(v)
        return any(reach(tuple(a - b for a, b in zip(v, s)))
                   for s in steps if all(a >= b for a, b in zip(v, s)))

    return reach(pair(x))


class TestLowerDimensionalCharts:
    """dual(c) cap M for dim c < rank: +- a basis of c^perp cap M and lifted
    generators, so every window point of the dual is an N-combination of
    the generators modulo c^perp cap M."""

    def check(self, c, radius):
        gens = hilbert_basis(c)
        assert all(la.dot(r, g) >= 0 for g in gens for r in c.rays)
        lines = [g for g in gens if all(la.dot(r, g) == 0 for r in c.rays)]
        assert la.rank(lines or [(0,) * c.rank]) == c.rank - c.dim
        for x in itertools.product(range(-radius, radius + 1), repeat=c.rank):
            if all(la.dot(r, x) >= 0 for r in c.rays):
                assert _generated_modulo_lines(x, gens, c.rays), (c, x)

    def test_every_cone_of_the_p2_fan(self):
        for c in p2_fan().cones:
            self.check(c, 3)
        ray = cone((-1, -1))
        assert hilbert_basis(ray) == ((-1, 0), (-1, 1), (1, -1))

    def test_the_diagonal_ray(self):
        # (1, 0) pairs to 1 with (1, 1): +-(1, -1) and (1, 1) alone pair to
        # even numbers and miss it
        c = cone((1, 1))
        assert hilbert_basis(c) == ((-1, 1), (1, -1), (1, 0))
        self.check(c, 3)

    def test_cones_with_lines(self):
        # the dual lies in the lines' orthogonal complement
        assert hilbert_basis(RationalCone([(1, 0, 0)], 3, lines=[(0, 1, 0)])) == (
            (0, 0, -1), (0, 0, 1), (1, 0, 0))
        assert hilbert_basis(RationalCone([(1, 0, 0), (1, 2, 0)], 3, lines=[(0, 0, 1)])) == (
            (0, 1, 0), (1, 0, 0), (2, -1, 0))

    def test_random_lower_dimensional_cones(self):
        rng = random.Random(2501)
        checked = 0
        while checked < 25:
            rank = rng.choice([2, 3, 3, 4])
            rays = [tuple(rng.randint(-3, 3) for _ in range(rank))
                    for _ in range(rng.randint(1, 3))]
            c = RationalCone(rays, rank)
            if not c.rays or c.dim == rank or not c.is_pointed:
                continue
            self.check(c, 2 if rank == 4 else 3)
            checked += 1


def _n_generated(x, gens, cone_, depth=0):
    if all(v == 0 for v in x):
        return depth > 0
    if depth > 12:
        return False
    for g in gens:
        diff = tuple(a - b for a, b in zip(x, g))
        if cone_.contains(diff) and _n_generated(diff, gens, cone_, depth + 1):
            return True
    return False


class TestChartPresentation:
    def test_regular_cone_no_relations(self):
        gens, rels = chart_presentation(cone((1, 0), (0, 1)))
        assert rels == ()

    def test_a1_single_relation(self):
        gens, rels = chart_presentation(cone((1, 0), (1, 2)))
        assert list(gens) == [(0, 1), (1, 0), (2, -1)]
        assert len(rels) == 1
        lhs, rhs = rels[0]
        # u * w = v^2 with u = (0,1), v = (1,0), w = (2,-1)
        assert sorted([lhs, rhs]) == sorted([(1, 0, 1), (0, 2, 0)])

    def test_product_cone_block_structure(self):
        # sigma x tau: quadrant x half-line in Z^3
        gens, rels = chart_presentation(cone((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert rels == ()
        assert len(gens) == 3

    def test_regular_iff_no_relations_random_simplicial(self):
        rng = random.Random(109)
        tried = 0
        while tried < 20:
            rays = [tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2)]
            if any(not any(r) for r in rays):
                continue
            c = RationalCone(rays, 2)
            if c.dim != 2 or len(c.rays) != 2:
                continue
            tried += 1
            gens, rels = chart_presentation(c)
            assert is_regular(c) == (len(rels) == 0)


class TestOrbits:
    def test_zero_cone(self):
        f = p2_fan()
        zero = RationalCone([], 2)
        rec = orbit_record(f, zero)
        assert rec.orbit_dim == 2
        assert len(rec.closure_list) == len(f.cones)

    def test_top_cone_fixed_point(self):
        f = p2_fan()
        top = f.top_cones()[0]
        rec = orbit_record(f, top)
        assert rec.orbit_dim == 0
        assert rec.closure_list == (top,)

    def test_ray_in_p2(self):
        f = p2_fan()
        ray = cone((1, 0))
        rec = orbit_record(f, ray)
        assert rec.orbit_dim == 1
        assert len(rec.closure_list) == 3  # the ray plus two adjacent 2-cones

    def test_not_in_fan(self):
        with pytest.raises(ConeNotInFan):
            orbit_record(p2_fan(), cone((2, 1)))

    def test_orbit_count_and_dims(self):
        for f in (p2_fan(), p1xp1_fan()):
            recs = [orbit_record(f, c) for c in f.cones]
            assert len(recs) == len(f.cones)
            for rec in recs:
                assert rec.orbit_dim + rec.cone.dim == f.rank
            # closure containment matches face order
            for c, d in itertools.combinations(f.cones, 2):
                if c in faces(d):
                    assert d in orbit_record(f, c).closure_list


class TestPLSupport:
    def test_min_of_linear_on_p2(self):
        f = p2_fan()
        values = {r.rays[0]: F(1) for c in f.top_cones() for r in faces(c) if r.dim == 1}
        phi = PLSupport(f, values)
        assert phi.is_positive()
        assert phi.value_at((1, 0)) == 1
        assert phi.value_at((2, 2)) == 4  # (1,0)+(0,1) scaled by 2 -> 2+2


def test_intersection_is_common_face_in_valid_fan():
    f = p2_fan()
    for a, b in itertools.combinations(f.top_cones(), 2):
        inter = intersect_cones(a, b)
        assert inter in faces(a) and inter in faces(b)


def test_star_subdivide_keeps_other_cones():
    f = p1xp1_fan()
    g = star_subdivide(f, (1, 1))
    assert validate_fan(g).valid
    assert is_complete(g)
    assert len(g.top_cones()) == 5
