"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail
lines.  Every tolerance is pinned here; exact means exact.
"""

import itertools
import json
import pathlib
import random
import time
from fractions import Fraction as F
from math import comb, factorial, pi

import pytest

from orthocusp import _linalg as la

_STATUS = []


def report(k, elapsed, budget, detail):
    line = f"[ACCEPTANCE {k}] PASS in {elapsed:.2f}s (budget {budget}s) - {detail}"
    print(line)
    _STATUS.append(line)


def test_criterion_1_hilbert_product_and_hasse_invariance():
    from orthocusp.qform import (
        QuadraticLattice,
        hasse_invariant,
        hilbert_symbol,
        relevant_places,
    )

    t0 = time.time()
    rng = random.Random(20260810)
    for _ in range(200):
        a = F(rng.choice([n for n in range(-40, 41) if n]), rng.choice([1, 2, 3, 5, 7]))
        b = F(rng.choice([n for n in range(-40, 41) if n]), rng.choice([1, 2, 3, 5, 7]))
        prod = 1
        for v in relevant_places(a, b):
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1, (a, b)
    from orthocusp.qform import Place

    L = QuadraticLattice([[1, 0, 0], [0, 2, 1], [0, 1, -5]])
    places = [Place(p) for p in (2, 3, 5, 7)]
    base = {v.p: hasse_invariant(L, v) for v in places}
    for _ in range(50):
        while True:
            T = la.mat([[F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(3)]
                        for _ in range(3)])
            if la.determinant(T) != 0:
                break
        L2 = QuadraticLattice(la.mat_mul(la.mat_mul(la.transpose(T), L.gram), T))
        for v in places:
            assert hasse_invariant(L2, v) == base[v.p]
    elapsed = time.time() - t0
    assert elapsed < 5
    report(1, elapsed, 5, "product formula on 200 pairs; Hasse invariant under "
           "50 basis changes")


def _random_bounded(rng, frame):
    from orthocusp.domains import BoundedPoint, in_bounded
    from orthocusp.gaussian import GaussianRational as GR

    while True:
        z = tuple(GR(F(rng.randint(-3, 3), rng.randint(4, 9)),
                     F(rng.randint(-3, 3), rng.randint(4, 9)))
                  for _ in range(frame.n))
        if in_bounded(z, frame):
            return BoundedPoint(z, frame)


def _random_tube_atilde(rng, frame):
    from orthocusp.domains import TubePoint, in_tube
    from orthocusp.gaussian import GaussianRational as GR

    while True:
        coords = tuple(GR(F(rng.randint(-6, 6), rng.randint(1, 6)),
                          F(rng.randint(-6, 6), rng.randint(1, 6)))
                       for _ in range(frame.n))
        if in_tube(coords, frame):
            return TubePoint(coords, frame)


def test_criterion_2_model_round_trips():
    from orthocusp.domains import psi, psi_bounded, psi_inv, standard_bounded_frame, upsilon, upsilon_inv

    t0 = time.time()
    rng = random.Random(22)
    frame = standard_bounded_frame(3)
    for _ in range(100):
        y = _random_tube_atilde(rng, frame)
        assert psi_inv(psi(y)).coords == y.coords
        z = upsilon_inv(y)
        assert upsilon(z).coords == y.coords
    for _ in range(100):
        z = _random_bounded(rng, frame)
        assert upsilon_inv(upsilon(z)).coords == z.coords
        p = psi_bounded(z)
        assert not frame.quadratic_c(p.coords)  # q(Psi(z)) = 0 exactly
        back = psi(upsilon(z))
        k = next(i for i, c in enumerate(p.coords) if c)
        lam = back.coords[k] / p.coords[k]
        assert all(a == lam * b for a, b in zip(back.coords, p.coords))
    elapsed = time.time() - t0
    assert elapsed < 10
    report(2, elapsed, 10, "psi/upsilon round trips, quadric condition, and "
           "Psi = psi o Upsilon, 100 exact points each")


def test_criterion_3_r_identity():
    from orthocusp.domains import standard_bounded_frame, tube_r, upsilon

    t0 = time.time()
    rng = random.Random(33)
    for n, block in [(2, None), (3, None), (4, [[-2, -1], [-1, -4]])]:
        frame = standard_bounded_frame(n, block)
        count = 100 if n == 3 else 20
        for _ in range(count):
            z = _random_bounded(rng, frame)
            Q = frame.q_a_prime(z.coords)
            s = 1 - 2 * z.coords[0] - F(1, 2) * Q
            assert tube_r(upsilon(z)) == s
    elapsed = time.time() - t0
    report(3, elapsed, 10, "r(Upsilon(z)) = 1 - 2 z1 - (1/2) z A' z^t exactly, "
           "140 points over n = 2, 3, 4")


def test_criterion_4_parabolic_suite():
    from orthocusp.domains import KappaClass, in_kappa, standard_bounded_frame
    from orthocusp.gaussian import GaussianRational as GR
    from orthocusp.parab import (
        CuspFlag,
        build_unipotent,
        chart_coords,
        omega_member,
        phi_alpha,
    )
    from orthocusp.qform import standard_atilde

    t0 = time.time()
    rng = random.Random(44)
    L = standard_atilde(3)
    G = L.gram
    f1 = CuspFlag.from_lattice(L, "rank1")
    f2 = CuspFlag.from_lattice(L, "rank2")

    def rp1():
        return (F(rng.randint(-3, 3), rng.randint(1, 3)),
                F(rng.randint(-3, 3), rng.randint(1, 3)),
                (F(rng.randint(-3, 3), rng.randint(1, 3)),))

    def rp2():
        return ((F(rng.randint(-3, 3), rng.randint(1, 3)),),
                (F(rng.randint(-3, 3), rng.randint(1, 3)),),
                F(rng.randint(-3, 3), rng.randint(1, 3)))

    for _ in range(50):
        for g in (build_unipotent(f1, rp1()), build_unipotent(f2, rp2())):
            assert la.mat_eq(la.mat_mul(la.mat_mul(la.transpose(g), G), g), G)
    # centre additivity (rank-1 centre is the whole radical)
    for _ in range(20):
        p, q = rp1(), rp1()
        s = (p[0] + q[0], p[1] + q[1], tuple(a + b for a, b in zip(p[2], q[2])))
        assert la.mat_eq(la.mat_mul(build_unipotent(f1, p), build_unipotent(f1, q)),
                         build_unipotent(f1, s))
    # D = Phi^{-1}(Omega), 100 quadric points per cusp kind
    frame = standard_bounded_frame(3)

    def ambient(chart):
        c1, c2 = chart[0], chart[1]
        qa = sum(GR(-2) * c * c for c in chart[2:])
        return (-(c1 * c2) - qa * GR(F(1, 2)), c2, GR(1), c1) + tuple(chart[2:])

    for flag in (f1, f2):
        hits = 0
        for _ in range(100):
            if flag.kind == "rank1":
                chart = tuple(GR(F(rng.randint(-3, 3), 2), F(rng.randint(-6, 6), 2))
                              for _ in range(3))
            else:
                chart = (GR(F(rng.randint(-3, 3), 2), F(rng.randint(1, 6), 2)),
                         GR(F(rng.randint(-3, 3), 2), F(rng.randint(-6, 6), 2)),
                         GR(F(rng.randint(-3, 3), 2), F(rng.randint(-3, 3), 2)))
            member = omega_member(phi_alpha(chart, flag), flag)
            kap = in_kappa(ambient(chart), frame)
            assert member == (kap == KappaClass.PLUS)
            hits += member
        assert hits > 0
    elapsed = time.time() - t0
    report(4, elapsed, 30, "g^t A g = A for all unipotents; D = Phi^{-1}(Omega) "
           "on 100 points per cusp kind; centre additivity")


def test_criterion_5_fan_suite():
    from orthocusp.fan import (
        RationalCone,
        barycentric_subdivide,
        chart_presentation,
        faces,
        fan_from_maximal,
        is_complete,
        is_regular,
        orbit_record,
        validate_fan,
    )

    t0 = time.time()
    p2 = fan_from_maximal([RationalCone([(1, 0), (0, 1)], 2),
                           RationalCone([(0, 1), (-1, -1)], 2),
                           RationalCone([(-1, -1), (1, 0)], 2)], 2)
    p1p1 = fan_from_maximal([RationalCone([(1, 0), (0, 1)], 2),
                             RationalCone([(0, 1), (-1, 0)], 2),
                             RationalCone([(-1, 0), (0, -1)], 2),
                             RationalCone([(0, -1), (1, 0)], 2)], 2)
    for f in (p2, p1p1):
        assert validate_fan(f).valid
        assert is_complete(f)
    c = RationalCone([(1, 0), (1, 2)], 2)
    assert not is_regular(c)
    g = barycentric_subdivide(fan_from_maximal([c], 2), [c])
    tops = g.top_cones()
    assert sorted(t.rays for t in tops) == [((1, 0), (1, 1)), ((1, 1), (1, 2))]
    assert all(is_regular(t) for t in tops)
    for t in tops:
        rays = [la.vec(r) for r in t.rays]
        assert abs(la.determinant(rays)) == 1
    gens, rels = chart_presentation(c)
    assert len(rels) == 1
    lhs, rhs = rels[0]
    assert sorted([lhs, rhs]) == sorted([(1, 0, 1), (0, 2, 0)])  # u w = v^2
    for f in (p2, p1p1, g):
        for cone in f.cones:
            rec = orbit_record(f, cone)
            assert rec.orbit_dim + cone.dim == f.rank
    elapsed = time.time() - t0
    report(5, elapsed, 30, "P2/P1xP1 valid+complete; A1 subdivision regular "
           "(two det-1 cones); chart relation u w = v^2; orbit dims")


def test_criterion_6_dual_cone_oracle():
    from orthocusp.corecone import SelfAdjointCone
    from orthocusp.fan import RationalCone, dual_cone

    t0 = time.time()
    rng = random.Random(66)
    # light-cone example: b = hyperbolic + (-I2), inner = identity
    gram = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    cone = SelfAdjointCone(gram, (1, 0, 0, 0))

    def sample(cond):
        while True:
            v = tuple(F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(4))
            if any(v) and cond(v):
                return v

    omega_pts = [sample(lambda v: cone.contains(v)) for _ in range(500)]
    outside_pts = [sample(lambda v: not cone.contains(v, closed=True))
                   for _ in range(500)]

    def negative_witness(a):
        """Exact interior point x of Omega with <a, x> < 0 (a outside)."""
        a1, a2, a3, a4 = a
        if a1 < 0:
            cand = (F(1), F(1, 1000), F(0), F(0))
            if cone.pair(a, cand) < 0:
                return cand
        if a2 < 0:
            cand = (F(1, 1000), F(1), F(0), F(0))
            if cone.pair(a, cand) < 0:
                return cand
        # a1, a2 >= 0 and q(a) < 0: boundary minimizer pushed inside
        if a2 > 0:
            x = (F(1), (a3 * a3 + a4 * a4) / (2 * a2 * a2), -a3 / a2, -a4 / a2)
        else:
            t = F(1, 2) / (a1 + 1)
            x = (t * t * (a3 * a3 + a4 * a4), F(1), -a3 * t, -a4 * t)
        val = cone.pair(a, x)
        assert val < 0, (a, x, val)
        w = (F(1), F(1), F(0), F(0))  # interior direction
        pw = cone.pair(a, w)
        t = -val / (2 * (abs(pw) + 1))
        xi = tuple(c + t * d for c, d in zip(x, w))
        return xi

    # claimed: the functional <a, .> is nonnegative on Omega iff a in closure
    for a in omega_pts[:250] + [tuple(map(F, r)) for r in
                                [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 1)]]:
        if cone.contains(a, closed=True):
            assert all(cone.pair(a, x) > 0 for x in omega_pts)
    for a in outside_pts:
        x = negative_witness(a)
        assert cone.contains(x), (a, x)
        assert cone.pair(a, x) < 0, (a, x)
    # dual_cone involutive on 50 random pointed cones
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
            continue
        if dual_cone(d).rays != c.rays:
            continue
        done += 1
    assert done == 50
    elapsed = time.time() - t0
    report(6, elapsed, 30, "light-cone dual verified on 1000 rational samples; "
           "dual involutive on 50 cones")


def test_criterion_7_core_window():
    from orthocusp.corecone import (
        cone_lattice_points,
        core_extremes,
        first_quadrant_cone,
        light_cone,
        semi_dual,
        support_fan,
    )
    from orthocusp.fan import validate_fan

    t0 = time.time()
    rng = random.Random(77)
    fq = first_quadrant_cone()
    lc = light_cone(2)
    # kernel axioms: 0 not in K_T; x + omega stays in K_T (500 samples)
    for cone, T in ((fq, [(1, 0), (0, 1)]),
                    (lc, [(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1)])):
        K = semi_dual(T, cone)
        assert not K.member(tuple(0 for _ in range(cone.dim)), cone)
        members = [v for v in cone_lattice_points(cone, 4) if K.member(v, cone)]
        omega = cone_lattice_points(cone, 3)
        for _ in range(250):
            x = rng.choice(members)
            w = rng.choice(omega)
            assert K.member(tuple(a + b for a, b in zip(x, w)), cone)
    # stability between H and 2H (certified inside core_extremes)
    e_fq = core_extremes(fq, "perfect", 4)
    assert e_fq.stable and e_fq.points == ((1, 1),)
    e_lc = core_extremes(lc, "central", 4)
    assert e_lc.stable
    # degenerate support set yields the trivial fan with a warning
    fan, rep = support_fan(e_fq, fq)
    assert rep.degenerate and any("DegenerateSupport" in w for w in rep.warnings)
    assert validate_fan(fan).valid
    # a nondegenerate window fan also validates
    e_dual = core_extremes(lc, "central_dual", 2)
    fan2, rep2 = support_fan(e_dual, lc, window=4)
    assert not rep2.degenerate
    assert validate_fan(fan2).valid
    elapsed = time.time() - t0
    report(7, elapsed, 60, "kernel axioms on 500 samples; H/2H stability; "
           "support fans validate; degenerate case warns")


def test_criterion_8_characteristic_classes():
    from orthocusp.chern import (
        GradedClass,
        ch_from_chern,
        hrr_chi,
        line_bundle_ch,
        monomial_delta_degree,
        error_term_symbolic,
        projective_space_setup,
        todd_from_chern,
        todd_series_coefficients,
        universal_Q,
    )

    t0 = time.time()
    # td through degree 4 against the formal-root series oracle
    n = 4
    degs = {f"a{i}": 1 for i in range(1, 5)}
    roots = [GradedClass.gen(f"a{i}", 1, degs, n) for i in range(1, 5)]
    es = []
    for k in range(1, 5):
        acc = None
        for sub in itertools.combinations(roots, k):
            term = sub[0]
            for f in sub[1:]:
                term = term * f
            acc = term if acc is None else acc + term
        es.append(acc)
    coeffs = todd_series_coefficients(n)
    oracle = GradedClass.unit(degs, n)
    for x in roots:
        factor = GradedClass.unit(degs, n)
        power = factor
        for k in range(1, n + 1):
            power = power * x
            if coeffs[k]:
                factor = factor + power * coeffs[k]
        oracle = oracle * factor
    assert todd_from_chern(es, n) == oracle
    # chi(P^k, O(d)) = binomial(k+d, k) exactly
    for k in range(1, 5):
        h, td, deg = projective_space_setup(k)
        for d in range(-6, 7):
            num = 1
            for j in range(k):
                num *= k + d - j
            assert hrr_chi(line_bundle_ch(d, h), td, deg) == F(num, factorial(k))
    # universal_Q vs hrr on 50 random substitutions per (n, r)
    rng = random.Random(88)
    for nn, rr in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]:
        q = universal_Q(nn, rr)
        dd = {f"cE{i}": i for i in range(1, rr + 1)}
        dd.update({f"w{j}": j for j in range(1, nn + 1)})
        cs = [GradedClass.gen(f"cE{i}", i, dd, nn) for i in range(1, rr + 1)]
        chE = ch_from_chern(cs, nn, rank=rr)
        cT = [GradedClass.gen(f"w{j}", j, dd, nn) * (F(-1) ** j)
              for j in range(1, nn + 1)]
        top = (chE * todd_from_chern(cT, nn)).graded_part(nn)
        for _ in range(50):
            ev = {i: F(rng.randint(-5, 5), rng.randint(1, 3)) for i in range(1, rr + 1)}
            wv = {j: F(rng.randint(-5, 5), rng.randint(1, 3)) for j in range(1, nn + 1)}
            subs = {f"cE{i}": v for i, v in ev.items()}
            subs.update({f"w{j}": v for j, v in wv.items()})
            assert q.evaluate(ev, wv) == top.substitute(subs)
    # every error-term monomial carries a Delta factor
    for nn, npr in [(2, 1), (3, 1), (4, 2)]:
        for cls in error_term_symbolic(nn, npr).values():
            for mono, _ in cls.terms:
                assert monomial_delta_degree(mono) > 0
    elapsed = time.time() - t0
    assert elapsed < 30
    report(8, elapsed, 30, "td degree <= 4 root oracle; chi(P^k, O(d)) binomials; "
           "universal Q vs HRR x50; error term Delta-supported")


def test_criterion_9_dimension_pipeline():
    from orthocusp.dimform import (
        gamma_half_reciprocal_product,
        hilbert_poly_dual,
        local_density,
    )
    from orthocusp.qform import QuadraticLattice

    t0 = time.time()
    for n in range(1, 7):
        assert hilbert_poly_dual(n).evaluate(0) == 1
    P1 = hilbert_poly_dual(1)
    for ell in range(0, 6):
        assert P1.evaluate(ell) == -2 * ell + 1  # conic = P^1 curve oracle
    rational, pi_power = gamma_half_reciprocal_product(3)
    value = float(rational) * pi**pi_power
    assert abs(value - 2 * pi**2) < 1e-12 * (2 * pi**2)
    one = QuadraticLattice([[1]])
    for p in (3, 5, 7):
        res = local_density(one, p)
        assert res.alpha_p == 2
        assert res.k_stable >= 1  # stabilization certificate
    elapsed = time.time() - t0
    assert elapsed < 60
    report(9, elapsed, 60, "P(0)=1 for n<=6; conic oracle; Gamma product = 2 pi^2 "
           "to 12 digits; alpha_p(<1>) = 2 at p = 3, 5, 7")


def test_criterion_10_ramification_suite():
    from orthocusp.cycles import (
        HEEGNER_REFLECTION,
        INTERIOR_UNRAMIFIED,
        MINUS_IDENTITY,
        SPECIAL_CYCLE,
        IsometryElement,
        chi_order_at,
        classify_ramification,
        cyclotomic_decomposition,
        enumerate_isometries,
        euler_phi,
    )
    from orthocusp.errors import NoPositiveEigenplane
    from orthocusp.qform import QuadraticLattice

    t0 = time.time()
    diag11 = QuadraticLattice([[1, 0], [0, 1]])
    a2 = QuadraticLattice([[2, 1], [1, 2]])
    assert len(enumerate_isometries(diag11, 1)) == 8
    assert len(enumerate_isometries(a2, 1)) == 12
    sig21 = QuadraticLattice([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    sig22 = QuadraticLattice([[1, 0, 0, 0], [0, 1, 0, 0],
                              [0, 0, -1, 0], [0, 0, 0, -1]])
    ident = IsometryElement.make(la.identity(3), sig21)
    minus = IsometryElement.make(la.mat_scale(F(-1), la.identity(3)), sig21)
    refl = IsometryElement.make([[1, 0, 0], [0, 1, 0], [0, 0, -1]], sig21)
    jj = IsometryElement.make(((0, -1, 0, 0), (1, 0, 0, 0),
                               (0, 0, 0, -1), (0, 0, 1, 0)), sig22)
    assert classify_ramification(ident, sig21).classification == INTERIOR_UNRAMIFIED
    assert classify_ramification(minus, sig21).classification == MINUS_IDENTITY
    assert classify_ramification(refl, sig21).classification == HEEGNER_REFLECTION
    rep = classify_ramification(jj, sig22)
    assert rep.classification == SPECIAL_CYCLE and rep.field_descriptor == "Q(zeta_4)"
    # cyclotomic certificates: d * phi(r) = rank S
    for g, L in ((jj, sig22),):
        cert = cyclotomic_decomposition(g, L)
        assert cert.verified and cert.d * euler_phi(cert.m) == cert.rank
    # kernel criterion over every enumerated element (skips reported)
    for L in (diag11, a2):
        pool = enumerate_isometries(L, 1)
        skipped = 0
        for g in pool:
            try:
                chi_order_at(g, L)  # raises AssertionError on violation
            except NoPositiveEigenplane:
                skipped += 1
        assert skipped == len(pool) // 2  # the reflections
    elapsed = time.time() - t0
    assert elapsed < 30
    report(10, elapsed, 30, "orders 8 and 12; four classifications; d phi(r) = "
           "rank S; kernel criterion on all enumerated elements")


GOLDEN = pathlib.Path(__file__).parent / "golden"


def _face_closed(maximal):
    """Cone list of a fan holding every face of the simplicial maximal cones."""
    faces = set()
    for rays in maximal:
        for k in range(len(rays) + 1):
            faces.update(tuple(sorted(s)) for s in itertools.combinations(rays, k))
    return [{"rays": [list(r) for r in f]} for f in sorted(faces)]


def criterion_11_cases(tmp_path):
    """(golden name, argv) for every acceptance-11 CLI case."""

    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    hyp = write("hyp.json", {"gram": [["0", "1"], ["1", "0"]]})
    gram3 = write("g3.json", {"gram": [["1", "0", "0"], ["0", "1", "0"],
                                       ["0", "0", "-1"]]})
    atilde = write("at.json", {"gram": [["0", "0", "1", "0"], ["0", "0", "0", "1"],
                                        ["1", "0", "0", "0"], ["0", "1", "0", "0"]]})
    fan = write("fan.json", {"rank": 2, "cones": [
        {"rays": [[1, 0], [0, 1]]}, {"rays": [[0, 1], [-1, -1]]},
        {"rays": [[-1, -1], [1, 0]]}, {"rays": [[1, 0]]}, {"rays": [[0, 1]]},
        {"rays": [[-1, -1]]}, {"rays": []}]})
    gram4 = write("g4.json", {"gram": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                                       ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]})
    one = write("one.json", {"gram": [["1"]]})
    a2 = write("a2gram.json", {"gram": [["2", "1"], ["1", "2"]]})
    uum2 = write("uum2.json", {"gram": [[str(x) for x in row] for row in (
        (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (1, 0, 0, 0, 0), (0, 1, 0, 0, 0),
        (0, 0, 0, 0, -2))]})
    point = write("pt.json", {"model": "bounded",
                              "coords": [["1/8", "1/9"], ["-1/7", "0"]],
                              "frame": json.loads(open(atilde).read())})
    # polyhedral cases: light_cone(2) with its swap and reflection,
    # light_cone(3), and the face-closed fans of (P^1)^3 and P^3
    lc2 = write("lc2.json", {"gram": [["1", "0", "0"], ["0", "-1", "0"],
                                      ["0", "0", "-1"]]})
    lc3 = write("lc3.json", {"gram": [["1", "0", "0", "0"], ["0", "-1", "0", "0"],
                                      ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]})
    lc2gens = write("lc2gens.json", {"generators": [
        [[1, 0, 0], [0, 0, 1], [0, 1, 0]], [[1, 0, 0], [0, -1, 0], [0, 0, 1]]]})
    p1cubed = write("p1cubed.json", {"rank": 3, "cones": _face_closed(
        [((sx, 0, 0), (0, sy, 0), (0, 0, sz))
         for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)])})
    p3_rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    p3 = write("p3.json", {"rank": 3, "cones": _face_closed(
        [tuple(r for j, r in enumerate(p3_rays) if j != i) for i in range(4)])})
    return [
        ("invariants", ["invariants", "--gram", hyp, "--primes", "2,3,5"]),
        ("map-point", ["map-point", "--point", point, "--from", "bounded",
                       "--to", "projective"]),
        ("cusp-rank1", ["cusp", "--gram", atilde, "--flag", "rank1"]),
        ("cusp-rank2", ["cusp", "--gram", atilde, "--flag", "rank2"]),
        ("fan-validate", ["fan", "validate", "--fan", fan]),
        ("fan-complete", ["fan", "complete", "--fan", fan]),
        ("fan-regular", ["fan", "regular", "--fan", fan]),
        ("fan-chart", ["fan", "chart", "--fan", fan, "--cone", "0"]),
        ("fan-subdivide", ["fan", "subdivide", "--fan", fan]),
        ("core-decompose", ["core-decompose", "--gram", hyp, "--positivity", "1,1",
                            "--variant", "perfect", "--height", "4"]),
        ("chern-td", ["chern", "td", "--degree", "4"]),
        ("chern-q-poly", ["chern", "q-poly", "--dim", "3", "--rank", "2"]),
        ("hilbert-poly", ["hilbert-poly", "--n", "4"]),
        ("local-density", ["local-density", "--gram", one, "--p", "5"]),
        ("hm-volume", ["hm-volume", "--gram", gram3, "--alpha-inf", "1"]),
        ("dim-leading", ["dim-leading", "--gram", gram3, "--ell", "4",
                         "--alpha-inf", "1"]),
        ("ramify", ["ramify", "--gram", a2, "--bound", "1"]),
        # <1,1,-1,-1>: rank-4 cyclotomic certificates at orders 4 and 8
        ("ramify-g4", ["ramify", "--gram", gram4, "--bound", "1"]),
        # U+U at bound 2 (the certificate's repair path, fixed-vector rows)
        # and U+U+<-2> at bound 1, captured before the trace multiplicities
        ("ramify-uu-b2", ["ramify", "--gram", atilde, "--bound", "2"]),
        ("ramify-uum2", ["ramify", "--gram", uum2, "--bound", "1"]),
        ("core-decompose-lc2-central-dual",
         ["core-decompose", "--gram", lc2, "--variant", "central_dual",
          "--height", "2", "--gens", lc2gens]),
        ("fan-validate-p1cubed", ["fan", "validate", "--fan", p1cubed]),
        ("fan-complete-p3", ["fan", "complete", "--fan", p3]),
        # the hull-heavy paths: perfect and central cores of light_cone(2),
        # the perfect core of light_cone(3), and a subdivision of (P^1)^3
        ("core-decompose-lc2-perfect", ["core-decompose", "--gram", lc2,
                                        "--variant", "perfect", "--height", "3"]),
        ("core-decompose-lc2-central", ["core-decompose", "--gram", lc2,
                                        "--variant", "central", "--height", "3"]),
        ("core-decompose-lc3-perfect", ["core-decompose", "--gram", lc3,
                                        "--variant", "perfect", "--height", "3"]),
        ("fan-subdivide-p1cubed", ["fan", "subdivide", "--fan", p1cubed]),
    ]


def test_criterion_11_cli_determinism(tmp_path):
    from orthocusp.cli import main

    t0 = time.time()
    cases = criterion_11_cases(tmp_path)
    for name, argv in cases:
        o1, o2 = tmp_path / f"r1_{name}.json", tmp_path / f"r2_{name}.json"
        assert main(argv + ["--out", str(o1)]) == 0, argv
        assert main(argv + ["--out", str(o2)]) == 0, argv
        b1, b2 = o1.read_bytes(), o2.read_bytes()
        assert b1 == b2, argv
        assert b1 == (GOLDEN / f"{name}.json").read_bytes(), argv
        assert json.loads(b1).get("conventions") is not None
    elapsed = time.time() - t0
    report(11, elapsed, 60, f"{len(cases)} CLI cases byte-identical across two "
           "runs and to tests/golden/")
