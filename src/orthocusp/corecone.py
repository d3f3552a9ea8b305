"""Kernels, cores, co-cores and support-hyperplane fans, at desk scale.

Every computation is windowed by a height bound H with an H-versus-2H
stability certificate; the module reports window-level evidence only and
never claims global admissibility.  One scan enumerates the nonzero
integral vectors of sup-norm <= h in the closed cone, deriving for each
prefix the last coordinates as one or two integer intervals.  Open-cone
points, recession rays (primitive, q = 0) and kernel points are filters
of it; core_extremes scans once, at 2H, and hands the H window's rays to
support_fan inside the ExtremeSet.  A pool point is extreme when it is a
vertex of the hull of the pool plus the recession rays (one double
description pass of fan._facets_of) and a minimum of the pool in the
closed cone's order (one graded integer sweep); points one recession ray
above another pool point are neither and are dropped first.  Support
candidates are facet normals of the windowed hull of the extreme set.
Pairings on window data run over int: the covectors inner * t are scaled
once to integer rows over one denominator, and the cone tests use the
scaled integer Gram.  No Fraction is built per window point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import _linalg as la
from .errors import NotConePreserving, UnstableTruncation, WrongSignature
from .fan import Fan, RationalCone, _facets_of, fan_from_maximal, validate_fan
from .qform import QuadraticLattice, diagonalize, signature


class SelfAdjointCone:
    """Open cone {q(y) > 0, b(y, w) > 0} for a signature-(1,k) form.

    w is the positive vector of a diagonalization, signed so that the
    positivity covector rho is positive at w; a rho that vanishes at w
    selects no component and is refused.  When rho is positive on the
    whole component, the open cone is {q(y) > 0, <rho, y> > 0}, and the
    closed cone {q(y) >= 0, b(y, w) >= 0} holds one half of each isotropic
    line even where rho vanishes.

    inner is the positive-definite self-adjointness form used for all
    kernel pairings <x, y>.
    """

    def __init__(self, gram, positivity_ray, inner=None):
        self.lattice = QuadraticLattice(gram)
        diag, T = diagonalize(self.lattice)
        pos = [i for i, d in enumerate(diag) if d > 0]
        if len(pos) != 1:
            raise WrongSignature("self-adjoint cone needs signature (1, k)")
        self.rho = la.vec(positivity_ray)
        self.dim = self.lattice.rank
        w = la.primitive([row[pos[0]] for row in T])
        side = la.dot(self.rho, w)
        if side == 0:
            raise ValueError(f"positivity covector vanishes at the interior point {list(w)}")
        # the covector b(., w), with w on the side where rho is positive
        self.side = la.mat_vec(self.lattice.gram, w if side > 0 else [-x for x in w])
        if inner is None:
            inner = la.identity(self.dim)
        self.inner = la.mat(inner)
        self._inner = QuadraticLattice(self.inner)
        if signature(self._inner) != (self.dim, 0):
            raise ValueError("inner form must be positive definite")
        # a positive integer multiple of the side covector keeps its signs
        (self._side,), _ = la.scaled_int([self.side])

    def pair(self, x, y) -> Fraction:
        return self._inner.bilinear(x, y)

    def contains(self, v, closed: bool = False) -> bool:
        if type(sum(v)) is not int:
            # a positive integer multiple of v has the same signs
            (v,), _ = la.scaled_int([v])
        q, s = la.form(self.lattice.scaled_gram, v, v), la.dot(self._side, v)
        return q >= 0 and s >= 0 if closed else q > 0 and s > 0


def first_quadrant_cone() -> SelfAdjointCone:
    """q = 2xy, positivity x + y > 0: the open first quadrant."""
    return SelfAdjointCone([[0, 1], [1, 0]], (1, 1))


def light_cone(k: int) -> SelfAdjointCone:
    """x0^2 - x1^2 - ... - xk^2 > 0, x0 > 0 in R^{k+1}."""
    G = [[Fraction(0)] * (k + 1) for _ in range(k + 1)]
    G[0][0] = Fraction(1)
    for i in range(1, k + 1):
        G[i][i] = Fraction(-1)
    rho = tuple(1 if i == 0 else 0 for i in range(k + 1))
    return SelfAdjointCone(G, rho)


def _closed_window(cone: SelfAdjointCone, height: int):
    """Sorted nonzero integral vectors of sup-norm <= height in the closed cone.

    For each prefix x of the first dim - 1 coordinates, in lexicographic
    order, the last coordinates t are exact integer intervals: over the
    scaled Gram B, q(x, t) = a t^2 + 2 b t + c with a = B[-1][-1],
    b = B[-1][:-1] . x and c = q(x) (la.quadratic_nonneg), and the side
    covector bounds t on one side.
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    B, side = cone.lattice.scaled_gram, cone._side
    a, row, top = B[-1][-1], B[-1][:-1], [r[:-1] for r in B[:-1]]
    s, head = side[-1], side[:-1]
    out = []
    for x in itertools.product(range(-height, height + 1), repeat=cone.dim - 1):
        s0 = la.dot(head, x)
        if s == 0 and s0 < 0:
            continue
        lo = max(-height, -(s0 // s)) if s > 0 else -height
        hi = min(height, s0 // -s) if s < 0 else height
        for ts in la.quadratic_nonneg(a, la.dot(row, x), la.form(top, x, x), lo, hi):
            out.extend(x + (t,) for t in ts if t or any(x))
    return tuple(out)


def _open_points(points, cone: SelfAdjointCone):
    return tuple(v for v in points if cone.contains(v))


def _recession_rays(points, cone: SelfAdjointCone):
    B = cone.lattice.scaled_gram
    return tuple(sorted({la.primitive(v) for v in points if la.form(B, v, v) == 0}))


def cone_lattice_points(cone: SelfAdjointCone, height: int, closed: bool = False):
    """Integral vectors of sup-norm <= height in the (closed) cone, minus 0."""
    points = _closed_window(cone, height)
    return points if closed else _open_points(points, cone)


def boundary_rays(cone: SelfAdjointCone, height: int):
    """Primitive integral rays on the boundary of the cone in the window
    (q = 0 directions; the recession generators used by hull reductions).

    A window under-approximation of the closed cone; the stability
    certificate covers the truncation.
    """
    return _recession_rays(_closed_window(cone, height), cone)


@dataclass(frozen=True)
class KernelSpec:
    """K_T = {x in closed cone : <x, t> >= 1 for all t in T}.

    The comparison is closed (>= 1); semi-duality and hull computations
    need the closed version (the strict variant differs only on the
    boundary), and reports carry the flag.

    member tests <x, t> >= 1 as dot(c, x) >= d over the integer
    covectors (C, d) of T under the cone's inner form; members filters a
    whole point list against one computation of them.
    """

    points: tuple

    def members(self, xs, cone: SelfAdjointCone) -> tuple:
        C, d = _covectors(self.points, cone)
        return tuple(x for x in xs if cone.contains(x, closed=True)
                     and all(la.dot(c, x) >= d for c in C))

    def member(self, x, cone: SelfAdjointCone) -> bool:
        return bool(self.members((x,), cone))


def _covectors(points, cone: SelfAdjointCone):
    """(C, d): integer rows over one positive d with C[i] / d = inner * points[i],
    so <x, points[i]> = dot(C[i], x) / d, from the inner form's integer Gram."""
    C, d = la.scaled_int([la.mat_vec(cone._inner.scaled_gram, t) for t in points])
    return C, d * cone._inner.den


def semi_dual(points, cone: SelfAdjointCone) -> KernelSpec:
    """Semi-dual of a point set: the kernel K_T with T = points."""
    pts = tuple(tuple(la.frac(x) for x in p) for p in points)
    if not pts:
        raise ValueError("semi_dual needs a nonempty point set")
    for p in pts:
        if not cone.contains(p, closed=True) or not any(p):
            raise ValueError("semi-dual points must lie in the closed cone minus 0")
    return KernelSpec(points=pts)


@dataclass(frozen=True)
class ExtremeSet:
    points: tuple
    truncation: int
    variant: str
    stable: bool
    # the window's recession rays, when core_extremes made the set
    recession: tuple | None = field(default=None, compare=False, repr=False)


def _drop_shifts(pool, recession):
    """The pool points p with p - r in the pool for no recession row r.

    Vectors are keyed by sum v[i] * base^i.  For pool entries in [-h, h]
    and row entries in [-g, g], entries of p - r - p' lie in
    [-(2h + g), 2h + g], so with base 2h + g + 1, key(p) - key(r) is
    key(p') exactly when p - r = p'.
    """
    if not pool or not recession:
        return list(pool)
    h, g = (max(map(abs, itertools.chain.from_iterable(vs))) for vs in (pool, recession))
    weights = [(2 * h + g + 1) ** i for i in range(len(pool[0]))]
    keys = [la.dot(weights, p) for p in pool]
    members, shifts = set(keys), [la.dot(weights, r) for r in recession]
    return [p for p, k in zip(pool, keys) if not any(k - s in members for s in shifts)]


def _closed_minima(pool, cone: SelfAdjointCone):
    """fan._cone_minima of the pool in the closed cone's order, graded by
    side, which is positive on the closed cone minus 0 (w^perp is negative
    definite).  side(v - h) >= 0 for every h kept before v, so v - h is in
    the closed cone exactly when q(v) + q(h) >= 2 h^t B v, B the scaled Gram.
    """
    B, side = cone.lattice.scaled_gram, cone._side
    kept = []
    for v in sorted(pool, key=lambda v: (la.dot(side, v), v)):
        Bv = la.mat_vec(B, v)
        qv = la.dot(v, Bv)
        if not any(qv + qh >= 2 * la.dot(h, Bv) for h, qh in kept):
            kept.append((v, qv))
    return [v for v, _ in kept]


def _extreme_points_of(pool, recession, cone: SelfAdjointCone):
    """Pool points that are vertices of conv(pool) + cone(recession) and
    are not v = s + c for another pool point s and c in the closed cone.

    The pool is a set of distinct integral points of the closed cone, and
    every recession row must lie in the closed cone.  Shift lemma: when
    p - r is in the pool for a recession row r, p = (p - r) + r is neither
    a vertex nor a minimum in the closed cone's order; the side covector
    is positive on r, so by induction on the grade the other points span
    the same polyhedron and hold every minimum.  Such points are dropped
    first, with a set freed before the hull runs.  The vertices are the p
    whose lift (p, 1) is an extreme generator of the pointed cone over
    (recession, 0) and (pool, 1), whose generators lie on distinct rays;
    recession rows come first to keep the double description small.  The
    minima filter stays: window recession rays under-approximate the cone.
    """
    pool = _drop_shifts(pool, recession)
    gens = [tuple(r) + (0,) for r in recession] + [tuple(p) + (1,) for p in pool]
    vertices = {g[:-1] for g in _facets_of(gens, cone.dim + 1)[2] if g[-1]}
    return tuple(sorted(v for v in _closed_minima(pool, cone) if tuple(v) in vertices))


def core_extremes(cone: SelfAdjointCone, variant: str, height: int) -> ExtremeSet:
    """Window extreme points of the selected core, with stability certificate.

    central      : K_cent = closed convex hull of (open cone) lattice points
    perfect      : K_perf = semi-dual of hull(closed cone lattice points - 0)
    central_dual : the co-core K_cent^vee = K_T with T = E(K_cent)
    Certification: the same computation at height 2H must return the same
    points inside the H window; otherwise UnstableTruncation.  Both windows
    and the H window's recession rays (the 2H rays of sup-norm <= H) are
    filters of one scan at 2H; the ExtremeSet carries those rays on.
    """
    if variant not in ("central", "perfect", "central_dual"):
        raise ValueError(f"unknown core variant {variant!r}")
    window = _closed_window(cone, 2 * height)  # raises for height < 1
    rays = _recession_rays(window, cone)
    window_h, rays_h = (tuple(v for v in vs if max(map(abs, v)) <= height)
                        for vs in (window, rays))
    e_h = _core_extremes_window(cone, variant, window_h, rays_h)
    e_2h = _core_extremes_window(cone, variant, window, rays)
    inside = tuple(p for p in e_2h if max(abs(x) for x in p) <= height)
    if set(e_h) != set(inside):
        raise UnstableTruncation(f"window H={height} returns {e_h}, window 2H keeps {inside}")
    return ExtremeSet(points=e_h, truncation=height, variant=variant, stable=True,
                      recession=rays_h)


def _core_extremes_window(cone: SelfAdjointCone, variant: str, points, recession):
    """Extreme points of the variant's pool, from the closed-cone window points."""
    pool = points if variant == "perfect" else _open_points(points, cone)
    extremes = _extreme_points_of(pool, recession, cone)
    if variant == "central":
        return extremes
    # the window points lie in the closed cone: only the pairings are tested
    kernel = la.rows_at_least(*_covectors(extremes, cone), points)
    return _extreme_points_of(kernel, recession, cone)


@dataclass
class SupportFanReport:
    degenerate: bool
    functionals: tuple
    fan_valid: bool
    conventions: tuple = ("kernel-comparison-closed",
                          "support-candidates-from-windowed-hull-facets")
    warnings: list = field(default_factory=list)


def support_fan(E: ExtremeSet, cone: SelfAdjointCone, window: int | None = None):
    """Support-hyperplane fan of a kernel from its windowed extreme set.

    Candidates y are facet normals (level-1 normalized) of the windowed
    hull of E: each facet (a, a0) with a0 < 0 of the cone over
    (inner e, 1) and (inner r, 0), for e in E and window recession rays r,
    gives y = a / -a0.  When that cone lies in a hyperplane, its equation
    is a candidate in both signs.  y enters Y_K when it lies in the closed
    cone and its contact set with E spans the space.  The recession rays
    are E's when core_extremes made E at this window, else a scan's.
    Returns (fan, report); a degenerate Y_K yields the trivial single-cone
    decomposition of the windowed rational closure with a warning.
    """
    window, pts, dim = window or E.truncation, E.points, cone.dim
    recession = E.recession if window == E.truncation else None
    recession = boundary_rays(cone, window) if recession is None else recession
    gens = [la.mat_vec(cone.inner, e) + (1,) for e in pts] \
        + [la.mat_vec(cone.inner, r) + (0,) for r in recession]
    facets, eqs, _ = _facets_of(gens, dim + 1)
    # <e, y> = 1 with y = a / -a0 is dot(c_e, a) = -a0 * d over int
    C, d = _covectors(pts, cone)
    functionals = []
    for a in facets + eqs + tuple(tuple(-x for x in e) for e in eqs):
        if a[-1] >= 0:
            continue
        # y is a positive multiple of a[:-1], so the cone holds both or neither
        if not cone.contains(a[:-1], closed=True):
            continue
        level = -a[-1] * d
        contact = [e for e, c in zip(pts, C) if la.dot(c, a[:-1]) == level]
        if la.rank(contact) < dim:
            continue
        y = tuple(Fraction(x, -a[-1]) for x in a[:-1])
        functionals.append((y, tuple(tuple(e) for e in contact)))
    functionals = sorted(set(functionals))
    cones = [RationalCone([la.primitive(e) for e in contact], dim)
             for _, contact in functionals] or [RationalCone(list(recession), dim)]
    fan = fan_from_maximal(cones, dim)
    rep = validate_fan(fan)
    report = SupportFanReport(degenerate=not functionals,
                              functionals=tuple(y for y, _ in functionals),
                              fan_valid=rep.valid)
    if not functionals:
        report.warnings.append(
            "DegenerateSupport: no support hyperplane has a spanning contact "
            "set in the window; returning the trivial decomposition"
        )
    elif not rep.valid:
        report.warnings.append(f"window fan failed validation: {rep.violations}")
    return fan, report


def support_function(report: SupportFanReport, cone: SelfAdjointCone):
    """phi(x) = min over support functionals of <x, y>: the projectivity
    certificate (convex, piecewise linear, linear on the top cones)."""
    ys = report.functionals

    def phi(x):
        return min(cone.pair(x, y) for y in ys)

    return phi


@dataclass
class GammaCheckReport:
    preserved: bool
    orbits: list
    excused: list
    violations: list


def gamma_check(fan: Fan, gens, cone: SelfAdjointCone, window_bound: int) -> GammaCheckReport:
    """Verify generators map window cones into the fan; report orbit classes.

    An image cone is excused when one of its rays leaves the coordinate
    window.  Raises NotConePreserving when a generator fails to preserve
    the cone itself, or when an unexcused image cone is missing.
    """
    tops = list(fan.top_cones())
    sample = next((s for s in (c.barycenter() for c in tops) if any(s)), None)
    index = {c: i for i, c in enumerate(tops)}
    parent = list(range(len(tops)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    excused = []
    violations = []
    for gi, g in enumerate(gens):
        g = la.mat(g)
        if not la.preserves_form(g, cone.lattice.gram):
            raise NotConePreserving("generator is not an isometry of the cone form")
        if sample is not None and la.dot(cone.rho, la.mat_vec(g, sample)) <= 0:
            raise NotConePreserving("generator swaps the cone components")
        for c in tops:
            img_rays = [la.primitive(la.mat_vec(g, r)) for r in c.rays]
            img = RationalCone(img_rays, fan.rank)
            if img in index:
                parent[find(index[c])] = find(index[img])
                continue
            leaves = any(max(abs(x) for x in r) > window_bound for r in img_rays)
            (excused if leaves else violations).append(
                {"generator": gi, "cone": list(c.rays), "image": [list(r) for r in img_rays]})
    if violations:
        raise NotConePreserving(f"unexcused image cones: {violations}")
    classes = {}
    for i, c in enumerate(tops):
        classes.setdefault(find(i), []).append(list(c.rays))
    return GammaCheckReport(
        preserved=True,
        orbits=sorted(classes.values()),
        excused=excused,
        violations=[],
    )
