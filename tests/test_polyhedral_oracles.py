"""The polyhedral kernels against the reference code they replaced.

The reference functions below are the brute-force paths the kernel
replaced: a subset search over (dim - 1)-row nullspaces, an exact phase-1
simplex for cone membership, one LP per pool point for hull vertices, and
a solve over every dim-subset of the extreme set for support functionals,
and the Fraction row reduction (rref) and Gaussian determinant that
rank, nullspace, solve and inverse ran on before one integer elimination
(la.echelon) took their place.
Beside them are the separate window loops (open points, closed points,
boundary rays, kernel points) that core_extremes ran at H and again at 2H,
the star and barycentric subdivisions that took the maximal cones of
the whole face closure at every step, and the fan validation that
intersected every pair of cones.  Last come the bounding-box scan for the
points of a fundamental parallelepiped and the gcd of maximal minors that
fan's regularity test, resolution ray and Hilbert bases ran on before one
integer column reduction (la.column_reduce) replaced them, and the kernel
loop that reduction was lifted from.  Then the extremality tests that
re-derived what the double description returns: the incidence rank of
each generator, which canonicalized RationalCone, and the hull vertices
by incidence rank with the filter over every pool pair, which
_extreme_points_of ran before the kernel's extreme rays and one graded
sweep (fan._cone_minima) replaced them; and the all-pairs minima that
sweep computes.  Last, the second double description pass that turned
the facets of a hull back into its extreme rays, which canonicalized
RationalCone and gave _extreme_points_of its vertices before the zero
sets of the first pass (fan._facets_of) decided extremality, and the
dual cone that ran its own pass before it read the cached facets.
Kernel membership is checked against the Fraction pairing loop it ran
before it compared integer covectors, also for inner forms other than
the identity, and the window kernel points of the references use that
loop.  Then _extreme_points_of without the shift filter, which fed every
pool point to the double description and the sweep, and the pairwise
containment loop (with its _subcone test) that _maximal ran before one
ray-incidence table.  Last, the window code around the hull as it was
before integer keys and derived intervals: the box scan of the closed
window (and a scan of t for la.quadratic_nonneg's ranges), the tuple
lookup of _drop_shifts, the graded sweep that asked
SelfAdjointCone.contains for every difference, and the kernel test that
paired each window point with each covector.  Last, fan.faces before the
face lattice (reference_faces): a search cutting ray subsets by dot
products, with one fresh cone and its own double description pass per
face, which the references above now use; and the double description
pass that canonicalized independent rays before rank alone decided them.
They are slow and kept only as oracles.
"""

import itertools
import random
from fractions import Fraction
from math import gcd

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pytest

from orthocusp import _linalg as la
from orthocusp import fan as fan_module
from orthocusp.corecone import (
    ExtremeSet,
    KernelSpec,
    SelfAdjointCone,
    _closed_minima,
    _closed_window,
    _covectors,
    _drop_shifts,
    _extreme_points_of,
    boundary_rays,
    cone_lattice_points,
    core_extremes,
    first_quadrant_cone,
    light_cone,
    support_fan,
)
from orthocusp.errors import UnstableTruncation
from orthocusp.fan import (
    Fan,
    FanReport,
    RationalCone,
    _cone_minima,
    _double_description,
    _extreme_rays_of_halfspaces,
    _facets_of,
    _maximal,
    _parallelepiped,
    _resolution_ray,
    _star,
    barycentric_subdivide,
    chart_presentation,
    dual_cone,
    faces,
    fan_from_maximal,
    hilbert_basis,
    intersect_cones,
    is_regular,
    make_regular,
    star_subdivide,
    validate_fan,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


# ---------------------------------------------------------------- reference


def determinant(A):
    """Fraction-exact determinant by Gaussian elimination with pivoting."""
    n = len(A)
    M = [list(map(la.frac, row)) for row in A]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det *= M[c][c]
        inv = 1 / M[c][c]
        for r in range(c + 1, n):
            if M[r][c] != 0:
                f = M[r][c] * inv
                for k in range(c, n):
                    M[r][k] -= f * M[c][k]
    return det


def rref(A):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    if not A:
        return (), ()
    M = [list(map(la.frac, row)) for row in A]
    n, m = len(M), len(M[0])
    pivots = []
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, n) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(n):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return tuple(tuple(row) for row in M), tuple(pivots)


def rref_solve(A, b):
    if not A:
        return None
    n, m = len(A), len(A[0])
    aug = [list(map(la.frac, row)) + [la.frac(bi)] for row, bi in zip(A, b)]
    R, piv = rref(aug)
    for row in R:
        if all(x == 0 for x in row[:m]) and row[m] != 0:
            return None
    x = [Fraction(0)] * m
    r = 0
    for c in piv:
        if c == m:
            return None
        x[c] = R[r][m]
        r += 1
    return tuple(x)


def rref_nullspace(A):
    if not A:
        return ()
    m = len(A[0])
    R, piv = rref(A)
    free = [c for c in range(m) if c not in piv]
    basis = []
    for f in free:
        v = [Fraction(0)] * m
        v[f] = Fraction(1)
        for r, c in enumerate(piv):
            v[c] = -R[r][f]
        basis.append(tuple(v))
    return tuple(basis)


def rref_inverse(A):
    n = len(A)
    aug = [list(map(la.frac, row)) + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(A)]
    R, piv = rref(aug)
    if list(piv[:n]) != list(range(n)):
        raise ZeroDivisionError("matrix not invertible")
    return tuple(tuple(row[n:]) for row in R[:n])


def nonneg_solve(A, b):
    """Feasibility of A lam = b, lam >= 0, by exact phase-1 simplex."""
    m = len(A)
    n = len(A[0]) if m else 0
    rows = []
    for i in range(m):
        bi = la.frac(b[i])
        row = [la.frac(x) for x in A[i]]
        if bi < 0:
            bi = -bi
            row = [-x for x in row]
        rows.append(row + [Fraction(1 if j == i else 0) for j in range(m)] + [bi])
    basis = list(range(n, n + m))
    cost = [Fraction(0)] * (n + m + 1)
    for i in range(m):
        for j in range(n + m + 1):
            cost[j] += rows[i][j]
    for j in range(n, n + m):
        cost[j] -= 1
    while True:
        piv_col = next((j for j in range(n + m) if cost[j] > 0), None)
        if piv_col is None:
            break
        best = None
        for i in range(m):
            if rows[i][piv_col] > 0:
                ratio = rows[i][-1] / rows[i][piv_col]
                if best is None or ratio < best[0] or (
                        ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        _, pi = best
        pv = rows[pi][piv_col]
        rows[pi] = [x / pv for x in rows[pi]]
        for i in range(m):
            if i != pi and rows[i][piv_col] != 0:
                f = rows[i][piv_col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[pi])]
        f = cost[piv_col]
        cost = [x - f * y for x, y in zip(cost, rows[pi])]
        basis[pi] = piv_col
    return cost[-1] == 0


def in_cone(x, rays):
    """Exact membership of x in cone(rays)."""
    if not any(x):
        return True
    if not rays:
        return False
    return nonneg_solve(la.transpose([la.vec(r) for r in rays]), la.vec(x))


def subset_extreme_rays(normals, dim, equations=()):
    """Extreme rays of a pointed {<n_i, x> >= 0, <e_j, x> = 0}: every
    (dim - 1)-row nullspace, then LP pruning."""
    rows = [la.vec(n) for n in normals] + [la.vec(e) for e in equations] \
        + [tuple(-x for x in la.vec(e)) for e in equations]
    cand = set()
    for subset in itertools.combinations(rows, dim - 1):
        ker = la.nullspace(list(subset) or [(Fraction(0),) * dim])
        if len(ker) != 1:
            continue
        for sign in (1, -1):
            v = la.primitive(tuple(sign * x for x in ker[0]))
            if all(la.dot(r, v) >= 0 for r in rows):
                cand.add(v)
    return tuple(v for v in sorted(cand) if not in_cone(v, [w for w in cand if w != v]))


def lp_extreme_subset(rays):
    """The rays of a pointed cone not in the cone of the others."""
    rays = sorted({la.primitive(r) for r in rays if any(r)})
    return tuple(r for r in rays if not in_cone(r, [w for w in rays if w != r]))


def lp_reducible(v, pool, recession, cone):
    """v - s in the closed cone for one pool point s, or v in
    conv(pool minus v) + cone(recession) by LP."""
    for s in pool:
        diff = tuple(a - b for a, b in zip(v, s))
        if any(diff) and cone.contains(diff, closed=True):
            return True
    cols = [tuple(p) + (1,) for p in pool if tuple(p) != tuple(v)] \
        + [tuple(r) + (0,) for r in recession]
    return bool(cols) and nonneg_solve(la.transpose(cols), tuple(v) + (1,))


def subset_support_functionals(points, cone, recession):
    """y with <e, y> = 1 on a dim-subset of E, supporting E from below,
    nonnegative on the recession rays, with spanning contact."""
    pts = [la.vec(p) for p in points]
    out = set()
    for subset in itertools.combinations(pts, cone.dim):
        y = la.solve([la.mat_vec(cone.inner, e) for e in subset], [1] * cone.dim)
        if y is None or not cone.contains(y, closed=True):
            continue
        if any(cone.pair(e, y) < 1 for e in pts):
            continue
        if any(cone.pair(r, y) < 0 for r in recession):
            continue
        if la.rank([e for e in pts if cone.pair(e, y) == 1]) == cone.dim:
            out.add(tuple(y))
    return sorted(out)


def window_points(cone, height, closed=False):
    """The (closed) cone's nonzero points of sup-norm <= height, by a full scan."""
    if height < 1:
        raise ValueError("height must be >= 1")
    rng = range(-height, height + 1)
    return tuple(sorted(v for v in itertools.product(rng, repeat=cone.dim)
                        if any(v) and cone.contains(v, closed=closed)))


def window_boundary_rays(cone, height):
    rng = range(-height, height + 1)
    return tuple(sorted({la.primitive(v) for v in itertools.product(rng, repeat=cone.dim)
                         if any(v) and cone.lattice.quadratic(v) == 0
                         and cone.contains(v, closed=True)}))


def fraction_member(K, x, cone):
    """K.member as a Fraction pairing loop: <x, t> >= 1 for every t."""
    x = la.vec(x)
    return cone.contains(x, closed=True) and all(
        la.form(cone.inner, x, la.vec(t)) >= 1 for t in K.points)


def window_kernel_points(K, cone, height):
    rng = range(-height, height + 1)
    return tuple(sorted(v for v in itertools.product(rng, repeat=cone.dim)
                        if any(v) and fraction_member(K, v, cone)))


def window_extremes(cone, variant, height):
    """One window's extreme points, each pool from its own scan."""
    recession = window_boundary_rays(cone, height)
    if variant == "central":
        return _extreme_points_of(window_points(cone, height), recession, cone)
    hull = window_points(cone, height, closed=variant == "perfect")
    K = KernelSpec(points=_extreme_points_of(hull, recession, cone))
    return _extreme_points_of(window_kernel_points(K, cone, height), recession, cone)


def reference_core_extremes(cone, variant, height):
    e_h = window_extremes(cone, variant, height)
    inside = tuple(p for p in window_extremes(cone, variant, 2 * height)
                   if max(abs(x) for x in p) <= height)
    if set(e_h) != set(inside):
        raise UnstableTruncation(f"window H={height} returns {e_h}, window 2H keeps {inside}")
    return ExtremeSet(points=e_h, truncation=height, variant=variant, stable=True)


def reference_faces(c):
    """fan.faces before the incidence lattice: a breadth-first search that
    cuts ray subsets by dot products with the facets, and one fresh
    RationalCone, with a double description pass of its own, per face."""
    if c.is_degenerate:
        raise ValueError("face enumeration implemented for pointed cones only")
    ineqs, _ = c.facet_normals()
    seen = {tuple(c.rays): True}
    frontier = [tuple(c.rays)]
    while frontier:
        nxt = []
        for rs in frontier:
            for d in ineqs:
                cut = tuple(r for r in rs if la.dot(d, r) == 0)
                if cut not in seen:
                    seen[cut] = True
                    nxt.append(cut)
        frontier = nxt
    seen[()] = True
    return tuple(RationalCone(list(rs), c.rank, canonicalize=False) for rs in sorted(seen))


def reference_contains(c, x):
    ineqs, eqs = c.facet_normals()
    x = la.vec(x)
    return all(la.dot(e, x) == 0 for e in eqs) and all(la.dot(d, x) >= 0 for d in ineqs)


def reference_maximal_cones(f):
    """Pairwise containment over every cone of the fan."""
    def below(a, b):
        return all(reference_contains(b, r) for r in a.rays)
    return tuple(c for c in f.cones
                 if not any(d != c and below(c, d) and not below(d, c) for d in f.cones))


def reference_fan_from_maximal(cones, rank):
    closure = []
    for c in cones:
        for fc in reference_faces(c):
            if fc not in closure:
                closure.append(fc)
    return Fan(closure, rank)


def reference_star_subdivide(f, ray):
    ray = la.primitive(ray)
    new_max = []
    for c in reference_maximal_cones(f):
        if not reference_contains(c, ray):
            new_max.append(c)
            continue
        for fc in reference_faces(c):
            if fc.dim == c.dim - 1 and not reference_contains(fc, ray):
                new_max.append(RationalCone(list(fc.rays) + [ray], f.rank))
    return reference_fan_from_maximal(new_max, f.rank)


def reference_barycentric_subdivide(f, selected):
    out = f
    for c in sorted((c for c in selected if c.dim >= 2), key=lambda c: (-c.dim, c.rays)):
        if c in out:
            out = reference_star_subdivide(out, c.barycenter())
    return out


def all_pairs_validate_fan(f):
    """Face closure, then every pair of cones in order."""
    report = FanReport(valid=True)
    cone_set = list(f.cones)
    for c in cone_set:
        for fc in reference_faces(c):
            if fc not in f.cones:
                report.valid = False
                report.violations.append(
                    {"kind": "missing_face", "cone": list(c.rays), "face": list(fc.rays)}
                )
                return report
    for a, b in itertools.combinations(cone_set, 2):
        inter = intersect_cones(a, b)
        if inter not in f.cones or inter not in reference_faces(a) \
                or inter not in reference_faces(b):
            report.valid = False
            report.violations.append(
                {
                    "kind": "bad_intersection",
                    "cone_a": list(a.rays),
                    "cone_b": list(b.rays),
                    "intersection": list(inter.rays),
                }
            )
            return report
    return report


def box_parallelepiped(rays):
    """(x, t) for the integer points x = sum t_i r_i with t in [0, 1]^k of
    independent rays: every point of the bounding box of the vertices, t
    from the normal equations, and a test that x lies in the span."""
    n = len(rays[0])
    lo = [sum(min(r[j], 0) for r in rays) for j in range(n)]
    hi = [sum(max(r[j], 0) for r in rays) for j in range(n)]
    gram_inv = la.inverse([[la.dot(a, b) for b in rays] for a in rays])
    pts = []
    for x in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        t = la.mat_vec(gram_inv, [la.dot(r, x) for r in rays])
        if [sum(ti * r[j] for ti, r in zip(t, rays)) for j in range(n)] == list(x) \
                and all(0 <= ti <= 1 for ti in t):
            pts.append((x, t))
    return pts


def minors_multiplicity(rays):
    """gcd of the maximal minors of independent rays."""
    return gcd(*(int(la.determinant([[r[j] for j in cols] for r in rays]))
                 for cols in itertools.combinations(range(len(rays[0])), len(rays))))


def minors_is_regular(c):
    return not c.rays or (len(c.rays) == c.dim and minors_multiplicity(c.rays) == 1)


def box_resolution_ray(c):
    if len(c.rays) != c.dim:
        return c.barycenter()
    pts = [la.primitive(x) for x, t in box_parallelepiped(c.rays)
           if any(x) and all(ti < 1 for ti in t)]
    if not pts:
        raise RuntimeError("simplicial non-regular cone without interior point")
    return min(pts)


def with_box_scan(fn, *args):
    """fn(*args) with the box scan, the minors test and the box-scan
    resolution ray in place of fan's column-reduction kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fan_module, "_parallelepiped", box_parallelepiped)
        mp.setattr(fan_module, "is_regular", minors_is_regular)
        mp.setattr(fan_module, "_resolution_ray", box_resolution_ray)
        return fn(*args)


def loop_kernel_int(A):
    """Integer kernel basis by the row-by-row column loop on the full matrix."""
    if not A:
        return ()
    rows = [list(r) for r in la.scaled_int(A)[0]]
    n, m = len(rows), len(rows[0])
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    pivot_col = 0
    for r in range(n):
        if pivot_col >= m:
            break
        while True:
            nz = [j for j in range(pivot_col, m) if rows[r][j] != 0]
            if not nz:
                break
            j0 = min(nz, key=lambda j: abs(rows[r][j]))
            for i in range(n):
                rows[i][pivot_col], rows[i][j0] = rows[i][j0], rows[i][pivot_col]
            U[pivot_col], U[j0] = U[j0], U[pivot_col]
            done = True
            for j in range(pivot_col + 1, m):
                if rows[r][j] != 0:
                    q = -(rows[r][j] // rows[r][pivot_col])
                    for i in range(n):
                        rows[i][j] += q * rows[i][pivot_col]
                    for t in range(m):
                        U[j][t] += q * U[pivot_col][t]
                    if rows[r][j] != 0:
                        done = False
            if done:
                break
        if rows[r][pivot_col] != 0:
            pivot_col += 1
    return tuple(sorted(tuple(U[j]) for j in range(m)
                        if all(rows[i][j] == 0 for i in range(n))))


def incidence_rank(v, facets, eqs):
    """Rank of the facets tight at v together with the span equations."""
    return la.rank([a for a in facets if la.dot(a, v) == 0] + list(eqs))


def incidence_canonical_rays(rays, rank):
    """The distinct primitive rays; for a pointed cone, those at which the
    tight facets and the span equations have rank rank - 1."""
    rays = tuple(sorted({la.primitive(r) for r in rays if any(r)}))
    facets, eqs, _ = _facets_of(rays, rank)
    if not rays or la.rank(facets + eqs) != rank:
        return rays
    return tuple(r for r in rays if incidence_rank(r, facets, eqs) == rank - 1)


def pairwise_extreme_points_of(pool, recession, cone):
    """Pool points whose lift (p, 1) has incidence rank dim in the cone over
    (pool, 1) and (recession, 0), and which no other pool point reaches
    through the closed cone."""
    gens = [tuple(p) + (1,) for p in pool] + [tuple(r) + (0,) for r in recession]
    facets, eqs, _ = _facets_of(gens, cone.dim + 1)

    def dominated(v):
        return any(cone.contains(tuple(a - b for a, b in zip(v, s)), closed=True)
                   for s in pool if tuple(s) != tuple(v))

    return tuple(v for v in sorted(pool)
                 if incidence_rank(tuple(v) + (1,), facets, eqs) == cone.dim
                 and not dominated(v))


def two_pass_extreme_rays(gens, rank):
    """Extreme rays of a pointed cone(gens): its facets, then a second
    double description pass from the facets back to rays."""
    facets, eqs, _ = _facets_of(gens, rank)
    return _extreme_rays_of_halfspaces(facets, rank, equations=eqs)


def own_pass_dual_cone(c):
    """The dual cone by its own double description pass over the
    generators of c, with a Z-basis of span(c)^perp as equations."""
    gens = list(c.rays) + list(c.lines) + [tuple(-x for x in l) for l in c.lines]
    if not gens:
        return RationalCone([], c.rank, canonicalize=False,
                            lines=[tuple(int(i == j) for j in range(c.rank))
                                   for i in range(c.rank)])
    lines = la.kernel_int(gens)
    rays = _extreme_rays_of_halfspaces(gens, c.rank, equations=lines)
    return RationalCone(rays, c.rank, lines=lines, canonicalize=False)


def all_pairs_minima(points, contains):
    """The points v with v - s in the cone for no other point s."""
    return sorted(v for v in points
                  if not any(s != v and contains(tuple(a - b for a, b in zip(v, s)))
                             for s in points))


def unshifted_extreme_points_of(pool, recession, cone):
    """_extreme_points_of with every pool point in the double description
    and the sweep: no point is dropped for p - r in the pool first."""
    gens = [tuple(r) + (0,) for r in recession] + [tuple(p) + (1,) for p in pool]
    vertices = {g[:-1] for g in _facets_of(gens, cone.dim + 1)[2] if g[-1]}
    minima = _cone_minima(pool, lambda v: la.dot(cone._side, v),
                          lambda x: cone.contains(x, closed=True))
    return tuple(sorted(v for v in minima if tuple(v) in vertices))


def _subcone(a, b):
    return all(b.contains(r) for r in a.rays)


def pairwise_maximal(cones):
    """The distinct cones that lie strictly inside no other, by testing
    every pair with _subcone."""
    cones = tuple(dict.fromkeys(cones))
    return tuple(c for c in cones
                 if not any(d != c and _subcone(c, d) and not _subcone(d, c) for d in cones))


def box_closed_window(cone, height):
    """_closed_window as a scan of the whole box, one contains test a point."""
    rng = range(-height, height + 1)
    return tuple(v for v in itertools.product(rng, repeat=cone.dim)
                 if any(v) and cone.contains(v, closed=True))


def tuple_drop_shifts(pool, recession):
    """_drop_shifts with the difference p - r built and looked up as a tuple."""
    members = set(map(tuple, pool))
    return [p for p in pool
            if not any(tuple(a - b for a, b in zip(p, r)) in members for r in recession)]


def contains_minima(pool, cone):
    """_closed_minima as fan._cone_minima with a contains test per difference."""
    return _cone_minima(pool, lambda v: la.dot(cone._side, v),
                        lambda x: cone.contains(x, closed=True))


def looped_rows_at_least(C, d, xs):
    return tuple(x for x in xs if all(la.dot(c, x) >= d for c in C))


# ---------------------------------------------------------------- properties

# ints, Fractions, floats and rational strings: everything la.frac reads
entry = st.one_of(st.integers(-3, 3),
                  st.fractions(min_value=-3, max_value=3, max_denominator=4),
                  st.sampled_from([0.5, -1.25, "2/3", "-3/4", "5"]))


@st.composite
def rational_systems(draw):
    """(A, b, x): an n x m matrix A, square half the time, with rows drawn
    freely or as integer combinations of a few base rows, so that zero and
    rank-deficient input is common; a right-hand side b, inconsistent for
    most deficient A; and a vector x, for the consistent right-hand side Ax."""
    n = draw(st.integers(0, 4))
    m = n if draw(st.booleans()) else draw(st.integers(0, 4))
    if draw(st.booleans()):
        A = tuple(tuple(draw(entry) for _ in range(m)) for _ in range(n))
    else:
        base = [[la.frac(draw(entry)) for _ in range(m)]
                for _ in range(draw(st.integers(0, n)))]
        coeff = st.integers(-2, 2)
        A = tuple(tuple(sum((draw(coeff) * r[j] for r in base), Fraction(0))
                        for j in range(m)) for _ in range(n))
    return A, [draw(entry) for _ in range(n)], [draw(entry) for _ in range(m)]


@PROPERTY
@given(rational_systems())
@example(((), [], []))
@example((((0, 0), (0, 0)), [0, 1], [1, 1]))
@example((((1, 2), (2, 4)), [1, 1], [1, -1]))
def test_elimination_matches_fraction_rref(system):
    A, b, x = system
    R, pivots = rref(A)
    M, piv, d, _ = la.echelon(A)
    assert piv == pivots and all(M[r][c] == d for r, c in enumerate(piv))
    assert tuple(tuple(Fraction(x, d) for x in row) for row in M) == R
    assert la.rank(A) == len(pivots)
    assert la.nullspace(A) == rref_nullspace(A)
    if A:
        for rhs in (b, la.mat_vec(la.mat(A), la.vec(x))):
            assert la.solve(A, rhs) == rref_solve(A, rhs)
    if len(A[0] if A else ()) == len(A):
        assert la.determinant(A) == determinant(A)
        try:
            want = rref_inverse(A)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                la.inverse(A)
        else:
            assert la.inverse(A) == want


def test_elimination_of_the_empty_matrix():
    assert la.echelon(()) == ((), (), 1, 1)
    assert la.determinant(()) == determinant(()) == 1
    assert la.inverse(()) == ()
    assert la.solve((), ()) is None and la.nullspace(()) == ()

coord = st.integers(-3, 3)


@st.composite
def pointed_systems(draw):
    dim = draw(st.integers(2, 4))
    vector = st.tuples(*[coord] * dim)
    normals = draw(st.lists(vector, min_size=dim, max_size=dim + 4))
    equations = draw(st.lists(vector, max_size=1 if dim > 2 else 0))
    rows = [n for n in normals + equations if any(n)]
    assume(rows and la.rank(rows) == dim)
    return normals, dim, equations


@PROPERTY
@given(pointed_systems())
# a rank-4 system where a positive/negative pair shares k - 2 zero rows
# and still is not adjacent: the cardinality test alone keeps a
# non-extreme ray
@example(([(-1, 2, -1, -3), (1, 3, -1, 3), (2, 3, -1, -2), (1, 3, -3, 2),
           (-2, 1, -1, -1), (2, 1, 1, 0), (1, -2, 1, 3), (1, 2, 1, -2)], 4, []))
def test_kernel_matches_subset_search(system):
    normals, dim, equations = system
    assert _extreme_rays_of_halfspaces(normals, dim, equations) == \
        subset_extreme_rays(normals, dim, equations)


@st.composite
def pointed_ray_sets(draw):
    dim = draw(st.integers(2, 4))
    # a positive first coordinate keeps cone(rays) pointed
    ray = st.tuples(st.integers(1, 3), *[coord] * (dim - 1))
    return draw(st.lists(ray, min_size=1, max_size=7)), dim


@PROPERTY
@given(pointed_ray_sets())
def test_canonical_rays_match_lp_pruning(rays_dim):
    rays, dim = rays_dim
    assert RationalCone(rays, dim).rays == lp_extreme_subset(rays)


CONES = {"first_quadrant": first_quadrant_cone(), "light_cone_2": light_cone(2)}


@PROPERTY
@given(st.sampled_from(sorted(CONES)), st.booleans(), st.data())
def test_extreme_points_match_lp_reduction(name, closed, data):
    cone = CONES[name]
    window = cone_lattice_points(cone, 2, closed=closed)
    pool = data.draw(st.lists(st.sampled_from(window), min_size=1, max_size=12, unique=True))
    recession = boundary_rays(cone, 2)
    want = tuple(v for v in sorted(pool) if not lp_reducible(v, pool, recession, cone))
    assert _extreme_points_of(pool, recession, cone) == want


# two non-diagonal forms: [[2, 1], [1, -1]] has no rational isotropic line,
# [[0, 1], [1, 1]] has two
WINDOW_CONES = dict(CONES, light_cone_3=light_cone(3), light_cone_4=light_cone(4),
                    non_diagonal=SelfAdjointCone([[2, 1], [1, -1]], (1, 0)),
                    non_diagonal_isotropic=SelfAdjointCone([[0, 1], [1, 1]], (1, 1)))


@PROPERTY
@given(st.sampled_from(sorted(WINDOW_CONES)), st.integers(1, 2), st.data())
def test_extreme_points_match_pairwise_filter(name, height, data):
    cone = WINDOW_CONES[name]
    window = cone_lattice_points(cone, height, closed=True)
    pool = data.draw(st.lists(st.sampled_from(window), min_size=1, max_size=20, unique=True))
    recession = boundary_rays(cone, height)
    assert _extreme_points_of(pool, recession, cone) == \
        pairwise_extreme_points_of(pool, recession, cone)


@pytest.mark.parametrize("name", sorted(WINDOW_CONES))
def test_extreme_points_of_whole_windows_match_pairwise_filter(name):
    cone = WINDOW_CONES[name]
    for height in (1, 2):
        for closed in (False, True):
            pool = cone_lattice_points(cone, height, closed=closed)
            recession = boundary_rays(cone, height)
            got = _extreme_points_of(pool, recession, cone)
            assert got == pairwise_extreme_points_of(pool, recession, cone)
            assert got == unshifted_extreme_points_of(pool, recession, cone)


@PROPERTY
@given(st.sampled_from(sorted(WINDOW_CONES)), st.sampled_from(["closed", "open", "kernel"]),
       st.integers(1, 2), st.data())
def test_extreme_points_match_the_unshifted_pool(name, kind, height, data):
    # the shift lemma needs only recession rows in the closed cone, so any
    # subset of the window's rays is a valid recession set
    cone = WINDOW_CONES[name]
    window = cone_lattice_points(cone, height, closed=True)
    if kind == "open":
        window = cone_lattice_points(cone, height)
    elif kind == "kernel":
        T = data.draw(st.lists(st.sampled_from(window), min_size=1, max_size=3, unique=True))
        window = KernelSpec(points=T).members(window, cone)
    assume(window)
    pool = data.draw(st.lists(st.sampled_from(window), min_size=1, max_size=20, unique=True))
    rays = boundary_rays(cone, height)
    recession = tuple(r for r in rays if data.draw(st.booleans()))
    assert _extreme_points_of(pool, recession, cone) == \
        unshifted_extreme_points_of(pool, recession, cone)


def test_shift_that_leaves_the_window_keeps_the_point():
    # in the H = 2 window of q = 2xy + y^2, (2, 2) - (-1, 2) = (3, 0) lies in
    # the closed cone but not in the window; in pools without (1, 2) no
    # shift of (2, 2) lands in the pool, so the hull decides that point,
    # and on its own it is the one extreme point
    cone = WINDOW_CONES["non_diagonal_isotropic"]
    window = cone_lattice_points(cone, 2, closed=True)
    recession = boundary_rays(cone, 2)
    assert recession == ((-1, 2), (1, 0))
    assert cone.contains((3, 0), closed=True) and (3, 0) not in window
    for pool in ([p for p in window if p != (1, 2)], [(2, 2)]):
        got = _extreme_points_of(pool, recession, cone)
        assert got == unshifted_extreme_points_of(pool, recession, cone)
        assert got == pairwise_extreme_points_of(pool, recession, cone)
    assert got == ((2, 2),)


@st.composite
def generator_sets(draw):
    """(generators, rank), rank 2..4: drawn freely or as nonnegative
    combinations of fewer base vectors (a lower-dimensional span), some
    scaled to non-primitive vectors and some repeated.  A positive first
    coordinate, drawn half the time, keeps the cone pointed."""
    rank = draw(st.integers(2, 4))
    first = st.integers(1, 3) if draw(st.booleans()) else coord
    vector = st.tuples(first, *[coord] * (rank - 1))
    if draw(st.booleans()):
        gens = draw(st.lists(vector, min_size=1, max_size=7))
    else:
        base = draw(st.lists(vector, min_size=1, max_size=rank - 1))
        weights = draw(st.lists(st.tuples(*[st.integers(0, 2)] * len(base)),
                                min_size=1, max_size=7))
        gens = [tuple(sum(c * b[j] for c, b in zip(w, base)) for j in range(rank))
                for w in weights]
    gens = [tuple(draw(st.integers(1, 3)) * x for x in g) for g in gens]
    return gens + draw(st.lists(st.sampled_from(gens), max_size=2)), rank


@settings(max_examples=150, deadline=None, derandomize=True)
@given(generator_sets())
@example(([(2, 0), (1, 0), (1, 1), (3, 3)], 2))
@example(([(1, 0, 0), (0, 1, 0), (1, 1, 0), (-1, 0, 0)], 3))
def test_canonical_rays_match_incidence_rank_filter(gens_rank):
    gens, rank = gens_rank
    assert RationalCone(gens, rank).rays == incidence_canonical_rays(gens, rank)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(generator_sets(), st.randoms(use_true_random=False))
@example(([(1, 0), (1, 1), (0, 1)], 2), None)
@example(([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 3), None)
def test_extreme_generators_match_two_pass_hull(gens_rank, rnd):
    # the input order labels the zero-set bits, so it is shuffled
    gens, rank = gens_rank
    gens = sorted({la.primitive(g) for g in gens if any(g)})
    if rnd is not None:
        rnd.shuffle(gens)
    facets, eqs, extreme = _facets_of(gens, rank)
    assume(la.rank(facets + eqs) == rank)
    want = two_pass_extreme_rays(gens, rank)
    assert extreme == tuple(g for g in gens if g in want)
    assert sorted(extreme) == list(want)


@PROPERTY
@given(pointed_systems())
def test_zero_sets_match_direct_products(system):
    normals, dim, equations = system
    basis = la.kernel_int(equations or [(0,) * dim])
    live = [any(la.dot(n, b) for b in basis) for n in normals]
    hull = _double_description(normals, dim, equations)
    assert tuple(r for r, _ in hull) == _extreme_rays_of_halfspaces(normals, dim, equations)
    for ray, z in hull:
        assert z == sum(1 << i for i, n in enumerate(normals)
                        if live[i] and la.dot(n, ray) == 0)


@st.composite
def cones_with_lines(draw):
    """Random cones, pointed or not, lower-dimensional or not, some with
    explicit lines, and the zero cone."""
    gens, rank = draw(generator_sets())
    lines = draw(st.lists(st.tuples(*[coord] * rank).filter(any), max_size=2))
    return RationalCone(gens if draw(st.booleans()) else [], rank, lines=lines)


@PROPERTY
@given(cones_with_lines())
@example(RationalCone([], 3))
@example(RationalCone([(1, 0, 0), (0, 1, 0)], 3))
@example(RationalCone([(1, 0, 0)], 3, lines=[(0, 1, 0)]))
def test_dual_cone_matches_its_own_pass(c):
    got, want = dual_cone(c), own_pass_dual_cone(c)
    assert (got.rays, got.lines) == (want.rays, want.lines)


@PROPERTY
@given(pointed_ray_sets(), st.data())
def test_cone_minima_match_all_pairs_in_rational_cones(rays_dim, data):
    # the sum of the facet normals grades the pointed cone: it vanishes
    # only where every facet is tight.  Reversed rays have a positive last
    # coordinate, so the sweep cannot lean on lexicographic order; the
    # points need not lie in the cone
    rays, dim = rays_dim
    c = RationalCone([r[::-1] for r in rays], dim)
    grade = [sum(col) for col in zip(*c.facet_normals()[0])]
    points = data.draw(st.lists(st.tuples(*[coord] * dim), max_size=25, unique=True))
    assert sorted(_cone_minima(points, lambda v: la.dot(grade, v), c.contains)) == \
        all_pairs_minima(points, c.contains)


@PROPERTY
@given(st.sampled_from(sorted(WINDOW_CONES)), st.data())
def test_cone_minima_match_all_pairs_in_closed_cones(name, data):
    cone = WINDOW_CONES[name]
    points = data.draw(st.lists(st.tuples(*[coord] * cone.dim), max_size=25, unique=True))

    def contains(x):
        return cone.contains(x, closed=True)

    got = _cone_minima(points, lambda v: la.dot(cone._side, v), contains)
    assert sorted(got) == all_pairs_minima(points, contains)


# positive-definite inner forms other than the identity, one of them rational
SKEWED_INNER = {
    "light_cone_2_skewed": SelfAdjointCone(
        [[1, 0, 0], [0, -1, 0], [0, 0, -1]], (1, 0, 0),
        inner=[[2, 1, 0], [1, 2, 0], [0, 0, Fraction(1, 2)]]),
    "first_quadrant_skewed": SelfAdjointCone(
        [[0, 1], [1, 0]], (1, 1),
        inner=[[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), 1]]),
}
SUPPORT_CONES = dict(CONES, anisotropic=SelfAdjointCone([[1, 0], [0, -3]], (1, 0)),
                     **SKEWED_INNER)
small_rational = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
positive_scale = st.builds(Fraction, st.integers(1, 4), st.integers(1, 3))


@PROPERTY
@given(st.sampled_from(sorted(SUPPORT_CONES)), st.data())
def test_integer_kernel_membership_matches_fraction_pairing(name, data):
    cone = SUPPORT_CONES[name]
    window = cone_lattice_points(cone, 2, closed=True)
    T = data.draw(st.lists(st.sampled_from(window), max_size=4, unique=True))
    K = KernelSpec(points=tuple(la.vec_scale(data.draw(positive_scale), t) for t in T))
    xs = list(window) + [la.vec_scale(data.draw(positive_scale), v) for v in window]
    xs += data.draw(st.lists(st.tuples(*[small_rational] * cone.dim), max_size=20))
    want = [fraction_member(K, x, cone) for x in xs]
    assert [K.member(x, cone) for x in xs] == want
    assert K.members(xs, cone) == tuple(x for x, w in zip(xs, want) if w)


@PROPERTY
@given(st.sampled_from(sorted(SUPPORT_CONES)), st.data())
def test_support_functionals_match_subset_loop(name, data):
    cone = SUPPORT_CONES[name]
    window = cone_lattice_points(cone, 2, closed=True)
    points = data.draw(st.lists(st.sampled_from(window), min_size=1, max_size=5, unique=True))
    E = ExtremeSet(points=tuple(sorted(points)), truncation=2, variant="custom", stable=True)
    _, report = support_fan(E, cone)
    want = subset_support_functionals(E.points, cone, boundary_rays(cone, 2))
    assert list(report.functionals) == want


def test_anisotropic_two_point_support_is_the_span_equation():
    # diag(1, -3) has no window boundary rays: the cone over (e, 1) for two
    # points lies in one hyperplane, whose equation is the only functional
    cone = SUPPORT_CONES["anisotropic"]
    assert boundary_rays(cone, 2) == ()
    E = ExtremeSet(points=((2, -1), (2, 1)), truncation=2, variant="custom", stable=True)
    _, report = support_fan(E, cone)
    assert report.functionals == ((Fraction(1, 2), Fraction(0)),)
    assert list(report.functionals) == subset_support_functionals(E.points, cone, ())


@PROPERTY
@given(st.sampled_from(sorted(SUPPORT_CONES)), st.integers(1, 3))
def test_window_filters_match_full_scans(name, height):
    cone = SUPPORT_CONES[name]
    for closed in (False, True):
        assert cone_lattice_points(cone, height, closed=closed) == \
            window_points(cone, height, closed=closed)
    assert boundary_rays(cone, height) == window_boundary_rays(cone, height)


def outcome(fn, *args):
    try:
        return fn(*args)
    except UnstableTruncation as e:
        return str(e)


@PROPERTY
@given(st.sampled_from(sorted(SUPPORT_CONES)),
       st.sampled_from(["central", "perfect", "central_dual"]), st.integers(1, 3))
def test_core_extremes_match_separate_window_scans(name, variant, height):
    cone = SUPPORT_CONES[name]
    got = outcome(core_extremes, cone, variant, height)
    assert got == outcome(reference_core_extremes, cone, variant, height)
    if isinstance(got, ExtremeSet):
        assert got.recession == window_boundary_rays(cone, height)


@pytest.mark.parametrize("height", [0, -1])
def test_core_extremes_refuses_heights_below_one(height):
    for variant in ("central", "perfect", "central_dual"):
        with pytest.raises(ValueError):
            core_extremes(first_quadrant_cone(), variant, height)


@st.composite
def lorentz_cones(draw):
    """(cone, h): a signature-(1, k) cone with k = 1..4 and a height h = 1..4
    (1..3 for k = 4, which keeps the oracle's box at 7^5 points).

    The Gram is diag(p, -n_1, ..., -n_k) with the positive entry anywhere
    (last gives a positive last diagonal), or a hyperbolic plane a * U in
    the last two coordinates beside -n_i (a zero last diagonal with an
    off-diagonal last row); entries are positive rationals, and half the
    Grams are moved by a lower unitriangular M to M^t G M, which keeps the
    last diagonal.  The positivity covector often has zero entries.
    """
    k = draw(st.integers(1, 4))
    h = draw(st.integers(1, 4 if k < 4 else 3))
    n = k + 1
    positive = st.builds(Fraction, st.integers(1, 3), st.integers(1, 3))
    G = [[Fraction(0)] * n for _ in range(n)]
    if draw(st.booleans()):
        G[-1][-2] = G[-2][-1] = draw(positive)
        for i in range(n - 2):
            G[i][i] = -draw(positive)
    else:
        p = draw(st.integers(0, k))
        for i in range(n):
            G[i][i] = draw(positive) if i == p else -draw(positive)
    if draw(st.booleans()):
        M = [[1 if i == j else draw(st.integers(-1, 1)) if i > j else 0 for j in range(n)]
             for i in range(n)]
        G = [list(r) for r in la.mat_mul(la.mat_mul(la.transpose(M), G), M)]
    rho = draw(st.tuples(*[st.sampled_from([0, 0, 1, -1, 2])] * n))
    try:
        return SelfAdjointCone(G, rho), h
    except ValueError:  # rho vanishes at the interior point
        assume(False)


# the three shapes with rational entries and a zero positivity entry
LORENTZ_EXAMPLES = [
    (SelfAdjointCone([[-2, 0, 0], [0, 0, 1], [0, 1, 0]], (0, 1, 1)), 3),
    (SelfAdjointCone([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2]],
                     (1, 1, 0, 0)), 2),
    (SelfAdjointCone([[Fraction(-1, 2), 0, 0], [0, 0, Fraction(3, 2)],
                      [0, Fraction(3, 2), 0]], (0, 1, 2)), 4),
    (SelfAdjointCone([[-1, 0, 0], [0, Fraction(-1, 2), 0], [0, 0, Fraction(3, 2)]],
                     (0, 0, 1)), 4),
    (SelfAdjointCone([[-1, 1, 0, 0, 0], [1, -3, 0, 0, 0], [0, 0, -1, 0, 0],
                      [0, 0, 0, 0, Fraction(1, 3)], [0, 0, 0, Fraction(1, 3), 0]],
                     (0, 0, 0, 1, 1)), 2),
]


@PROPERTY
@given(lorentz_cones(), st.randoms(use_true_random=False))
@example(LORENTZ_EXAMPLES[0], random.Random(0))
@example(LORENTZ_EXAMPLES[1], random.Random(1))
@example(LORENTZ_EXAMPLES[2], random.Random(2))
@example(LORENTZ_EXAMPLES[3], random.Random(3))
@example(LORENTZ_EXAMPLES[4], random.Random(4))
def test_window_code_matches_the_box_scan_and_the_loops(cone_h, rnd):
    cone, h = cone_h
    window = _closed_window(cone, h)
    assert window == box_closed_window(cone, h)
    rays = boundary_rays(cone, h)
    pool = rnd.sample(window, min(len(window), 40))
    assert _closed_minima(pool, cone) == contains_minima(pool, cone)
    assert _drop_shifts(pool, rays) == tuple_drop_shifts(pool, rays)
    T = tuple(rnd.sample(window, min(len(window), rnd.randint(0, 4))))
    assert la.rows_at_least(*_covectors(T, cone), window) == \
        KernelSpec(points=T).members(window, cone)


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_shift_keys_match_the_tuple_lookup_at_the_radix_edge(n, h, data):
    # pool entries in [-h, h] and rows in [-2h, 2h], extremes drawn often:
    # entries of p - r - p' reach +-4h, one below the base 4h + 1; rows
    # p - p' make true shifts
    entry = st.sampled_from([-h, h]) | st.integers(-h, h)
    pool = data.draw(st.lists(st.tuples(*[entry] * n), min_size=1, max_size=30, unique=True))
    row = st.sampled_from([-2 * h, 2 * h]) | st.integers(-2 * h, 2 * h)
    rows = data.draw(st.lists(st.tuples(*[row] * n), max_size=4))
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)),
                               max_size=3))
    rows += [tuple(a - b for a, b in zip(p, q)) for p, q in pairs]
    assert _drop_shifts(pool, rows) == tuple_drop_shifts(pool, rows)


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_shift_key_that_aliases_one_below_the_base_keeps_the_point(h):
    # p - r - p' = (3h, -1) - (-h, 0) = (4h, -1), whose key would be 0 in
    # base 4h; the base is 4h + 1, so (h, 0) stays
    pool, rows = [(h, 0), (-h, 0)], [(-2 * h, 1)]
    assert _drop_shifts(pool, rows) == tuple_drop_shifts(pool, rows) == pool


@PROPERTY
@given(st.integers(-6, 6), st.integers(-30, 30), st.integers(-60, 60),
       st.integers(-9, 9), st.integers(-9, 9))
@example(1, 0, -4, -5, 5)  # roots at +-2 exactly: two ranges
@example(-1, 0, 4, -5, 5)
@example(2, 1, 0, -5, 5)
@example(0, 1, -3, -5, 5)  # linear, both signs, and a constant below 0
@example(0, -1, 3, -5, 5)
@example(0, 0, -1, -5, 5)
def test_quadratic_ranges_match_the_integer_scan(a, b, c, lo, hi):
    got = [t for ts in la.quadratic_nonneg(a, b, c, lo, hi) for t in ts]
    assert got == [t for t in range(lo, hi + 1) if a * t * t + 2 * b * t + c >= 0]


@PROPERTY
@given(st.integers(1, 5), st.data())
def test_packed_row_tests_match_the_loop(n, data):
    entry = st.integers(-50, 50) | st.sampled_from([-10**9, 10**9, 0])
    C = data.draw(st.lists(st.tuples(*[entry] * n), max_size=8))
    xs = data.draw(st.lists(st.tuples(*[entry] * n), max_size=20))
    # d on the boundary of one test half the time
    d = la.dot(C[0], xs[0]) if C and xs and data.draw(st.booleans()) else data.draw(entry)
    assert la.rows_at_least(C, d, xs) == looped_rows_at_least(C, d, xs)


@PROPERTY
@given(lorentz_cones(), st.data())
def test_contains_on_rational_vectors_matches_the_fraction_form(cone_h, data):
    cone, _ = cone_h
    v = data.draw(st.tuples(*[small_rational | st.integers(-3, 3)] * cone.dim))
    q, s = cone.lattice.quadratic(v), la.dot(cone.side, v)
    assert cone.contains(v) == (q > 0 and s > 0)
    assert cone.contains(v, closed=True) == (q >= 0 and s >= 0)


@st.composite
def cone_lists(draw):
    """Pointed cones in random orthants: overlapping, and face-closed or not."""
    rank = draw(st.integers(2, 3))
    cones = []
    for _ in range(draw(st.integers(1, 4))):
        signs = draw(st.tuples(*[st.sampled_from((1, -1))] * rank))
        # a positive first coordinate before the sign flip keeps each cone pointed
        ray = st.tuples(st.integers(1, 2), *[st.integers(-2, 2)] * (rank - 1))
        rays = draw(st.lists(ray, min_size=1, max_size=rank + 1))
        cones.append(RationalCone([tuple(s * x for s, x in zip(signs, r)) for r in rays], rank))
    closed = draw(st.booleans())
    return fan_from_maximal(cones, rank) if closed else Fan(cones, rank)


@PROPERTY
@given(cone_lists(), st.data())
def test_subdivisions_match_maximal_cones_of_the_closure(f, data):
    assert f.maximal_cones() == reference_maximal_cones(f)
    ray = data.draw(st.tuples(*[st.integers(-2, 2)] * f.rank).filter(any))
    assert star_subdivide(f, ray).cones == reference_star_subdivide(f, ray).cones
    selected = data.draw(st.lists(st.sampled_from(f.cones), max_size=4))
    assert barycentric_subdivide(f, selected).cones == \
        reference_barycentric_subdivide(f, selected).cones
    assert barycentric_subdivide(f, list(f.top_cones())).cones == \
        reference_barycentric_subdivide(f, list(f.top_cones())).cones


@st.composite
def maximal_inputs(draw):
    """Cone lists for _maximal: face closures, star outputs, and lists that
    are not fans (nested, overlapping and duplicated cones, the zero cone,
    cones with lines), in random order, and the empty list."""
    kind = draw(st.sampled_from(["closure", "star", "raw", "lines", "empty"]))
    if kind == "empty":
        return []
    f = draw(cone_lists())
    if kind == "closure":
        cones = [fc for c in f.cones for fc in faces(c)]
    elif kind == "star":
        ray = draw(st.tuples(*[st.integers(-2, 2)] * f.rank).filter(any))
        cones = _star(draw(st.sampled_from([f.cones, f.maximal_cones()])), ray, f.rank)
    else:
        cones = list(f.cones)
        cones += draw(st.lists(st.sampled_from(f.cones), max_size=3))
        cones += draw(st.lists(st.sampled_from([fc for c in f.cones for fc in faces(c)]),
                               max_size=4))
        if draw(st.booleans()):
            cones.append(RationalCone([], f.rank))
        if kind == "lines":
            cones.append(draw(cones_with_lines().filter(lambda c: c.rank == f.rank)))
    return draw(st.permutations(cones))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(maximal_inputs())
@example([])
@example([RationalCone([], 2)])
@example([RationalCone([(1, 0)], 2), RationalCone([], 2), RationalCone([(1, 0), (0, 1)], 2),
          RationalCone([(1, 0)], 2), RationalCone([(1, 1), (-1, 1)], 2)])
# rays that are not all extreme: a cone on a subset of them need not lie
# strictly inside (here both are the quadrant, and both half-planes)
@example([RationalCone([(1, 0), (0, 1)], 2),
          RationalCone([(1, 0), (1, 1), (0, 1)], 2, canonicalize=False)])
@example([RationalCone([(1, 0), (-1, 0), (0, 1)], 2),
          RationalCone([(1, 0), (-1, 0), (0, 1), (1, 1)], 2)])
def test_maximal_matches_the_pairwise_loop(cones):
    # a tuple compare: the same cones in the same order
    assert _maximal(cones) == pairwise_maximal(cones)


def test_subdivision_drops_a_cone_nested_by_an_earlier_step():
    # the star at (0, 1) turns cone((1,1),(-1,1)) into two cones, one of
    # them strictly inside the overlapping cone((1,0),(0,1)); the next step
    # starts from the maximal cones, so that one is gone from the result
    c1 = RationalCone([(1, 0), (0, 1)], 2)
    c2 = RationalCone([(1, 1), (-1, 1)], 2)
    c3 = RationalCone([(0, -1), (1, -1)], 2)
    for f in (Fan([c1, c2, c3], 2), fan_from_maximal([c1, c2, c3], 2)):
        got = barycentric_subdivide(f, [c2, c3])
        assert got.cones == reference_barycentric_subdivide(f, [c2, c3]).cones
        assert RationalCone([(0, 1), (1, 1)], 2) not in got


def _closed(maximal, rank):
    return fan_from_maximal([RationalCone(rays, rank) for rays in maximal], rank)


def _complete_fan(rays):
    """Face closure of the cones on all but one of the given rays."""
    return _closed([[r for j, r in enumerate(rays) if j != i] for i in range(len(rays))],
                   len(rays[0]))


def _support_fan_of_light_cone_2():
    lc = light_cone(2)
    E = core_extremes(lc, "perfect", 3)
    return support_fan(E, lc)[0]


E2 = ((1, 0), (0, 1))
E3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
VALIDATION_FANS = {
    "p1-cubed": lambda: _closed([[(sx, 0, 0), (0, sy, 0), (0, 0, sz)]
                                 for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)], 3),
    "p3": lambda: _complete_fan(list(E3) + [(-1, -1, -1)]),
    "p4": lambda: _complete_fan([tuple(int(i == j) for j in range(4)) for i in range(4)]
                                + [(-1, -1, -1, -1)]),
    "acceptance": lambda: _complete_fan(list(E2) + [(-1, -1)]),
    "light-cone-2-support": _support_fan_of_light_cone_2,
    "overlapping-maximal-cones": lambda: _closed([E2, [(1, 1), (-1, 1)]], 2),
    "meet-in-a-face-of-one-only": lambda: _closed([E3[:2], [(1, 1, 0), (0, 0, 1)]], 3),
    "nested-non-face": lambda: _closed([E2, [(1, 1)]], 2),
    "missing-face": lambda: Fan([RationalCone(E2, 2), RationalCone([(1, 0)], 2)], 2),
    "not-pointed": lambda: Fan([RationalCone([(1, 0), (-1, 0), (0, 1)], 2),
                                RationalCone([(1, 0)], 2), RationalCone([(-1, 0)], 2),
                                RationalCone([(0, 1)], 2), RationalCone([], 2)], 2),
}


def fan_outcome(validate, f):
    try:
        return validate(f)
    except ValueError as e:
        return str(e)


@pytest.mark.parametrize("name", sorted(VALIDATION_FANS))
def test_maximal_pair_validation_matches_all_pairs(name):
    f = VALIDATION_FANS[name]()
    got = fan_outcome(validate_fan, f)
    assert got == fan_outcome(all_pairs_validate_fan, f)
    assert got.valid == (name in ("p1-cubed", "p3", "p4", "acceptance",
                                  "light-cone-2-support"))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(cone_lists())
def test_maximal_pair_validation_matches_all_pairs_on_random_fans(f):
    assert fan_outcome(validate_fan, f) == fan_outcome(all_pairs_validate_fan, f)


def check_lattice_against_fresh_faces(c, rnd):
    """faces(c) is reference_faces(c) as a tuple, and each face agrees with a
    fresh cone on its rays: is_pointed, dim, its own faces, and contains on
    points of every face of c (so on the face, and on c off it), on their
    negatives (off c) and on random points."""
    got = faces(c)
    assert got == reference_faces(c)
    points = [tuple(sum(rnd.randint(1, 3) * r[k] for r in g.rays) for k in range(c.rank))
              for g in got]
    points += [tuple(-x for x in p) for p in points]
    points += [tuple(rnd.randint(-4, 4) for _ in range(c.rank)) for _ in range(5)]
    for fc in got:
        fresh = RationalCone(fc.rays, c.rank, canonicalize=False)
        assert (fc.is_pointed, fc.dim) == (fresh.is_pointed, fresh.dim)
        assert faces(fc) == reference_faces(fresh)
        assert [fc.contains(x) for x in points] == [fresh.contains(x) for x in points]


@PROPERTY
@given(pointed_ray_sets(), st.booleans(), st.randoms(use_true_random=False))
@example(([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (1, 1, 2)], 3), False, None)
def test_face_lattice_matches_reference_faces(rays_dim, canonical, rnd):
    # canonicalize=False keeps rays that are not extreme (the example's
    # (1, 1, 2) lies on a facet of the cone over the square)
    rays, dim = rays_dim
    check_lattice_against_fresh_faces(RationalCone(rays, dim, canonicalize=canonical),
                                      rnd or random.Random(0))


@PROPERTY
@given(generator_sets())
def test_faces_of_any_cone_match_reference_faces(gens_rank):
    # pointed or not, full-dimensional or not: the same ray subsets in order
    c = RationalCone(*gens_rank)
    assert faces(c) == reference_faces(c)
    assert [fc.dim for fc in faces(c)] == [fc.dim for fc in reference_faces(c)]


SUPPORT_HEIGHTS = dict.fromkeys(WINDOW_CONES, 2) | {"light_cone_2": 3}


@pytest.mark.parametrize("name", sorted(WINDOW_CONES))
def test_face_lattices_of_support_fans_match_reference_faces(name):
    cone = WINDOW_CONES[name]
    E = core_extremes(cone, "perfect", SUPPORT_HEIGHTS[name])
    f = support_fan(E, cone)[0]
    rnd = random.Random(17)
    for c in f.maximal_cones():
        check_lattice_against_fresh_faces(c, rnd)
    # the same fan from cones built one by one: faces_of finds each cone's
    # face in a lattice of a maximal cone
    g = Fan([RationalCone(c.rays, c.rank) for c in f.cones], f.rank)
    assert [g.faces_of(c) for c in g.cones] == [reference_faces(c) for c in g.cones]


@PROPERTY
@given(rational_systems())
def test_column_reduction_matches_the_kernel_loop(system):
    A = system[0]
    assert la.kernel_int(A) == loop_kernel_int(A)
    if A and A[0]:
        H, U, r = la.column_reduce(A)
        assert la.mat_mul(la.scaled_int(A)[0], U) == H and abs(la.determinant(U)) == 1
        assert r == la.rank(A) and not any(x for row in H for x in row[r:])


@st.composite
def independent_ray_sets(draw, bound):
    """k <= n independent integral rays in Z^n, n = 2..4, entries bounded by
    bound[n]."""
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, n))
    entry = st.integers(-bound[n], bound[n])
    rays = draw(st.lists(st.tuples(*[entry] * n), min_size=k, max_size=k))
    assume(la.rank(rays) == k)
    return rays


@settings(max_examples=150, deadline=None, derandomize=True)
@given(independent_ray_sets({2: 5, 3: 3, 4: 2}), st.data())
def test_independent_rays_skip_the_hull(rays, data):
    # scaled and repeated copies still give independent distinct rays
    copies = data.draw(st.lists(st.tuples(st.sampled_from(rays), st.integers(1, 3)),
                                max_size=3))
    gens = rays + [tuple(k * x for x in r) for r, k in copies]
    n = len(rays[0])
    c = RationalCone(data.draw(st.permutations(gens)), n)
    assert not hasattr(c, "_facets") and c.is_pointed
    facets, eqs, _ = _facets_of(sorted({la.primitive(r) for r in rays}), n)
    assert la.rank(facets + eqs) == n
    assert c.rays == incidence_canonical_rays(gens, n)
    assert c.facet_normals() == (facets, eqs)


@pytest.mark.parametrize("rays", [[(1, 0), (-1, 0)], [(2, 0), (-1, 0), (0, 3)],
                                  [(1, 0, 0), (-1, 0, 0), (0, 1, 0)]])
def test_rays_on_one_line_keep_the_hull_answer(rays):
    # two rays on one line are not independent: the double description
    # decides, and the cone is not pointed and keeps its input rays
    n = len(rays[0])
    c = RationalCone(rays, n)
    facets, eqs, _ = _facets_of(sorted({la.primitive(r) for r in rays}), n)
    assert not c.is_pointed and la.rank(facets + eqs) < n
    assert c.rays == incidence_canonical_rays(rays, n) == tuple(sorted(map(la.primitive, rays)))
    assert c.facet_normals() == (facets, eqs)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(independent_ray_sets({2: 5, 3: 3, 4: 2}))
@example([(1, 0), (7, 10)])
@example([(2, 4, 6)])
def test_parallelepiped_matches_box_scan(rays):
    got = _parallelepiped(rays)
    half_open = {(x, tuple(t)) for x, t in box_parallelepiped(rays) if all(ti < 1 for ti in t)}
    assert set(got) == half_open and len(got) == len(half_open)
    assert len(got) == minors_multiplicity(rays)
    c = RationalCone(rays, len(rays[0]))
    assert is_regular(c) == minors_is_regular(c)
    if not is_regular(c):
        assert _resolution_ray(c) == box_resolution_ray(c)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(independent_ray_sets({2: 5, 3: 2, 4: 1}))
@example([(1, 0), (7, 10)])
@example([(1, 0, 0), (0, 1, 0), (1, 1, 2)])
def test_charts_and_resolutions_match_box_scan(rays):
    c = RationalCone(rays, len(rays[0]))
    assert hilbert_basis(c) == with_box_scan(hilbert_basis, c)
    assert chart_presentation(c) == with_box_scan(chart_presentation, c)
    if c.rank == 2:
        f = fan_from_maximal([c], 2)
        assert make_regular(f).cones == with_box_scan(make_regular, f).cones
