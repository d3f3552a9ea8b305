"""Rational polyhedral cones, fans, toric charts and orbits.

All arithmetic is exact (integers and Fractions); every predicate is a
decision procedure.  Cones are stored by primitive integral ray
generators, canonicalized to extreme rays via double description; facet
normals are cached after the first dual computation.  The lattice points
of a simplicial cone's fundamental parallelepiped (_parallelepiped), and
with them multiplicity, regularity, resolution rays and Hilbert-basis
candidates, come from the integer column reduction _linalg.column_reduce.

Scale expectations are desk scale (ambient rank <= 5 or so, coordinates in
the hundreds); the algorithms favour clarity and exactness over speed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from . import _linalg as la
from .errors import ConeNotInFan


def _extreme_rays_of_halfspaces(normals, dim, equations=()):
    """Primitive extreme rays of {x : <n_i, x> >= 0, <e_j, x> = 0}.

    Fraction-free double description (Motzkin; Fukuda & Prodon, "Double
    description method revisited", 1996).  It works in integer coordinates
    on a Z-basis of the subspace the equations cut out, starts from the
    simplicial cone of k independent rows, and adds the other half-spaces
    one at a time, joining each positive/negative pair of rays that are
    adjacent by the zero-set test.  A solution cone that is not pointed
    gives +-l for a one-dimensional lineality space spanned by l, and ()
    otherwise.
    """
    basis = la.kernel_int(equations or [(0,) * dim])
    k = len(basis)
    if k == 0:
        return ()

    def lift(y):
        # a primitive y lifts to a primitive vector: the basis is saturated
        return tuple(sum(c * b[i] for c, b in zip(y, basis)) for i in range(dim))

    rows = [la.primitive(r) for r in ([la.dot(n, b) for b in basis] for n in normals)
            if any(r)]
    first = la.echelon(la.transpose(rows))[1]
    if len(first) < k:
        if len(first) < k - 1:
            return ()
        line = lift(la.primitive(la.nullspace(rows or [(0,) * k])[0]))
        return tuple(sorted({line, tuple(-x for x in line)}))
    order = list(first) + [i for i in range(len(rows)) if i not in first]
    rows = [rows[i] for i in order]
    # simplicial start: ray j is tight on every chosen row but row j
    inv = la.inverse(rows[:k])
    full = (1 << k) - 1
    rays = [(la.primitive([inv[i][j] for i in range(k)]), full & ~(1 << j))
            for j in range(k)]
    for t in range(k, len(rows)):
        a, bit = rows[t], 1 << t
        signs = [(r, z, la.dot(a, r)) for r, z in rays]
        pos = [x for x in signs if x[2] > 0]
        neg = [x for x in signs if x[2] < 0]
        nxt = [(r, z | bit if s == 0 else z) for r, z, s in signs if s >= 0]
        for p, zp, sp in pos:
            for n, zn, sn in neg:
                common = zp & zn
                if common.bit_count() < k - 2:
                    continue
                if any(common & z == common for r, z in rays if r is not p and r is not n):
                    continue
                nxt.append((la.primitive([sp * x - sn * y for x, y in zip(n, p)]),
                            common | bit))
        rays = nxt
    return tuple(sorted(lift(r) for r, _ in rays))


def _facets_of(gens, rank):
    """(facets, span equations) of cone(gens) in Q^rank.

    The facets are the primitive extreme rays of the dual cone taken
    inside span(gens); the span equations are a primitive basis of
    span(gens)^perp (every unit vector when gens is empty).
    """
    eqs = tuple(la.primitive(e) for e in la.nullspace(gens or [(0,) * rank]))
    return _extreme_rays_of_halfspaces(gens, rank, equations=eqs), eqs


def _cone_minima(points, grade, contains):
    """The points that no other point lies below in a cone's order.

    A sweep in (grade, point) order keeps a point unless it minus a kept
    point lies in the cone.  It is exact when the cone is pointed, the
    grade is positive on the cone minus 0 and the points are distinct:
    a point below p then has a smaller grade, so a minimal point below p
    is kept before p is reached.  Kept points come in sweep order.
    """
    kept = []
    for v in sorted(points, key=lambda v: (grade(v), v)):
        if not any(contains(tuple(a - b for a, b in zip(v, h))) for h in kept):
            kept.append(v)
    return kept


class RationalCone:
    """Cone generated by primitive integral rays (pointed by default).

    lines= holds the explicit line generators of a cone that contains
    lines; such cones arise only as duals of lower-dimensional cones.

    Canonicalization keeps the extreme rays of a pointed cone, which the
    double description of its facets and span equations returns.  A cone
    with a lineality space has no extreme rays, so it keeps its
    deduplicated input rays, which generate the same cone.
    """

    def __init__(self, rays, rank: int, lines=(), canonicalize: bool = True):
        self.rank = int(rank)
        self.rays = tuple(sorted({la.primitive(r) for r in rays if any(r)}))
        self.lines = tuple(sorted(la.primitive(l) for l in lines))
        if canonicalize and self.rays and self.is_pointed:
            facets, eqs = self.facet_normals()
            self.rays = _extreme_rays_of_halfspaces(facets, self.rank, equations=eqs)

    @property
    def is_degenerate(self) -> bool:
        return bool(self.lines)

    @property
    def is_pointed(self) -> bool:
        """Whether the cone contains no line: its facets and span equations
        have full rank."""
        facets, eqs = self.facet_normals()
        return la.rank(facets + eqs) == self.rank

    @property
    def dim(self) -> int:
        return la.rank(self.rays + self.lines)

    def __eq__(self, other):
        return (isinstance(other, RationalCone) and self.rank == other.rank
                and self.rays == other.rays and self.lines == other.lines)

    def __hash__(self):
        return hash((self.rank, self.rays, self.lines))

    def __repr__(self):
        return f"RationalCone(rays={list(self.rays)}, rank={self.rank})"

    def facet_normals(self):
        """Primitive inequalities cutting the cone inside its span, plus the
        span equations; cached."""
        if not hasattr(self, "_facets"):
            gens = list(self.rays) + list(self.lines) \
                + [tuple(-x for x in l) for l in self.lines]
            self._facets = _facets_of(gens, self.rank)
        return self._facets

    def contains(self, x) -> bool:
        ineqs, eqs = self.facet_normals()
        return all(la.dot(e, x) == 0 for e in eqs) and all(la.dot(d, x) >= 0 for d in ineqs)

    def barycenter(self):
        if not self.rays:
            return tuple(0 for _ in range(self.rank))
        s = [sum(r[k] for r in self.rays) for k in range(self.rank)]
        return la.primitive(s)


def dual_cone(c: RationalCone) -> RationalCone:
    """Dual cone in the dual lattice (double description).

    The dual of a non-full-dimensional cone is degenerate: its lines are
    the orthogonal complement of span(c).
    """
    gens = list(c.rays) + list(c.lines) + [tuple(-x for x in l) for l in c.lines]
    if not gens:
        return RationalCone([], c.rank, canonicalize=False,
                            lines=[tuple(int(i == j) for j in range(c.rank))
                                   for i in range(c.rank)])
    lines = la.kernel_int(gens)
    rays = _extreme_rays_of_halfspaces(gens, c.rank, equations=lines)
    return RationalCone(rays, c.rank, lines=lines, canonicalize=False)


def intersect_cones(a: RationalCone, b: RationalCone) -> RationalCone:
    ia, ea = a.facet_normals()
    ib, eb = b.facet_normals()
    normals = list(ia) + list(ib)
    eqs = list(ea) + list(eb)
    rays = _extreme_rays_of_halfspaces(normals, a.rank, equations=eqs)
    return RationalCone(rays, a.rank)


def faces(c: RationalCone):
    """All faces of c including the zero cone and c itself (memoized)."""
    if c.is_degenerate:
        raise ValueError("face enumeration implemented for pointed cones only")
    if hasattr(c, "_faces"):
        return c._faces
    ineqs, _ = c.facet_normals()
    rays = list(c.rays)
    seen = {}
    frontier = [tuple(rays)]
    seen[tuple(rays)] = True
    while frontier:
        nxt = []
        for rs in frontier:
            for d in ineqs:
                cut = tuple(r for r in rs if la.dot(d, r) == 0)
                if cut not in seen:
                    seen[cut] = True
                    nxt.append(cut)
        frontier = nxt
    # always include the zero face
    seen[()] = True
    out = tuple(RationalCone(list(rs), c.rank, canonicalize=False) for rs in sorted(seen))
    c._faces = out
    return out


class Fan:
    """Finite face-closed collection of cones (validity checked on demand)."""

    def __init__(self, cones, rank: int):
        self.rank = int(rank)
        self.cones = tuple(sorted(dict.fromkeys(cones), key=lambda c: (c.dim, c.rays)))

    def __contains__(self, c):
        return c in self.cones

    def __iter__(self):
        return iter(self.cones)

    def __len__(self):
        return len(self.cones)

    def maximal_cones(self):
        return _maximal(self.cones)

    def top_cones(self, dim=None):
        dim = self.rank if dim is None else dim
        return tuple(c for c in self.cones if c.dim == dim)


def _subcone(a: RationalCone, b: RationalCone) -> bool:
    return all(b.contains(r) for r in a.rays)


def _maximal(cones):
    """The distinct cones that lie strictly inside no other, in order."""
    cones = tuple(dict.fromkeys(cones))
    return tuple(c for c in cones
                 if not any(d != c and _subcone(c, d) and not _subcone(d, c) for d in cones))


def fan_from_maximal(cones, rank: int) -> Fan:
    """Close a set of cones under taking faces."""
    return Fan([f for c in cones for f in faces(c)], rank)


@dataclass
class FanReport:
    valid: bool
    violations: list = field(default_factory=list)


def _meet_in_a_face(f: Fan, a: RationalCone, b: RationalCone):
    """None when a and b meet in a cone of f that is a face of both, else
    their intersection."""
    inter = intersect_cones(a, b)
    if inter in f and inter in faces(a) and inter in faces(b):
        return None
    return inter


def validate_fan(f: Fan) -> FanReport:
    """Face closure plus the pairwise-intersection condition.

    Once f is closed under faces and its cones are pointed, the pairs of
    cones that are a face of no other cone decide the intersection
    condition.  Every cone sigma is a face of such a cone sigma', tau of
    tau', and if sigma' and tau' meet in a common face rho, then
    sigma cap rho and rho cap tau are faces of rho, so sigma cap tau is a
    face of both sigma and tau, and in f (faces of faces are faces: Cox,
    Little & Schenck, Toric Varieties, 1.2 and 3.1).  A line in a cone
    breaks the face enumeration this rests on, so a fan with a cone that
    is not pointed, or whose maximal pairs fail, gets the scan over every
    pair in order, which also names the first violation.
    """
    report = FanReport(valid=True)
    cone_set = list(f.cones)
    for c in cone_set:
        for fc in faces(c):
            if fc not in f:
                report.valid = False
                report.violations.append(
                    {"kind": "missing_face", "cone": list(c.rays), "face": list(fc.rays)}
                )
                return report
    if all(c.is_pointed for c in cone_set):
        proper = {fc for c in cone_set for fc in faces(c) if fc != c}
        tops = [c for c in cone_set if c not in proper]
        if all(_meet_in_a_face(f, a, b) is None
               for a, b in itertools.combinations(tops, 2)):
            return report
    for a, b in itertools.combinations(cone_set, 2):
        inter = _meet_in_a_face(f, a, b)
        if inter is not None:
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


def is_regular(c: RationalCone) -> bool:
    """Simplicial with multiplicity 1: the primitive generators extend to a
    lattice basis."""
    return len(c.rays) == c.dim and all(
        abs(row[i]) == 1 for i, row in enumerate(la.column_reduce(c.rays)[0]))


def is_complete(f: Fan) -> bool:
    """Exact completeness via facet pairing of the top-dimensional cones."""
    n = f.rank
    tops = f.top_cones(n)
    if not tops:
        return False
    count = {}
    for c in tops:
        for fc in faces(c):
            if fc.dim == n - 1:
                count[fc] = count.get(fc, 0) + 1
    if not all(v == 2 for v in count.values()):
        return False
    # belt and braces: an interior sample of each chamber plus a global
    # sample must be covered
    probe = tuple(range(1, n + 1))
    if not any(c.contains(probe) for c in tops):
        return False
    return True


def _star(maxcones, ray, rank: int):
    """Cones of the star subdivision at ray: each cone containing ray is
    replaced by the joins of ray with its facets that miss it."""
    out = []
    for c in maxcones:
        if not c.contains(ray):
            out.append(c)
            continue
        for fc in faces(c):
            if fc.dim == c.dim - 1 and not fc.contains(ray):
                out.append(RationalCone(list(fc.rays) + [ray], rank))
    return out


def star_subdivide(f: Fan, ray) -> Fan:
    """Star subdivision of a fan at a primitive ray."""
    return fan_from_maximal(_star(f.maximal_cones(), la.primitive(ray), f.rank), f.rank)


def barycentric_subdivide(f: Fan, selector) -> Fan:
    """Star subdivision at the primitive barycenter of each selected cone.

    selector is a predicate on cones or an explicit iterable of cones;
    selected cones of dimension <= 1 are ignored (their barycenter is a
    ray of the fan already).  Each step starts from the maximal elements
    of the last step's cones: a face added by the closure lies strictly
    inside its cone, so they are the maximal cones of the closed fan.
    """
    if callable(selector):
        selected = [c for c in f.cones if selector(c)]
    else:
        selected = [c for c in selector]
    selected = [c for c in selected if c.dim >= 2]
    out, maxcones = f, f.maximal_cones()
    for c in sorted(selected, key=lambda c: (-c.dim, c.rays)):
        if c not in out:
            continue
        cones = _star(maxcones, c.barycenter(), f.rank)
        out, maxcones = fan_from_maximal(cones, f.rank), _maximal(cones)
    return out


def _resolution_ray(c: RationalCone):
    """Stellar-subdivision ray that strictly decreases multiplicity.

    Non-simplicial cones get their primitive barycenter (simplicializing);
    simplicial non-regular cones have multiplicity >= 2 and get the least
    primitive nonzero point of the half-open fundamental parallelepiped,
    whose coefficients are all < 1, so every resulting piece has strictly
    smaller multiplicity.  Plain primitive-barycenter iteration does not
    terminate in general (cone((1,0),(7,10)) cycles at index 5).
    """
    if len(c.rays) != c.dim:
        return c.barycenter()
    return min(la.primitive(p) for p, _ in _parallelepiped(c.rays) if any(p))


def make_regular(f: Fan, max_rounds: int = 30) -> Fan:
    """Iterate stellar subdivision on non-regular cones until regular.

    Works on the maximal cones locally (the inserted ray is interior to the
    processed cone, so only cones containing it are replaced) and closes
    under faces once at the end.
    """
    maxcones = f.maximal_cones()
    for _ in range(max_rounds):
        bad = {fc for c in maxcones for fc in faces(c) if fc.dim >= 2 and not is_regular(fc)}
        if not bad:
            return fan_from_maximal(maxcones, f.rank)
        for b in sorted(bad, key=lambda c: (-c.dim, c.rays)):
            maxcones = _star(maxcones, _resolution_ray(b), f.rank)
    raise RuntimeError(f"not regular after {max_rounds} rounds")


def _parallelepiped(rays):
    """(point, t) for each lattice point sum t_i r_i, 0 <= t_i < 1, of the
    half-open fundamental parallelepiped of independent integral rays.

    In the Z-basis of span(rays) cap Z^n that la.column_reduce finds, the
    rays are the rows of a lower-triangular block H, and the y with
    0 <= y_i < |H_ii| are one representative of each coset of the ray
    lattice; y = s H lifts to the point sum frac(s_i) r_i (Cox, Little &
    Schenck, Toric Varieties, 11.1).  So there are mult(rays) = prod |H_ii|
    points.
    """
    H, k = la.column_reduce(rays)[0], len(rays)
    out = []
    for y in itertools.product(*(range(abs(H[i][i])) for i in range(k))):
        s = [0] * k
        for j in reversed(range(k)):
            s[j] = Fraction(y[j] - sum(s[i] * H[i][j] for i in range(j + 1, k)), H[j][j])
        t = tuple(x % 1 for x in s)
        out.append((tuple(int(sum(map(mul, t, col))) for col in zip(*rays)), t))
    return out


def _triangulate(c: RationalCone):
    """Split a pointed cone into simplicial subcones (lists of rays)."""
    rays = list(c.rays)
    if la.rank(rays) == len(rays):
        return [tuple(rays)]
    r0 = rays[0]
    pieces = []
    for fc in faces(c):
        if fc.dim == c.dim - 1 and not fc.contains(r0):
            for sub in _triangulate(fc):
                pieces.append(tuple(sub) + (r0,))
    return pieces


def hilbert_basis(c: RationalCone):
    """Minimal monoid generators of dual(c) cap M.

    For pointed full-dimensional c this is the unique minimal generating
    set (Hilbert basis) of the chart monoid; for lower-dimensional cones
    the dual is degenerate and the returned set consists of +/- the
    lineality basis together with the Hilbert basis of the pointed part
    (monoid generators, not claimed minimal).
    """
    d = dual_cone(c)
    if d.is_degenerate:
        gens = []
        for l in d.lines:
            gens.append(l)
            gens.append(tuple(-x for x in l))
        pointed = RationalCone(d.rays, d.rank)
        if pointed.rays:
            gens.extend(_hilbert_basis_pointed(pointed, c))
        return tuple(sorted(set(gens)))
    return tuple(_hilbert_basis_pointed(d, c))


def _hilbert_basis_pointed(d: RationalCone, primal: RationalCone):
    cand = set(d.rays)
    for tri in _triangulate(d):
        cand.update(p for p, _ in _parallelepiped(tri) if any(p))
    # grade by a strictly positive functional: the primal barycenter pairs
    # positively with the dual minus its lines (fall back to the coordinate
    # sum of dual generators)
    w = primal.barycenter() if primal.rays else [1] * d.rank
    return sorted(_cone_minima(cand, lambda v: la.dot(w, v), d.contains))


def chart_presentation(c: RationalCone):
    """(generators, binomial relations) for the affine chart of c.

    Relations are a Z-basis of the lattice of additive relations among the
    Hilbert-basis generators, encoded as exponent pairs (lhs, rhs) with
    disjoint supports, i.e. the binomial  prod u_i^lhs_i = prod u_i^rhs_i.
    """
    gens = hilbert_basis(c)
    if not gens:
        return (), ()
    ker = la.kernel_int(la.transpose(gens))
    rels = []
    for k in ker:
        lhs = tuple(max(x, 0) for x in k)
        rhs = tuple(max(-x, 0) for x in k)
        if any(lhs) or any(rhs):
            if (rhs, lhs) < (lhs, rhs):
                lhs, rhs = rhs, lhs
            rels.append((lhs, rhs))
    return tuple(gens), tuple(sorted(rels))


@dataclass(frozen=True)
class OrbitRecord:
    cone: RationalCone
    orbit_dim: int
    closure_list: tuple
    infinity_image: str


def orbit_record(f: Fan, c: RationalCone) -> OrbitRecord:
    """Torus-orbit data of a fan cone: dim O(sigma) = n - dim sigma and the
    cones whose orbits lie in the closure of O(sigma)."""
    if c not in f:
        raise ConeNotInFan(repr(c))
    closure = tuple(d for d in f.cones if c in faces(d))
    return OrbitRecord(
        cone=c,
        orbit_dim=f.rank - c.dim,
        closure_list=closure,
        infinity_image=f"y + infinity*sigma for sigma with rays {list(c.rays)}",
    )


@dataclass(frozen=True)
class PLSupport:
    """Piecewise-linear support data: a positive value at each ray of a fan.

    The induced function is linear on each simplicial cone; used as the
    projectivity certificate for decompositions.
    """

    fan: Fan
    ray_values: dict

    def value_at(self, x):
        x = la.vec(x)
        for c in self.fan.top_cones():
            if c.contains(x):
                sol = la.solve(la.transpose(c.rays), x)
                if sol is None:
                    continue
                return sum(s * la.frac(self.ray_values[r]) for s, r in zip(sol, c.rays))
        raise ValueError("point outside the fan support")

    def is_positive(self) -> bool:
        return all(la.frac(v) > 0 for v in self.ray_values.values())
