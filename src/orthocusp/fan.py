"""Rational polyhedral cones, fans, toric charts and orbits.

All arithmetic is exact (integers and Fractions); every predicate is a
decision procedure.  Cones are stored by primitive integral ray
generators.  One cached double description pass (_facets_of) gives a
cone's facets, span equations and extreme generators; independent rays
need no pass.  Faces come from a pointed cone's facet/ray incidence with
no pass of their own, so a fan pays one pass per maximal cone and reads
the faces of its other cones from their lattices (faces, Fan.faces_of).
The lattice points of a simplicial cone's fundamental parallelepiped
(_parallelepiped), and with them multiplicity, regularity, resolution
rays and Hilbert-basis candidates, come from the integer column
reduction _linalg.column_reduce.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import and_, mul

from . import _linalg as la
from .errors import ConeNotInFan, DeskScopeError


def _double_description(normals, dim, equations=()):
    """Sorted (ray, zero set) pairs of {x : <n_i, x> >= 0, <e_j, x> = 0}.

    Fraction-free double description (Motzkin; Fukuda & Prodon, "Double
    description method revisited", 1996).  It works in integer coordinates
    on a Z-basis of the subspace the equations cut out, starts from the
    simplicial cone of k independent rows, and adds the other half-spaces
    one at a time, joining each positive/negative pair of rays that are
    adjacent by the zero-set test.  Bit i of a ray's zero set is set when
    <normals[i], ray> = 0 (a normal that vanishes on the subspace has no
    bit); the adjacency test reads only & and bit_count, so the bits carry
    the caller's indices from the start.  A solution cone that is not
    pointed is refused with ValueError.
    """
    basis = la.kernel_int(equations or [(0,) * dim])
    k = len(basis)
    if k == 0:
        return ()

    def lift(y):
        # a primitive y lifts to a primitive vector: the basis is saturated
        return tuple(sum(c * b[i] for c, b in zip(y, basis)) for i in range(dim))

    rows = [(la.primitive(r), 1 << i) for i, r in enumerate(
        [la.dot(n, b) for b in basis] for n in normals) if any(r)]
    first = la.echelon(la.transpose([r for r, _ in rows]))[1]
    if len(first) < k:
        raise ValueError("the solution cone contains a line")
    rows = [rows[i] for i in first] + [x for i, x in enumerate(rows) if i not in first]
    # simplicial start: ray j is tight on every chosen row but row j.  The
    # echelon of [A | I] is d [I | A^-1], so ray j is sign(d) times column
    # j of its right-hand block
    M, _, d, _ = la.echelon([list(r) + [int(i == j) for j in range(k)]
                             for i, (r, _) in enumerate(rows[:k])])
    full = sum(bit for _, bit in rows[:k])
    rays = [(la.primitive([row[k + j] if d > 0 else -row[k + j] for row in M]),
             full & ~rows[j][1]) for j in range(k)]
    for a, bit in rows[k:]:
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
    return tuple(sorted((lift(r), z) for r, z in rays))


def _extreme_rays_of_halfspaces(normals, dim, equations=()):
    """Primitive extreme rays of {x : <n_i, x> >= 0, <e_j, x> = 0}, sorted."""
    return tuple(r for r, _ in _double_description(normals, dim, equations))


def _facets_of(gens, rank):
    """(facets, span equations, extreme generators) of cone(gens) in Q^rank.

    One double description pass.  The facets are the primitive extreme
    rays of the dual cone taken inside span(gens); the span equations are
    a primitive basis of span(gens)^perp (every unit vector when gens is
    empty).  g_i is extreme, kept in input order, when the zero sets of
    the facets through it AND to 1 << i (over no facets, to every
    generator).  This is exact when cone(gens) is pointed and the gens are
    nonzero and on distinct rays (two gens on one ray are both dropped):
    the facets through g cut out the least face holding g, which is the
    ray of g when g is extreme, and otherwise has dimension >= 2 and
    generators on at least two of its extreme rays.
    """
    eqs = tuple(la.primitive(e) for e in la.nullspace(gens or [(0,) * rank]))
    hull = _double_description(gens, rank, equations=eqs)
    every = (1 << len(gens)) - 1
    extreme = tuple(g for i, g in enumerate(gens)
                    if reduce(and_, (z for _, z in hull if z >> i & 1), every) == 1 << i)
    return tuple(f for f, _ in hull), eqs, extreme


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

    lines= holds the line generators of a cone with lines (duals of
    lower-dimensional cones).  Canonicalization keeps the extreme rays of
    a pointed cone, the input rays that _facets_of finds extreme (all of
    them when they are independent).  A cone with a lineality space keeps
    its deduplicated input rays.  _extreme marks known extreme rays.
    """

    _extreme = False

    def __init__(self, rays, rank: int, lines=(), canonicalize: bool = True):
        self.rank = int(rank)
        self.rays = tuple(sorted({la.primitive(r) for r in rays if any(r)}))
        self.lines = tuple(sorted(la.primitive(l) for l in lines))
        if canonicalize and not self.lines and self.is_pointed and not self._extreme:
            self.rays = self._facets[2]  # cached by is_pointed
            self._extreme = True

    @property
    def is_degenerate(self) -> bool:
        return bool(self.lines)

    @property
    def is_pointed(self) -> bool:
        """Whether the cone contains no line: its rays are independent (then
        extreme), or its facets and span equations have full rank."""
        if self._extreme or not self.lines and self.dim == len(self.rays):
            self._extreme = True
            return True
        facets, eqs = self.facet_normals()
        return la.rank(facets + eqs) == self.rank

    @property
    def dim(self) -> int:
        """Dimension of the span, computed once per cone (by plain attribute
        assignment: functools.cached_property costs about 60 bytes a cone)."""
        if not hasattr(self, "_dim"):
            self._dim = la.rank(self.rays + self.lines)
        return self._dim

    def __eq__(self, other):
        return (isinstance(other, RationalCone) and self.rank == other.rank
                and self.rays == other.rays and self.lines == other.lines)

    def __hash__(self):
        return hash((self.rank, self.rays, self.lines))

    def __repr__(self):
        return f"RationalCone(rays={list(self.rays)}, rank={self.rank})"

    def _generators(self):
        """The rays, the lines and their negatives: the cone is their N-span."""
        return self.rays + self.lines + tuple(tuple(-x for x in l) for l in self.lines)

    def facet_normals(self):
        """Primitive inequalities cutting the cone inside its span, plus the
        span equations; the whole _facets_of pass is cached."""
        if not hasattr(self, "_facets"):
            self._facets = _facets_of(self._generators(), self.rank)
        return self._facets[:2]

    def _cut(self):
        """(ineqs, eqs): x is in the cone when <d, x> >= 0 for every d in
        ineqs and <e, x> = 0 for every e in eqs."""
        return self.facet_normals()

    def contains(self, x) -> bool:
        ineqs, eqs = self._cut()
        return all(la.dot(e, x) == 0 for e in eqs) and all(la.dot(d, x) >= 0 for d in ineqs)

    def barycenter(self):
        return la.primitive([sum(r[k] for r in self.rays) for k in range(self.rank)])


def dual_cone(c: RationalCone) -> RationalCone:
    """Dual cone in the dual lattice: the cached facets of c are its rays.
    The dual of a lower-dimensional cone has span(c)^perp as its lines."""
    return RationalCone(c.facet_normals()[0], c.rank,
                        lines=la.kernel_int(c._generators() or [(0,) * c.rank]),
                        canonicalize=False)


def intersect_cones(a: RationalCone, b: RationalCone) -> RationalCone:
    """a cap b for pointed a and b; the double description returns its
    primitive extreme rays."""
    if not (a.is_pointed and b.is_pointed):
        raise ValueError("cone intersection implemented for pointed cones only")
    (ia, ea), (ib, eb) = a.facet_normals(), b.facet_normals()
    rays = _extreme_rays_of_halfspaces(ia + ib, a.rank, equations=ea + eb)
    return RationalCone(rays, a.rank, canonicalize=False)


class _Face(RationalCone):
    """A face of a pointed cone: the cone cut by its facets through the face
    (Cox, Little & Schenck, Toric Varieties, 1.2).  It runs no double
    description pass unless its own facet_normals() is read, and its faces
    are the cone's faces inside it (faces of faces are faces)."""

    is_pointed = True

    def __init__(self, cone, rays, dim, through, mask, lattice):
        self.rank, self.rays, self.lines, self._dim = cone.rank, rays, (), dim
        self._cone, self._through, self._mask, self._lattice = cone, through, mask, lattice
        self._extreme = cone._extreme

    def _cut(self):
        ineqs, eqs = self._cone.facet_normals()
        return ineqs, eqs + self._through


def faces(c: RationalCone):
    """All faces of c including the zero cone and c itself (memoized).

    A breadth-first search intersects the ray bitmasks of c's facets.  The
    faces of a pointed cone are _Face objects (c itself for its own rays);
    dim F is one more than the largest dim (F & t), t a facet not through F.
    """
    if c.is_degenerate:
        raise ValueError("face enumeration implemented for pointed cones only")
    if not hasattr(c, "_faces") and isinstance(c, _Face):
        c._faces = tuple(g for m, g in c._lattice if not m & ~c._mask)
    if hasattr(c, "_faces"):
        return c._faces
    ineqs, rays = c.facet_normals()[0], c.rays
    tight = [sum(1 << i for i, r in enumerate(rays) if la.dot(d, r) == 0) for d in ineqs]
    full = (1 << len(rays)) - 1
    seen, frontier = {full, 0}, [full]
    while frontier:  # set.add returns None: a new mask enters the next frontier once
        frontier = [m & t for m in frontier for t in tight
                    if not (m & t in seen or seen.add(m & t))]
    subsets = sorted((tuple(r for i, r in enumerate(rays) if m >> i & 1), m) for m in seen)
    if not c.is_pointed:
        c._faces = tuple(RationalCone(rs, c.rank, canonicalize=False) for rs, _ in subsets)
        return c._faces
    dims = {0: 0}
    for m in sorted(seen, key=int.bit_count)[1:]:
        dims[m] = 1 + max(dims[m & t] for t in tight if m & ~t)
    lattice = []
    for rs, m in subsets:
        lattice.append((m, c if m == full else _Face(
            c, rs, dims[m], tuple(d for d, t in zip(ineqs, tight) if not m & ~t), m, lattice)))
    c._faces = tuple(g for _, g in lattice)
    return c._faces


class Fan:
    """Finite face-closed collection of cones (validity checked on demand),
    with a hash index from cone to position, and the face lattices of the
    pointed cones _ray_tops keeps (built on first use) for faces_of."""

    def __init__(self, cones, rank: int):
        self.rank = int(rank)
        self.cones = tuple(sorted(dict.fromkeys(cones), key=lambda c: (c.dim, c.rays)))
        self._index = {c: i for i, c in enumerate(self.cones)}

    def __contains__(self, c):
        return c in self._index

    def maximal_cones(self):
        return _maximal(self.cones)

    def top_cones(self):
        return tuple(c for c in self.cones if c.dim == self.rank)

    def _lattice(self):
        """(the cones _ray_tops keeps, {rays: face} over the pointed ones' faces)."""
        if not hasattr(self, "_tops"):
            self._tops = [c for c, _ in _ray_tops(self.cones)[1]]
            self._by_rays = {fc.rays: fc for c in self._tops if c.is_pointed for fc in faces(c)}
        return self._tops, self._by_rays

    def faces_of(self, c):
        """faces(c), read from the fan's lattice when a face there equals c."""
        fc = self._lattice()[1].get(c.rays)
        return faces(fc if fc == c else c)


def _ray_tops(cones):
    """(bits, kept): a bit for each distinct ray, and (cone, ray bitmask) of
    the distinct cones in order, less each cone with no lines whose rays are
    a proper subset of the extreme rays of another: it lies strictly inside."""
    cones = tuple(dict.fromkeys(cones))
    bits = {}
    own = [sum(bits.setdefault(r, 1 << len(bits)) for r in c.rays) for c in cones]
    tops = []
    for o in sorted({o for c, o in zip(cones, own) if c._extreme}, key=int.bit_count,
                    reverse=True):
        if all(o & ~t for t in tops):
            tops.append(o)
    return bits, [(c, o) for c, o in zip(cones, own)
                  if c.lines or all(o == t or o & ~t for t in tops)]


def _maximal(cones):
    """The distinct cones that lie strictly inside no other, in order.

    _ray_tops drops the cones nested by rays, with no contains call; every
    ray is a ray of a kept cone.  A ray-incidence table decides the rest:
    own(c) is the bitmask of c's rays, inside(c) of the rays c contains, so
    c lies strictly inside d exactly when own(c) & ~inside(d) == 0 and
    own(d) & ~inside(c) != 0.  No fan property is used.  inside(c) is one
    packed la.rows_at_least over c's inequalities, equations and their
    negatives.
    """
    bits, kept = _ray_tops(cones)
    rays, inside = tuple(bits), []
    for c, _ in kept:
        ineqs, eqs = c._cut()
        rows = ineqs + eqs + tuple(tuple(-x for x in e) for e in eqs)
        inside.append(sum(bits[r] for r in la.rows_at_least(rows, 0, rays)))
    return tuple(c for (c, oc), ic in zip(kept, inside)
                 if not any(od & ~ic and not oc & ~id_ for (_, od), id_ in zip(kept, inside)))


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
    if inter in f and inter in f.faces_of(a) and inter in f.faces_of(b):
        return None
    return inter


def validate_fan(f: Fan) -> FanReport:
    """Face closure plus the pairwise-intersection condition.

    If every cone equals a face in f's lattice and the lattice has no more
    faces than f has cones (true of a valid fan of canonical pointed
    cones), f is closed under faces, its cones are pointed, and each is a
    face of a cone _ray_tops keeps.  The pairs of kept cones then decide
    the intersection condition: every cone sigma is a face of such a
    sigma', tau of tau', and if sigma' and tau' meet in a common face rho,
    then sigma cap rho and rho cap tau are faces of rho, so sigma cap tau
    is a face of both and in f (faces of faces are faces: Cox, Little &
    Schenck, Toric Varieties, 1.2 and 3.1).  Any other fan, or a failed
    pair, gets the scans over every cone's faces and every pair in order,
    which name the first violation.
    """
    cone_set = list(f.cones)
    tops, lattice = f._lattice()
    if len(lattice) == len(cone_set) and all(lattice.get(c.rays) == c for c in cone_set):
        if all(_meet_in_a_face(f, a, b) is None for a, b in itertools.combinations(tops, 2)):
            return FanReport(valid=True)
    else:
        for c in cone_set:
            for fc in faces(c):
                if fc not in f:
                    return FanReport(False, [{"kind": "missing_face", "cone": list(c.rays),
                                              "face": list(fc.rays)}])
    for a, b in itertools.combinations(cone_set, 2):
        inter = _meet_in_a_face(f, a, b)
        if inter is not None:
            return FanReport(False, [{"kind": "bad_intersection", "cone_a": list(a.rays),
                                      "cone_b": list(b.rays), "intersection": list(inter.rays)}])
    return FanReport(valid=True)


def is_regular(c: RationalCone) -> bool:
    """Simplicial with multiplicity 1: the primitive generators extend to a
    lattice basis."""
    return len(c.rays) == c.dim and all(
        abs(row[i]) == 1 for i, row in enumerate(la.column_reduce(c.rays)[0]))


def is_complete(f: Fan) -> bool:
    """Exact completeness via facet pairing of the top-dimensional cones."""
    n = f.rank
    tops = f.top_cones()
    if not tops:
        return False
    count = Counter(fc for c in tops for fc in f.faces_of(c) if fc.dim == n - 1)
    # belt and braces: a global sample point must be covered
    probe = tuple(range(1, n + 1))
    return all(v == 2 for v in count.values()) and any(c.contains(probe) for c in tops)


def _star(maxcones, ray, rank: int):
    """Cones of the star subdivision at ray: each cone containing ray is
    replaced by the joins of ray with its facets that miss it."""
    out = []
    for c in maxcones:
        if c.contains(ray):
            out += [RationalCone(fc.rays + (ray,), rank) for fc in faces(c)
                    if fc.dim == c.dim - 1 and not fc.contains(ray)]
        else:
            out.append(c)
    return out


def star_subdivide(f: Fan, ray) -> Fan:
    """Star subdivision of a fan at a primitive ray."""
    return fan_from_maximal(_star(f.maximal_cones(), la.primitive(ray), f.rank), f.rank)


def barycentric_subdivide(f: Fan, selected) -> Fan:
    """Star subdivision at the primitive barycenter of each selected cone.

    selected is an iterable of cones; those of dimension <= 1 are ignored
    (their barycenter is a ray of the fan already).  Each step starts from
    the maximal elements of the last step's cones: a face added by the
    closure lies strictly inside its cone, so they are the maximal cones of
    the closed fan.
    """
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
    under faces once at the end.  Raises DeskScopeError when non-regular
    faces are left after max_rounds rounds.
    """
    maxcones = f.maximal_cones()
    for rounds in range(max_rounds + 1):
        bad = {fc for c in maxcones for fc in faces(c) if fc.dim >= 2 and not is_regular(fc)}
        if not bad:
            return fan_from_maximal(maxcones, f.rank)
        if rounds == max_rounds:
            raise DeskScopeError(f"not regular after {max_rounds} rounds allowed: "
                                 f"{len(bad)} non-regular faces left")
        for b in sorted(bad, key=lambda c: (-c.dim, c.rays)):
            maxcones = _star(maxcones, _resolution_ray(b), f.rank)


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
    if c.dim == len(c.rays):
        return [c.rays]
    r0 = c.rays[0]
    return [sub + (r0,) for fc in faces(c) if fc.dim == c.dim - 1 and not fc.contains(r0)
            for sub in _triangulate(fc)]


def hilbert_basis(c: RationalCone):
    """Monoid generators of dual(c) cap M, sorted.

    For pointed full-dimensional c this is the unique minimal generating
    set (Hilbert basis) of the chart monoid.  For c of dimension r < n
    they are +- a basis of c^perp cap M plus lifted generators (monoid
    generators, not claimed minimal).  la.column_reduce gives H = G U for
    the matrix G of c's generators, U unimodular, and columns r.. of H
    vanish; so m = U y lies in dual(c) exactly when y[:r] lies in the dual
    of the full-dimensional cone spanned by the rows of H[:, :r].  Columns
    r.. of U are the basis of c^perp cap M, and that cone's Hilbert basis,
    padded with zeros and lifted by U, gives the rest.
    """
    n = c.rank
    H, U, r = la.column_reduce(c._generators() or [(0,) * n])
    if r < n:
        lines = la.transpose(U)[r:]
        sub = hilbert_basis(RationalCone([row[:r] for row in H], r))
        gens = {la.mat_vec(U, y + (0,) * (n - r)) for y in sub}
        return tuple(sorted(gens.union(lines, (tuple(-x for x in l) for l in lines))))
    d = dual_cone(c)
    cand = set(d.rays)
    for tri in _triangulate(d):
        cand.update(p for p, _ in _parallelepiped(tri) if any(p))
    # grade by the barycenter of c, positive on the dual minus 0
    w = c.barycenter()
    return tuple(sorted(_cone_minima(cand, lambda v: la.dot(w, v), d.contains)))


def chart_presentation(c: RationalCone):
    """(generators, binomial relations) for the affine chart of c.

    Relations are a Z-basis of the lattice of additive relations among the
    Hilbert-basis generators, encoded as exponent pairs (lhs, rhs) with
    disjoint supports, i.e. the binomial  prod u_i^lhs_i = prod u_i^rhs_i.
    """
    gens = hilbert_basis(c)
    if not gens:
        return (), ()
    rels = []
    for k in la.kernel_int(la.transpose(gens)):
        lhs, rhs = tuple(max(x, 0) for x in k), tuple(max(-x, 0) for x in k)
        if any(lhs) or any(rhs):
            rels.append(min((lhs, rhs), (rhs, lhs)))
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
    closure = tuple(d for d in f.cones if c in f.faces_of(d))
    return OrbitRecord(cone=c, orbit_dim=f.rank - c.dim, closure_list=closure,
                       infinity_image=f"y + infinity*sigma for sigma with rays {list(c.rays)}")


@dataclass(frozen=True)
class PLSupport:
    """Piecewise-linear support data: a positive value at each ray of a fan,
    linear on each simplicial cone (the projectivity certificate)."""

    fan: Fan
    ray_values: dict

    def value_at(self, x):
        x = la.vec(x)
        for c in self.fan.top_cones():
            sol = la.solve(la.transpose(c.rays), x) if c.contains(x) else None
            if sol is not None:
                return sum(s * la.frac(self.ray_values[r]) for s, r in zip(sol, c.rays))
        raise ValueError("point outside the fan support")

    def is_positive(self) -> bool:
        return all(la.frac(v) > 0 for v in self.ray_values.values())
