"""Parabolic, unipotent, cone and Levi data at the two cusp types of O(2,n).

Everything is relative to a lattice in the two-hyperbolic-planes shape
(pairs (v0,v2) and (v1,v3) plus a negative-definite block A), which only
CuspFlag.from_lattice tests, by qform.atilde_block; the flag keeps the
block.  The rank-1 flag is the isotropic line spanned by v0, the rank-2
flag the totally isotropic plane span(v0, v1).  Each unipotent element is
an Eichler transformation E(e, a) of v0 and v1 (Eichler, Quadratische
Formen und orthogonale Gruppen, 1952): the rank-1 radical is abelian, the
rank-2 radical a Heisenberg group with centre U_alpha = {E(v0, w1 v1)}.

Chart convention: the rank-1 boundary chart tuple is ordered
(v3/v2, v1/v2, v4/v2, ...) so that it matches the centre's parameter
labels (y1, y3, y4): translation by the unipotent element with parameters
(y1, y3, y4) adds exactly (y1, y3, y4) to the complexified tuple, and the
Levi equivariance phi(g p) = rho_l(g) phi(p) holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from . import _linalg as la
from ._linalg import frac
from .errors import NotInParabolic, UnsupportedShape, WrongFlagKind
from .qform import QuadraticLattice, atilde_block

RANK1 = "rank1"
RANK2 = "rank2"


@dataclass(frozen=True)
class CuspFlag:
    kind: str
    lattice: QuadraticLattice
    block: tuple = field(compare=False, repr=False)

    @classmethod
    def from_lattice(cls, lattice: QuadraticLattice, kind: str) -> "CuspFlag":
        if kind not in (RANK1, RANK2):
            raise WrongFlagKind(f"unknown flag kind {kind!r}")
        block = atilde_block(lattice)
        if block is None:
            raise UnsupportedShape(
                "cusp flags need the two-hyperbolic-planes shape "
                "(may not exist over Q for n <= 4)"
            )
        return cls(kind, lattice, block)

    @property
    def n(self) -> int:
        return self.lattice.rank - 2


@dataclass(frozen=True)
class BoundaryData:
    """Summary of the boundary data attached to a cusp flag."""

    kind: str
    u_dim: int
    v_dim: int
    f_dim: int
    cone: dict
    fibration: str


def boundary_data(flag: CuspFlag) -> BoundaryData:
    n = flag.n
    if flag.kind == RANK1:
        return BoundaryData(
            kind=RANK1,
            u_dim=n,
            v_dim=0,
            f_dim=0,
            cone={
                "kind": "self_adjoint_light_cone",
                "coordinates": "(y1, y3, y4vec)",
                "inequalities": ["y1*y3 + (1/2) y4 A y4^t > 0", "y3 > 0"],
            },
            fibration="trivial (point cusp): B_alpha = U_alpha_C",
        )
    return BoundaryData(
        kind=RANK2,
        u_dim=1,
        v_dim=n - 2,
        f_dim=1,
        cone={
            "kind": "half_line",
            "coordinates": "(w1,)",
            "inequalities": ["w1 > 0"],
        },
        fibration=(
            "(n-2)-fold fibre product of the universal elliptic curve over "
            "the modular curve (descriptor only)"
        ),
    )


def _eichler(G, e, a):
    """Matrix of the Eichler transformation E(e, a) for the Gram matrix G.

    x -> x + b(x,e) a - b(x,a) e - (1/2) b(a,a) b(x,e) e, an isometry when e
    is isotropic and a is orthogonal to e (Eichler 1952).
    """
    Ge, Ga = la.mat_vec(G, e), la.mat_vec(G, a)
    half_q = la.dot(a, Ga) / 2
    m = len(G)
    return tuple(tuple((i == j) + a[i] * Ge[j] - e[i] * (Ga[j] + half_q * Ge[j])
                       for j in range(m)) for i in range(m))


def _basis(m, i, t=1):
    """t v_i in Q^m."""
    return tuple(frac(t) if k == i else Fraction(0) for k in range(m))


def _rank1_vector(flag: CuspFlag, params):
    """a = y3 v1 + y1 v3 + y4 from rank-1 params (y1, y3, y4vec)."""
    if len(params) != 3 or isinstance(params[0], (tuple, list)) \
            or isinstance(params[1], (tuple, list)):
        raise WrongFlagKind("rank-1 params are (y1, y3, y4vec)")
    y4 = la.vec(params[2])
    if len(y4) != flag.n - 2:
        raise WrongFlagKind("y4 must have length n-2")
    return la.vec((0, params[1], 0, params[0])) + y4


def build_unipotent(flag: CuspFlag, params):
    """Unipotent element from its free parameters.

    rank-1: params = (y1, y3, y4vec), the element E(v0, y3 v1 + y1 v3 + y4);
    rank-2: params = (y4vec, z4vec, x3), the element
    E(v1, z4) E(v0, y4 - x3 v1).
    """
    m, G = flag.lattice.rank, flag.lattice.gram
    if flag.kind == RANK1:
        return _eichler(G, _basis(m, 0), _rank1_vector(flag, params))
    if len(params) != 3:
        raise WrongFlagKind("rank-2 params are (y4vec, z4vec, x3)")
    y4, z4, x3 = la.vec(params[0]), la.vec(params[1]), frac(params[2])
    if len(y4) != m - 4 or len(z4) != m - 4:
        raise WrongFlagKind("y4, z4 must have length n-2")
    return la.mat_mul(_eichler(G, _basis(m, 1), la.vec((0, 0, 0, 0)) + z4),
                      _eichler(G, _basis(m, 0), la.vec((0, -x3, 0, 0)) + y4))


def unipotent_params(flag: CuspFlag, g):
    """Free parameters of a unipotent-radical element (no validation)."""
    y4 = tuple(row[2] for row in g[4:])
    if flag.kind == RANK1:
        return (g[3][2], g[1][2], y4)
    return (y4, tuple(row[3] for row in g[4:]), g[0][3])


def is_in_unipotent(g, flag: CuspFlag) -> bool:
    """Pattern match against the displayed shape plus the isometry condition."""
    g = la.mat(g)
    return len(g) == flag.lattice.rank \
        and la.mat_eq(g, build_unipotent(flag, unipotent_params(flag, g))) \
        and la.preserves_form(g, flag.lattice.gram)


def center_element(flag: CuspFlag, w1):
    """Element E(v0, w1 v1) of the centre U_alpha (rank-2 flags)."""
    if flag.kind != RANK2:
        raise WrongFlagKind("centre parametrized by w1 only for rank-2 flags")
    m = flag.lattice.rank
    return _eichler(flag.lattice.gram, _basis(m, 0), _basis(m, 1, w1))


def omega_member(u, flag: CuspFlag) -> bool:
    """The displayed cone inequalities on centre coordinates."""
    if flag.kind == RANK1:
        if len(u) != 3:
            raise WrongFlagKind("rank-1 cone coordinates are (y1, y3, y4vec)")
        y1, y3 = frac(u[0]), frac(u[1])
        y4 = la.vec(u[2]) if not isinstance(u[2], (int, Fraction)) else la.vec([u[2]])
        A = flag.block
        if len(y4) != len(A):
            raise WrongFlagKind("y4 must match the block size")
        return y1 * y3 + Fraction(1, 2) * la.form(A, y4, y4) > 0 and y3 > 0
    if len(u) != 1:
        raise WrongFlagKind("rank-2 cone coordinate is (w1,)")
    return frac(u[0]) > 0


def chart_coords(flag: CuspFlag, v):
    """Boundary-chart coordinates of an ambient point with v2-coordinate != 0.

    rank-1: (v3/v2, v1/v2, v4/v2, ...) ordered to match the centre's
    (y1, y3, y4) labels.  rank-2 uses the same tuple; its first entry is
    the F_alpha = upper-half-plane coordinate.
    """
    if not v[2]:
        raise NotInParabolic("chart requires a nonzero v2 coordinate")
    w = [x / v[2] for x in v]
    return (w[3], w[1]) + tuple(w[4:])


def phi_alpha(p, flag: CuspFlag):
    """The displayed projection B_alpha -> U_alpha.

    p is a chart tuple (see chart_coords).  rank-1 output: (y1, y3, y4vec)
    = componentwise imaginary parts; rank-2 output: the single coordinate
    (2 Im(y1) Im(y3) + Im(y4)^t A Im(y4),).
    """
    im = tuple(c.imag for c in p)
    if flag.kind == RANK1:
        return (im[0], im[1], tuple(im[2:]))
    A = flag.block
    val = 2 * im[0] * im[1] + la.form(A, im[2:], im[2:])
    return (val,)


def stabilizes_flag(g, flag: CuspFlag) -> bool:
    """g is an isometry of the lattice that keeps the flag."""
    m = flag.lattice.rank
    cols = la.transpose(g)
    if flag.kind == RANK1:
        ok = all(cols[0][i] == 0 for i in range(1, m)) and cols[0][0] != 0
    else:
        ok = all(cols[j][i] == 0 for j in (0, 1) for i in range(2, m)) \
            and la.rank([cols[0][:2], cols[1][:2]]) == 2
    return ok and la.preserves_form(g, flag.lattice.gram)


def levi_project(g, flag: CuspFlag):
    """Levi pieces (h_part, ell_part) of an element of P_alpha.

    rank-1: h_part is None (trivial F_alpha), ell_part = (a, M) with a the
    G_m factor and M the induced map on U = e1-perp / e1.
    rank-2: h_part = the 2x2 block acting on F_alpha (a class in PGL2),
    ell_part = its determinant.
    """
    g = la.mat(g)
    if not stabilizes_flag(g, flag):
        raise NotInParabolic("element does not stabilize the flag")
    m = flag.lattice.rank
    if flag.kind == RANK1:
        a = g[0][0]
        idx = [1, 3] + list(range(4, m))
        M = la.mat([[g[i][j] for j in idx] for i in idx])
        return (None, (a, M))
    h = la.mat([[g[0][0], g[0][1]], [g[1][0], g[1][1]]])
    return (h, la.determinant(h))


def levi_cone_action(g, flag: CuspFlag, u):
    """Action of rho_l(g) on centre coordinates, for g in P_alpha.

    g E(v0, a) g^-1 = E(g v0, g a) = E(v0, g[0][0] g a) at rank 1, and
    g E(v0, w1 v1) g^-1 = E(v0, det(g on span(v0, v1)) w1 v1) at rank 2.
    """
    g = la.mat(g)
    if not stabilizes_flag(g, flag):
        raise NotInParabolic("element does not stabilize the flag")
    if flag.kind == RANK1:
        b = [g[0][0] * x for x in la.mat_vec(g, _rank1_vector(flag, u))]
        return (b[3], b[1], tuple(b[4:]))
    return ((g[0][0] * g[1][1] - g[0][1] * g[1][0]) * frac(u[0]),)


@dataclass(frozen=True)
class AdjacencyRecord:
    """Inclusion of the rank-2 centre into a rank-1 centre, plus the ray."""

    inclusion: tuple  # image of w1 = 1 in (y1, y3, y4vec) coordinates
    ray: tuple
    ray_is_isotropic: bool


def adjacency_data(f2: CuspFlag, f1_generator):
    """Adjacency data for a rank-1 line inside the standard rank-2 plane.

    f1_generator is a primitive vector of rank integer coordinates (else
    ValueError); returns None when the line does not lie in span(v0, v1).
    An SL2 change of basis of the plane moves the line to span(v0) and
    fixes the centre E(v0, w1 v1), which depends only on w1 v0^v1: every
    line gets the record of span(v0).
    """
    if f2.kind != RANK2:
        raise WrongFlagKind("first flag must be rank-2")
    c = center_element(f2, 1)
    if not la.preserves_form(c, f2.lattice.gram):
        raise UnsupportedShape("the centre of the rank-2 flag does not preserve the Gram "
                               "matrix: the lattice lacks the two-hyperbolic-planes shape")
    e = la.vec(f1_generator)
    if len(e) != f2.lattice.rank or any(x.denominator != 1 for x in e):
        raise ValueError(f"generator must have {f2.lattice.rank} integer coordinates")
    if any(e[2:]):
        return None
    if gcd(int(e[0]), int(e[1])) != 1:
        raise ValueError("generator must be primitive")
    y1, y3, y4 = unipotent_params(CuspFlag(RANK1, f2.lattice, f2.block), c)
    ray = la.primitive((y1, y3) + y4)
    qval = ray[0] * ray[1] + Fraction(1, 2) * la.form(f2.block, ray[2:], ray[2:])
    return AdjacencyRecord(inclusion=(y1, y3, y4), ray=ray, ray_is_isotropic=(qval == 0))
