"""The three explicit models of the O(2,n) domain and the maps between them.

Models: projective (class [v] on the zero quadric with b(v, conj v) > 0),
tube (y in U(C) with q(Im y) > 0), bounded (z subject to the two displayed
inequalities).  Two numeric backends: exact Gaussian rationals and complex
doubles.  Both offer .real, .imag, .conjugate() and arithmetic with int and
Fraction, so each conversion below is one formula for both; the backend of
a point is the type of its coordinates.  _zero is the predicates' one
refusal rule: a float within tol of 0 raises NearBoundary, an exact number
is zero or not.  The linear algebra is _linalg's (form, mat_vec,
identity); a BoundedFrame tests the shape once, by qform.atilde_block, and
keeps its block in a_prime.  Of the 11 bare ValueErrors here the CLI
reaches only Frame.__init__'s 3, through cli._parse_point, which reports
them as usage errors; the 8 in in_kappa, grass_plane_from_vectors,
circle_action_matrix and oplus_sign are library-only.

Conventions pinned by the exact test suite:
  * kappa^+ is the component with Im(first tube coordinate) > 0.
  * In the bounded-model formulas the quadratic term of the y1, y2
    numerators enters through (1/2) z^t A' z; using the raw matrix product
    breaks q(Psi(z)) = 0 and Psi = psi o Upsilon, which are normative.
  * r(y) = q_U(y) / q_Atilde(y') with y' the displayed auxiliary vector;
    this satisfies r(Upsilon(z)) = 1 - 2 z1 - (1/2) z^t A' z exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import _linalg as la
from .errors import (
    BoundaryPoint,
    NearBoundary,
    SingularDenominator,
    UnsupportedShape,
)
from .gaussian import I, GaussianRational, abs2
from .qform import QuadraticLattice, atilde_block, diagonalize


class KappaClass(Enum):
    OUTSIDE = "outside"
    PLUS = "plus_component"
    MINUS = "minus_component"


HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def _i(x):
    """The imaginary unit on the backend of the coordinate x."""
    return I if isinstance(x, GaussianRational) else 1j


class Frame:
    """Ambient lattice with a fixed isotropic split (e1, e2, basis of U)."""

    def __init__(self, lattice: QuadraticLattice, e1, e2, u_basis):
        self.lattice = lattice
        self.e1 = la.vec(e1)
        self.e2 = la.vec(e2)
        self.u_basis = tuple(la.vec(u) for u in u_basis)
        if lattice.quadratic(self.e1) != 0:
            raise ValueError("e1 must be isotropic")
        if lattice.bilinear(self.e1, self.e2) != 1:
            raise ValueError("b(e1, e2) must equal 1")
        for u in self.u_basis:
            if lattice.bilinear(u, self.e1) != 0 or lattice.bilinear(u, self.e2) != 0:
                raise ValueError("u_basis must be orthogonal to e1 and e2")
        self.q_e2 = lattice.quadratic(self.e2)
        self.u_gram = la.mat(
            [[lattice.bilinear(a, b) for b in self.u_basis] for a in self.u_basis]
        )
        self._u_gram_inv = la.inverse(self.u_gram)
        self._to_ambient = la.transpose((self.e1, self.e2, *self.u_basis))

    @property
    def n(self) -> int:
        return len(self.u_basis)

    def bilinear_c(self, x, y):
        """C-bilinear extension of b to complex coordinate vectors."""
        return la.form(self.lattice.gram, y, x)

    def quadratic_c(self, x):
        return self.bilinear_c(x, x)

    def q_u(self, y):
        """Tube quadratic form on U-coordinates (C-bilinear)."""
        return la.form(self.u_gram, y, y)

    def ambient_from_tube(self, a, b, y):
        """Coordinates of a*e1 + b*e2 + sum y_i u_i in the lattice basis."""
        return la.mat_vec(self._to_ambient, (a, b, *y))

    def tube_coords_of(self, v):
        """U-coordinates of the U-component of an ambient complex vector."""
        pairings = [la.form(self.lattice.gram, u, v) for u in self.u_basis]
        return la.mat_vec(self._u_gram_inv, pairings)

    def e2_coefficient(self, v):
        """Coefficient of e2 in v, i.e. b(v, e1)."""
        return la.form(self.lattice.gram, self.e1, v)


@dataclass(frozen=True)
class _ModelPoint:
    """Coordinates in one model over a frame; their type is the backend."""

    coords: tuple
    frame: Frame


class ProjPoint(_ModelPoint):
    """A representative of a class [v] in the projective model."""


class TubePoint(_ModelPoint):
    """U-coordinates of a point of the tube domain."""


class BoundedPoint(_ModelPoint):
    """Coordinates of a point of the bounded model; frame is a BoundedFrame."""


class BoundedFrame(Frame):
    """Frame for a lattice in the two-hyperbolic-planes shape.

    The bounded-model Gram A' is diag(-2,-2) + A where A is the corner
    block; the associated tube split is e1 = v0, e2 = v2 with
    U = span(v1, v3, v4, ...).
    """

    def __init__(self, lattice: QuadraticLattice):
        A = atilde_block(lattice)
        if A is None:
            raise UnsupportedShape("bounded model needs the two-hyperbolic-planes shape")
        m = lattice.rank
        unit = la.identity(m)
        super().__init__(lattice, unit[0], unit[2], [unit[k] for k in (1, 3, *range(4, m))])
        pad = [0] * len(A)
        self.a_prime = la.mat([[-2, 0, *pad], [0, -2, *pad]] + [[0, 0, *row] for row in A])

    def q_a_prime(self, z):
        return la.form(self.a_prime, z, z)

    def h_a_prime(self, z):
        """Hermitian-type pairing z A' conj(z)^t (real-valued)."""
        return la.form(self.a_prime, [x.conjugate() for x in z], z).real


def standard_bounded_frame(n: int, block=None) -> BoundedFrame:
    from .qform import standard_atilde

    return BoundedFrame(standard_atilde(n, block))


def _zero(x, tol, what) -> bool:
    """The one refusal rule: exact x (tol None) is zero or not; a float x
    within tol of 0 raises NearBoundary, any other is not zero."""
    if tol is None:
        return not x
    if abs(x) <= tol:
        raise NearBoundary(f"{what} within tolerance of 0")
    return False


def _coerce(v, tol):
    """(v, None) for exact input, every entry an int, Fraction or
    GaussianRational or the first a GaussianRational, with v holding only
    GaussianRational entries; (v, tol) for float input."""
    if all(isinstance(x, (int, Fraction, GaussianRational)) for x in v) \
            or isinstance(v[0], GaussianRational):
        return tuple(x if isinstance(x, GaussianRational) else GaussianRational(x)
                     for x in v), None
    return v, tol


def in_kappa(v, frame: Frame, tol: float = 0.0) -> KappaClass:
    """Classify v against kappa and its components.

    Exact input is decided exactly.  Float input is normalized by its
    largest coordinate and refused by _zero or when q(v) and b(v, conj v)
    are both within tol of 0.  That joint refusal leaves no need of one for
    b(v, conj v) alone, which only |q(v)| <= tol would reach (or a NaN q(v),
    from overflow on Gram entries near the largest double; b(v, conj v)
    then decides).
    """
    v, tol = _coerce(v, tol)
    if not any(v):
        raise ValueError("v must be nonzero")
    if tol is not None:
        scale = max(abs(x) for x in v)
        v = tuple(x / scale for x in v)
    q = frame.quadratic_c(v)
    bvv = frame.bilinear_c(v, tuple(x.conjugate() for x in v)).real
    if tol is not None and abs(q) <= tol and abs(bvv) <= tol:
        raise NearBoundary("q(v) and b(v, conj v) both within tolerance of 0")
    if (q if tol is None else abs(q) > tol) or bvv <= 0:
        return KappaClass.OUTSIDE
    beta = frame.e2_coefficient(v)
    # on kappa the e2 coefficient never vanishes
    if _zero(beta, tol, "normalizing coordinate"):
        return KappaClass.OUTSIDE
    im1 = frame.tube_coords_of(tuple(x / beta for x in v))[0].imag
    _zero(im1, tol, "component test")
    return KappaClass.PLUS if im1 > 0 else KappaClass.MINUS


def in_tube(y, frame: Frame) -> bool:
    """Membership in H_q^+ : q(Im y) > 0 and Im(first coordinate) > 0."""
    imv = tuple(c.imag for c in y)
    return la.form(frame.u_gram, imv, imv) > 0 and imv[0] > 0


def psi(y: TubePoint) -> ProjPoint:
    """Tube -> projective: [ -1/2 (q_U(y) + q(e2)) : 1 : y ]."""
    frame = y.frame
    a = -(frame.q_u(y.coords) + frame.q_e2) * HALF
    return ProjPoint(frame.ambient_from_tube(a, 1, y.coords), frame)


def psi_inv(p: ProjPoint, tol: float = 0.0) -> TubePoint:
    """Projective -> tube; BoundaryPoint when the e2 coefficient vanishes."""
    frame = p.frame
    beta = frame.e2_coefficient(p.coords)
    if not beta or not isinstance(p.coords[0], GaussianRational) and abs(beta) <= tol:
        raise BoundaryPoint("point lies on the hyperplane b(v, e1) = 0")
    w = tuple(x / beta for x in p.coords)
    return TubePoint(frame.tube_coords_of(w), frame)


@dataclass(frozen=True)
class GrassPlane:
    """Positive-definite 2-plane spanned by X, Y with b(X, Y) = 0."""

    x: tuple
    y: tuple
    lattice: QuadraticLattice

    @property
    def is_normalized(self) -> bool:
        return (
            self.lattice.bilinear(self.x, self.y) == 0
            and self.lattice.quadratic(self.x) == self.lattice.quadratic(self.y)
            and self.lattice.quadratic(self.x) > 0
        )

    def same_plane(self, other: "GrassPlane") -> bool:
        rows = [self.x, self.y, other.x, other.y]
        return la.rank(rows) == 2


def grass_plane_from_vectors(X, Y, lattice: QuadraticLattice) -> GrassPlane:
    """Orthogonalize and, when the norm ratio is a rational square, rescale
    to equal norms (the canonical normalization)."""
    X = la.vec(X)
    Y = la.vec(Y)
    qx = lattice.quadratic(X)
    if qx <= 0:
        raise ValueError("plane must be positive definite")
    Y = la.vec_sub(Y, la.vec_scale(lattice.bilinear(X, Y) / qx, X))
    qy = lattice.quadratic(Y)
    if qy <= 0:
        raise ValueError("plane must be positive definite")
    ratio = qx / qy
    root = _rational_sqrt(ratio)
    if root is not None:
        Y = la.vec_scale(root, Y)
    return GrassPlane(X, Y, lattice)


def _rational_sqrt(r: Fraction):
    from math import isqrt

    if r < 0:
        return None
    num, den = r.numerator, r.denominator
    a, b = isqrt(num), isqrt(den)
    if a * a == num and b * b == den:
        return Fraction(a, b)
    return None


def grass_of(p: ProjPoint) -> GrassPlane:
    """[v] -> span(Re v, Im v); independent of the representative."""
    X = tuple(c.real for c in p.coords)
    Y = tuple(c.imag for c in p.coords)
    return GrassPlane(la.vec(X), la.vec(Y), p.frame.lattice)


def upsilon(z: BoundedPoint) -> TubePoint:
    """Bounded -> tube via the displayed formulas (1/2-normalized Q)."""
    frame = z.frame
    z1, z2 = z.coords[0], z.coords[1]
    i = _i(z1)
    Q = frame.q_a_prime(z.coords)
    s = 1 - 2 * z1 - HALF * Q
    if not s:
        raise SingularDenominator("s(z) = 0")
    iQh = i * (Q * HALF)
    y1 = (i + 2 * z2 + iQh) / s
    y2 = (i - 2 * z2 + iQh) / s
    rest = tuple((2 * zi) / s for zi in z.coords[2:])
    return TubePoint((y1, y2) + rest, frame)


def tube_r(y: TubePoint):
    """The normalizing scalar r(y) = q_U(y) / q_Atilde(y').

    y' is the displayed auxiliary vector with its trailing block halved
    (y3/2, matching the 1/4-pattern of the leading entries); this is the
    unique reading under which r(Upsilon(z)) = 1 - 2 z1 - (1/2) z A' z^t
    holds identically, which the acceptance suite asserts.
    """
    frame = y.frame
    y1, y2 = y.coords[0], y.coords[1]
    qU = frame.q_u(y.coords)
    W = _i(y1) * (y1 + y2) + qU
    d = (y1 - y2) * QUARTER
    yprime = (W * QUARTER, d, -(W * QUARTER), -d) + tuple(yi * HALF for yi in y.coords[2:])
    denom = frame.quadratic_c(yprime)
    if not denom:
        raise SingularDenominator("(y') Atilde (y')^t = 0")
    return qU / denom


def upsilon_inv(y: TubePoint) -> BoundedPoint:
    """Tube -> bounded; dependent formulas pinned by the round trip."""
    if not isinstance(y.frame, BoundedFrame):
        raise UnsupportedShape("upsilon_inv needs a bounded (Atilde-shaped) frame")
    r = tube_r(y)
    y1, y2 = y.coords[0], y.coords[1]
    z1 = r * (_i(y1) * (y1 + y2) - 2) * QUARTER + 1
    z2 = r * (y1 - y2) * QUARTER
    rest = tuple(r * yi * HALF for yi in y.coords[2:])
    return BoundedPoint((z1, z2) + rest, y.frame)


def psi_bounded(z: BoundedPoint) -> ProjPoint:
    """Psi: bounded -> projective, landing on the zero quadric."""
    frame = z.frame
    z1, z2 = z.coords[0], z.coords[1]
    i = _i(z1)
    Qh = frame.q_a_prime(z.coords) * HALF
    pad = [0] * (frame.lattice.rank - 4)
    base = [1, i, 1, i] + pad
    shift = [2 * z1, 2 * z2, -2 * z1, -2 * z2] + [2 * zi for zi in z.coords[2:]]
    corr = [Qh, -(i * Qh), Qh, -(i * Qh)] + pad
    coords = tuple(b + s - c for b, s, c in zip(base, shift, corr))
    return ProjPoint(coords, frame)


def in_bounded(z, frame: BoundedFrame, tol: float = 0.0) -> bool:
    """Evaluate the two displayed inequalities for the bounded model."""
    z, tol = _coerce(z, tol)
    q2 = abs2(frame.q_a_prime(z))
    c1, c2 = 4 + 4 * frame.h_a_prime(z) + q2, 4 - q2
    _zero(c1, tol, "bounded-domain inequality")
    _zero(c2, tol, "bounded-domain inequality")
    return c1 > 0 and c2 > 0


def circle_action_matrix(plane: GrassPlane, r=1, cos_sin_2theta=None, theta=None):
    """Matrix of h(r e^{i theta}): the displayed rotation-scaling on the
    plane, identity on its orthogonal complement.

    Exact callers pass cos_sin_2theta = (cos 2theta, sin 2theta) as
    rationals with c^2 + s^2 = 1; float callers pass theta.  X - iY is the
    r^2 e^{2 i theta} eigenvector.
    """
    if not plane.is_normalized:
        raise ValueError("plane must be normalized (equal norms, orthogonal)")
    if cos_sin_2theta is None:
        if theta is None:
            raise ValueError("supply cos_sin_2theta or theta")
        import math

        c, s = math.cos(2 * theta), math.sin(2 * theta)
    else:
        c, s = la.frac(cos_sin_2theta[0]), la.frac(cos_sin_2theta[1])
        if c * c + s * s != 1:
            raise ValueError("cos^2 + sin^2 must equal 1 exactly")
    r2 = la.frac(r) * la.frac(r) if cos_sin_2theta is not None else float(r) ** 2
    L = plane.lattice
    X, Y = plane.x, plane.y
    qn = L.quadratic(X)
    # I + dX lam^t + dY mu^t with lam = G X / q(X), mu = G Y / q(X)
    lam = [t / qn for t in la.mat_vec(L.gram, X)]
    mu = [t / qn for t in la.mat_vec(L.gram, Y)]
    dX = [r2 * (c * x + s * y) - x for x, y in zip(X, Y)]
    dY = [r2 * (-s * x + c * y) - y for x, y in zip(X, Y)]
    return la.mat([[e + l * a + u * b for e, l, u in zip(row, lam, mu)]
                   for row, a, b in zip(la.identity(L.rank), dX, dY)])


def is_isometry(g, lattice: QuadraticLattice) -> bool:
    return la.preserves_form(g, lattice.gram)


def oplus_sign(g, lattice: QuadraticLattice) -> int:
    """+1 when g preserves the orientation of positive-definite planes.

    This is the O^+ membership test of the projective-model discussion:
    compare an oriented basis of a reference positive plane with its image
    through the bilinear pairing.
    """
    diag, T = diagonalize(lattice)
    pos = [j for j, d in enumerate(diag) if d > 0]
    if len(pos) < 2:
        raise ValueError("form has no positive-definite plane")
    cols = la.transpose(T)
    X, Y = cols[pos[0]], cols[pos[1]]
    g = la.mat(g)
    gX, gY = la.mat_vec(g, X), la.mat_vec(g, Y)
    M = la.mat(
        [
            [lattice.bilinear(X, gX), lattice.bilinear(X, gY)],
            [lattice.bilinear(Y, gX), lattice.bilinear(Y, gY)],
        ]
    )
    d = la.determinant(M)
    if d == 0:
        raise ValueError("degenerate orientation pairing")
    return 1 if d > 0 else -1
