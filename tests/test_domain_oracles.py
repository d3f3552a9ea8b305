"""The domain-model predicates against the code they replaced.

reference_in_kappa, reference_in_bounded and reference_psi_inv are
in_kappa, in_bounded and psi_inv as they were when each predicate carried
an exact flag and tested a private _near beside every float refusal, and
psi_inv asked the point for its backend.  They are kept only as oracles:
every comparison is of outcomes, the returned class, answer or
coordinates, or the exception's type and message.  The outcomes agree
except where q(v) overflows to NaN, pinned by its own test below, and
where the rule changed on purpose: float input with a coordinate that is
not finite is refused (ValueError), which the references decided, and a
point whose coordinates are all int, Fraction or GaussianRational is
exact, which reference_psi_inv read in doubles unless its first
coordinate was a GaussianRational.  Such a point is compared with its
GaussianRational copy, which every reference reads exactly.

The frames are two of the two-hyperbolic-planes shape, the split
H + diag(1, -1), and a split of diag(1, 1, 1, -1), which is not of
signature (2, n): only there can an exact point on the quadric with
b(v, conj v) > 0 have e2 coefficient 0 or a real first tube coordinate.
"""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthocusp.domains import (
    BoundedPoint,
    Frame,
    KappaClass,
    ProjPoint,
    TubePoint,
    in_bounded,
    in_kappa,
    psi,
    psi_bounded,
    psi_inv,
    standard_bounded_frame,
    tube_r,
    upsilon,
    upsilon_inv,
)
from orthocusp.errors import BoundaryPoint, NearBoundary, SingularDenominator
from orthocusp.gaussian import GaussianRational, abs2, as_gaussian
from orthocusp.qform import QuadraticLattice

ORACLE = settings(max_examples=300, deadline=None, derandomize=True)


def reference_near(x, tol) -> bool:
    return abs(x) <= tol


def reference_coerce(v):
    exact = all(isinstance(x, (int, Fraction, GaussianRational)) for x in v) \
        or isinstance(v[0], GaussianRational)
    if exact:
        v = tuple(x if isinstance(x, GaussianRational) else GaussianRational(x) for x in v)
    return v, exact


def reference_in_kappa(v, frame, tol=0.0):
    v, exact = reference_coerce(v)
    if not any(v):
        raise ValueError("v must be nonzero")
    if not exact:
        scale = max(abs(x) for x in v)
        v = tuple(x / scale for x in v)
    q = frame.quadratic_c(v)
    bvv = frame.bilinear_c(v, tuple(x.conjugate() for x in v)).real
    if exact and (q or bvv <= 0):
        return KappaClass.OUTSIDE
    if not exact:
        if reference_near(abs(q), tol) and reference_near(bvv, tol):
            raise NearBoundary("q(v) and b(v, conj v) both within tolerance of 0")
        if abs(q) > tol:
            return KappaClass.OUTSIDE
        if reference_near(bvv, tol):
            raise NearBoundary("b(v, conj v) within tolerance of 0")
        if bvv < 0:
            return KappaClass.OUTSIDE
    beta = frame.e2_coefficient(v)
    if exact and not beta:
        return KappaClass.OUTSIDE
    if not exact and reference_near(abs(beta), tol):
        raise NearBoundary("normalizing coordinate within tolerance of 0")
    w = tuple(x / beta for x in v)
    y = frame.tube_coords_of(w)
    im1 = y[0].imag
    if not exact and reference_near(im1, tol):
        raise NearBoundary("component test within tolerance of 0")
    return KappaClass.PLUS if im1 > 0 else KappaClass.MINUS


def reference_in_bounded(z, frame, tol=0.0):
    z, exact = reference_coerce(z)
    Q = frame.q_a_prime(z)
    h = frame.h_a_prime(z)
    q2 = abs2(Q)
    c1 = 4 + 4 * h + q2
    c2 = 4 - q2
    if not exact and (reference_near(c1, tol) or reference_near(c2, tol)):
        raise NearBoundary("bounded-domain inequality within tolerance of 0")
    return c1 > 0 and c2 > 0


def reference_psi_inv(p, tol=0.0):
    frame = p.frame
    beta = frame.e2_coefficient(p.coords)
    float_mode = not isinstance(p.coords[0], GaussianRational)
    if not beta or float_mode and abs(beta) <= tol:
        raise BoundaryPoint("point lies on the hyperplane b(v, e1) = 0")
    w = tuple(x / beta for x in p.coords)
    return TubePoint(frame.tube_coords_of(w), frame)


def is_exact(v):
    return all(isinstance(x, (int, Fraction, GaussianRational)) for x in v)


def gaussian(v):
    """An exact vector with every coordinate a GaussianRational; any other as it is."""
    return tuple(map(as_gaussian, v)) if is_exact(v) else tuple(v)


def outcome(f, *args):
    """f's answer, a point's coordinates as text (so NaN equals NaN; exact
    ones as GaussianRationals), or the type and message of what f raised."""
    try:
        out = f(*args)
    except Exception as e:
        return type(e), str(e)
    return repr(gaussian(out.coords)) if hasattr(out, "coords") else out


NOT_FINITE = (ValueError, "float coordinates must be finite")


def reference_outcome(reference, v, *args):
    """The reference's outcome on v, or the refusal of float input with a
    coordinate that is not finite, which the references decided."""
    if not is_exact(v) and not all(map(cmath.isfinite, v)):
        return NOT_FINITE
    return outcome(reference, v, *args)


def gaussian_point(p):
    """p with its exact coordinates as GaussianRationals."""
    return type(p)(gaussian(p.coords), p.frame)


SPLIT_3_1 = Frame(QuadraticLattice([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]),
                  (1, 0, 0, 1), (1, 0, 0, 0), [(0, 1, 0, 0), (0, 0, 1, 0)])
FRAMES = {
    "atilde2": standard_bounded_frame(2),
    "atilde3": standard_bounded_frame(3, [[-4]]),
    "hyperbolic": Frame(QuadraticLattice([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0],
                                          [0, 0, 0, -1]]),
                        (1, 0, 0, 0), (0, 1, 0, 0), [(0, 0, 1, 0), (0, 0, 0, 1)]),
    "split_3_1": SPLIT_3_1,
}
BOUNDED_FRAMES = ["atilde2", "atilde3"]

SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)
GAUSS = st.builds(GaussianRational, SMALL, SMALL)
TOLS = st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.5])
SPECIAL = st.sampled_from([complex(math.nan, 0), complex(0, math.nan), complex(math.inf, 1),
                           complex(1, -math.inf), complex(1e308, 1e308), complex(1e-320, 0)])


def as_complex(x):
    return complex(float(x.real), float(x.imag))


@st.composite
def exact_vectors(draw, frame, size):
    """A psi-image of an exact tube point times a Gaussian scalar, a random
    Gaussian vector, or a random real vector of ints and Fractions."""
    kind = draw(st.sampled_from(["image", "gaussian", "real"]))
    if kind == "image" and size == frame.lattice.rank:
        y = tuple(draw(st.lists(GAUSS, min_size=frame.n, max_size=frame.n)))
        c = draw(GAUSS.filter(bool))
        return tuple(c * x for x in psi(TubePoint(y, frame)).coords)
    if kind == "real":
        return tuple(draw(st.lists(st.one_of(SMALL, st.integers(-2, 2)),
                                   min_size=size, max_size=size)))
    return tuple(draw(st.lists(GAUSS, min_size=size, max_size=size)))


@st.composite
def float_vectors(draw, frame, size):
    """An exact vector in doubles, times a complex scalar, perturbed, and
    sometimes with one coordinate replaced by a non-finite or extreme one."""
    v = [as_complex(x) for x in draw(exact_vectors(frame, size))]
    scale = complex(draw(st.sampled_from([1.0, -3.5, 1e-150, 1e150])),
                    draw(st.sampled_from([0.0, 0.25, -2.0])))
    size_of = draw(st.sampled_from([0.0, 1e-15, 1e-10, 1e-6, 1e-3]))
    v = [scale * (x + size_of * complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1))))
         for x in v]
    if draw(st.integers(0, 4)) == 0:
        v[draw(st.integers(0, size - 1))] = draw(SPECIAL)
    return tuple(v)


@st.composite
def kappa_inputs(draw):
    frame = FRAMES[draw(st.sampled_from(sorted(FRAMES)))]
    vectors = draw(st.sampled_from([exact_vectors, float_vectors]))
    return draw(vectors(frame, frame.lattice.rank)), frame, draw(TOLS)


@st.composite
def bounded_inputs(draw):
    frame = FRAMES[draw(st.sampled_from(BOUNDED_FRAMES))]
    if draw(st.booleans()):
        # the image of a tube point near the base point (i, i, 0, ..), in the
        # tube or not
        y = [GaussianRational(0, 1)] * 2 + [GaussianRational(0)] * (frame.n - 2)
        y = tuple(a + b for a, b in zip(y, draw(st.lists(GAUSS, min_size=frame.n,
                                                         max_size=frame.n))))
        try:
            z = upsilon_inv(TubePoint(y, frame)).coords
        except SingularDenominator:
            z = y
    else:
        z = tuple(draw(st.lists(GAUSS, min_size=frame.n, max_size=frame.n)))
    if draw(st.booleans()):
        z = [as_complex(x) * complex(1 + draw(st.sampled_from([0.0, 1e-12, 1e-6])), 0)
             for x in z]
        if draw(st.integers(0, 4)) == 0:
            z[draw(st.integers(0, frame.n - 1))] = draw(SPECIAL)
        z = tuple(z)
    return z, frame, draw(TOLS)


@st.composite
def proj_points(draw):
    frame = FRAMES[draw(st.sampled_from(sorted(FRAMES)))]
    backend = draw(st.sampled_from(["exact", "float", "fraction"]))
    size = frame.lattice.rank
    if backend == "fraction":
        coords = tuple(Fraction(x) for x in draw(st.lists(SMALL, min_size=size,
                                                          max_size=size)))
    elif backend == "float":
        coords = draw(float_vectors(frame, size))
    else:
        coords = tuple(GaussianRational(x) if not isinstance(x, GaussianRational) else x
                       for x in draw(exact_vectors(frame, size)))
    return ProjPoint(coords, frame), draw(TOLS)


@ORACLE
@given(kappa_inputs())
def test_in_kappa_matches_reference(case):
    v, frame, tol = case
    assert outcome(in_kappa, v, frame, tol) == reference_outcome(reference_in_kappa, v, frame,
                                                                 tol)


@ORACLE
@given(bounded_inputs())
def test_in_bounded_matches_reference(case):
    z, frame, tol = case
    assert outcome(in_bounded, z, frame, tol) == reference_outcome(reference_in_bounded, z,
                                                                   frame, tol)


@ORACLE
@given(proj_points())
def test_psi_inv_matches_reference(case):
    p, tol = case
    assert outcome(psi_inv, p, tol) == outcome(reference_psi_inv, gaussian_point(p), tol)


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


ATILDE2 = FRAMES["atilde2"]
# X + iY with X = v0 - v2 and Y = v1 - v3: q(X) = q(Y) = -2 and b(X, Y) = 0
NEGATIVE_PLANE = (1, 1j, -1, -1j)
# in SPLIT_3_1 (e1 = (1,0,0,1), e2 = (1,0,0,0)): b(v, e1) = 0 on the quadric
SPLIT_BETA_ZERO = (gr(0), gr(1), gr(0, 1), gr(0))
# in SPLIT_3_1: (3/2) e1 + e2 + 2i u2, whose first tube coordinate is 0
SPLIT_REAL_Y1 = (gr("5/2"), gr(0), gr(0, 2), gr("3/2"))
JOINT = (NearBoundary, "q(v) and b(v, conj v) both within tolerance of 0")
NORMALIZING = (NearBoundary, "normalizing coordinate within tolerance of 0")
COMPONENT = (NearBoundary, "component test within tolerance of 0")


@pytest.mark.parametrize("v, frame, tol, expected", [
    ((1.0, 0j, 0j, 0j), ATILDE2, 1e-9, JOINT),
    ((1.0, 0j, 0j, 0j), ATILDE2, 0.0, JOINT),
    ((gr(1), gr(0), gr(0), gr(0)), ATILDE2, 1e-9, KappaClass.OUTSIDE),
    ((1.0, 1j, 1.0, 1.0), ATILDE2, 1e-9, KappaClass.OUTSIDE),
    (NEGATIVE_PLANE, ATILDE2, 1e-9, KappaClass.OUTSIDE),
    (tuple(gr(x.real, x.imag) for x in NEGATIVE_PLANE), ATILDE2, 0.0, KappaClass.OUTSIDE),
    # psi(10i, 10i) = (100, 10i, 1, 10i): scaled by 1/100, b(v, e1) = 0.01
    ((100.0, 10j, 1.0, 10j), ATILDE2, 0.02, NORMALIZING),
    # psi(0.001i, i) = (0.001, 0.001i, 1, i): Im y1 = 0.001, b(v, conj v) = 0.004
    ((1e-3, 1e-3j, 1.0, 1j), ATILDE2, 2e-3, COMPONENT),
    ((1e-3, 1e-3j, 1.0, 1j), ATILDE2, 1e-4, KappaClass.PLUS),
    (SPLIT_BETA_ZERO, SPLIT_3_1, 0.0, KappaClass.OUTSIDE),
    (tuple(map(as_complex, SPLIT_BETA_ZERO)), SPLIT_3_1, 1e-9, NORMALIZING),
    (SPLIT_REAL_Y1, SPLIT_3_1, 0.0, KappaClass.MINUS),
    (tuple(map(as_complex, SPLIT_REAL_Y1)), SPLIT_3_1, 1e-9, COMPONENT),
], ids=["joint-refusal", "joint-refusal-at-tol-0", "exact-real-isotropic", "q-off-quadric", "float-negative-plane",
        "exact-negative-plane", "normalizing-refusal", "component-refusal",
        "component-clear", "exact-beta-zero", "float-beta-zero", "exact-real-y1",
        "float-real-y1"])
def test_in_kappa_branches(v, frame, tol, expected):
    # each rule of in_kappa, reached and answered as the reference answers
    assert outcome(in_kappa, v, frame, tol) == outcome(reference_in_kappa, v, frame, tol) \
        == expected


@pytest.mark.parametrize("z, frame, tol, expected", [
    ((1.0, 0j, 0j), FRAMES["atilde3"], 1e-9,
     (NearBoundary, "bounded-domain inequality within tolerance of 0")),
    ((gr(1), gr(0), gr(0)), FRAMES["atilde3"], 1e-9, False),
    # (1/2, i/2): Q = 0 and h = -1 on the first inequality, far from the second
    ((0.5, 0.5j), ATILDE2, 1e-9,
     (NearBoundary, "bounded-domain inequality within tolerance of 0")),
    ((gr("1/2"), gr(0, "1/2")), ATILDE2, 1e-9, False),
    # (5/3, 4i/3): |Q| = 2 on the second inequality, far from the first
    ((5 / 3, 4j / 3), ATILDE2, 1e-9,
     (NearBoundary, "bounded-domain inequality within tolerance of 0")),
    ((gr("5/3"), gr(0, "4/3")), ATILDE2, 1e-9, False),
    ((0j, 0j), ATILDE2, 1e-9, True),
    ((gr(0), gr(0)), ATILDE2, 0.0, True),
], ids=["float-on-boundary", "exact-on-boundary", "float-on-first", "exact-on-first",
        "float-on-second", "exact-on-second",
        "float-inside", "exact-inside"])
def test_in_bounded_branches(z, frame, tol, expected):
    assert outcome(in_bounded, z, frame, tol) == outcome(reference_in_bounded, z, frame, tol) \
        == expected


ON_HYPERPLANE = (BoundaryPoint, "point lies on the hyperplane b(v, e1) = 0")


@pytest.mark.parametrize("coords, tol, expected", [
    ((gr(1), gr(0, 1), gr(0), gr(0)), 1e-9, ON_HYPERPLANE),
    ((1.0, 1j, 1e-12, 0j), 1e-9, ON_HYPERPLANE),
    ((Fraction(1), Fraction(0), Fraction(1, 10 ** 12), Fraction(0)), 1e-9,
     repr((gr(0), gr(0)))),
    ((Fraction(1), Fraction(0), Fraction(1, 10 ** 12), Fraction(0)), 0.0,
     repr((gr(0), gr(0)))),
    ((gr(1), gr(0, 1), gr(1), gr(0, 1)), 0.0, repr((gr(0, 1), gr(0, 1)))),
], ids=["exact-beta-zero", "float-beta-small", "fraction-beta-small", "fraction-clear",
        "exact-base-point"])
def test_psi_inv_branches(coords, tol, expected):
    # a Fraction point is exact: b(v, e1) = 10^-12 is not 0, whatever tol
    p = ProjPoint(coords, ATILDE2)
    assert outcome(psi_inv, p, tol) == outcome(reference_psi_inv, gaussian_point(p), tol) \
        == expected


def test_a_nan_q_is_judged_by_b_alone():
    # the one input class on which in_kappa leaves its reference: on
    # H + B + (-B), with B's entries near the largest double, q(v) is
    # inf - inf = NaN while b(v, conj v) is 0, so neither the joint refusal
    # nor |q| > tol fires.  The reference then raised its b(v, conj v)
    # refusal; in_kappa answers from b(v, conj v) <= 0.
    big = 15 * 10 ** 307
    block = [[0, big, -big], [big, 1, 0], [-big, 0, 1]]
    gram = [[0] * 8 for _ in range(8)]
    gram[0][1] = gram[1][0] = 1
    for i, row in enumerate(block):
        for j, x in enumerate(row):
            gram[2 + i][2 + j], gram[5 + i][5 + j] = x, -x
    unit = [tuple(int(i == k) for i in range(8)) for k in range(8)]
    frame = Frame(QuadraticLattice(gram), unit[0], unit[1], unit[2:])
    u = (complex(2 ** -0.5, -2 ** -0.5), 1.0 + 0j, -1j)
    v = (0j, 1.0 + 0j) + u + u
    assert math.isnan(frame.quadratic_c(v).real)
    assert outcome(reference_in_kappa, v, frame, 1e-9) == \
        (NearBoundary, "b(v, conj v) within tolerance of 0")
    assert outcome(in_kappa, v, frame, 1e-9) == KappaClass.OUTSIDE


@pytest.mark.parametrize("f, args", [
    (in_kappa, ((1.0, math.nan, 1.0, 1j), ATILDE2, 1e-9)),
    (in_kappa, ((math.nan, 1j, 1.0, 1j), ATILDE2, 1e-9)),
    (in_kappa, ((1.0, complex(0, math.inf), 1.0, 1j), ATILDE2, 1e-9)),
    (in_kappa, ((1.0, math.nan, 1.0, 1j), ATILDE2, None)),
    (in_bounded, ((math.nan, 0j), ATILDE2, 1e-9)),
    (in_bounded, ((0j, -math.inf), ATILDE2, 0.0)),
], ids=["kappa-nan-second", "kappa-nan-first", "kappa-inf", "kappa-nan-tol-none",
        "bounded-nan", "bounded-inf"])
def test_the_predicates_refuse_non_finite_float_input(f, args):
    # every comparison with NaN is False, so no rule could decide such input
    assert outcome(f, *args) == NOT_FINITE


INTS_AND_FRACTIONS = st.one_of(SMALL, st.integers(-2, 2))


@st.composite
def real_exact_points(draw):
    """(map, point): an int and Fraction point of a model that map reads."""
    name = draw(st.sampled_from(["upsilon", "psi_bounded", "tube_r", "upsilon_inv", "psi",
                                 "psi_inv"]))
    frames = sorted(FRAMES) if name in ("psi", "psi_inv") else BOUNDED_FRAMES
    frame = FRAMES[draw(st.sampled_from(frames))]
    kind, size = {"upsilon": (BoundedPoint, frame.n), "psi_bounded": (BoundedPoint, frame.n),
                  "psi_inv": (ProjPoint, frame.lattice.rank)}.get(name, (TubePoint, frame.n))
    coords = tuple(draw(st.lists(INTS_AND_FRACTIONS, min_size=size, max_size=size)))
    return name, kind(coords, frame)


MAPS = {"upsilon": upsilon, "psi_bounded": psi_bounded, "tube_r": tube_r,
        "upsilon_inv": upsilon_inv, "psi": psi, "psi_inv": lambda p: psi_inv(p, 0.5)}


@ORACLE
@given(real_exact_points())
@example(("upsilon", BoundedPoint((Fraction(1, 8), Fraction(1, 9)), ATILDE2)))
@example(("psi_bounded", BoundedPoint((Fraction(1, 8), Fraction(1, 9)), ATILDE2)))
def test_maps_read_an_int_and_fraction_point_as_its_gaussian_copy(case):
    # one exactness rule: the point's answer, refusal or image is its
    # GaussianRational copy's, and the image is exact
    name, p = case
    assert outcome(MAPS[name], p) == outcome(MAPS[name], gaussian_point(p))
    try:
        out = MAPS[name](p)
    except (BoundaryPoint, SingularDenominator):
        return
    assert is_exact(getattr(out, "coords", (out,)))
