"""Hilbert polynomial of the compact dual, local densities, HM volume.

Two printed conventions of the source material are corrected here and
flagged in every result: the compact-dual binomials are computed through
the adjunction difference of Euler characteristics on P^{n+1} (lower index
n+1, which makes chi(O) = 1), and the Gamma product uses Gamma(k/2)^{-1}
(the printed Gamma(-k/2) has poles at even k).  The proper-spinor-genus
size is a caller input (default 1, flagged).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import _linalg as la
from ._linalg import frac
from .errors import DeskScopeError, NotStabilized, WrongSignature
from .qform import QuadraticLattice, discriminant, signature

CONVENTION_GAMMA = "gamma-reciprocal: Gamma(k/2)^{-1} in place of the printed Gamma(-k/2)"
CONVENTION_BINOMIAL = "binomial-index: chi computed on P^{n+1} (printed lower index n fails chi(O)=1)"
CONVENTION_SPN = "spn-default: |spn^+(L)| taken as 1 (caller input)"
CONVENTION_WEIGHT = "geometric-weight: outputs use the geometric weight normalization"


def chi_projective_line_bundle(N: int, k) -> Fraction:
    """chi(P^N, O(k)) = binomial(N+k, N) as a polynomial in k (all integers)."""
    return _chi_poly_in_ell(N, 0, k)[0]


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _chi_poly_in_ell(N: int, a, b):
    """Coefficients of chi(P^N, O(a*ell + b)) as a polynomial in ell."""
    poly = [Fraction(1)]
    for j in range(1, N + 1):
        poly = _poly_mul(poly, [frac(b) + j, frac(a)])
    fact = Fraction(1, math.factorial(N))
    return [c * fact for c in poly]


@dataclass(frozen=True)
class HilbertPolyDual:
    """Hilbert polynomial of the quadric compact dual for signature (2, n)."""

    n: int
    coeffs: tuple  # ascending powers of ell

    def evaluate(self, ell) -> Fraction:
        x = frac(ell)
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    @property
    def degree(self) -> int:
        return max(i for i, c in enumerate(self.coeffs) if c) if any(self.coeffs) else 0

    conventions = (CONVENTION_BINOMIAL,)


def hilbert_poly_dual(n: int) -> HilbertPolyDual:
    """P(ell) = chi(O_{P^{n+1}}(-n ell)) - chi(O_{P^{n+1}}(-n ell - 2))."""
    if n < 1:
        raise ValueError("need n >= 1")
    a = _chi_poly_in_ell(n + 1, -n, 0)
    b = _chi_poly_in_ell(n + 1, -n, -2)
    coeffs = [x - y for x, y in zip(a, b)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return HilbertPolyDual(n=n, coeffs=tuple(coeffs))


@dataclass(frozen=True)
class LocalDensityResult:
    p: int
    k_stable: int
    alpha_p: Fraction
    counts: tuple  # (k, N_{p^k}) pairs actually computed


_DESK_SCAN_BUDGET = 4_000_000


def local_density(L: QuadraticLattice, p: int, k_max: int = 4) -> LocalDensityResult:
    """alpha_p(L, L) by exact congruence counting.

    N_{p^k} = #{X mod p^k : X^t A X = A mod p^k}, counted by column
    backtracking over (Z/p^k)^m; the density N_{p^k} / p^{k m(m-1)/2} is
    returned once two consecutive k agree.  This is the normative oracle;
    p = 2, degenerate Gram matrices and k with p^{k m^2} beyond the scan
    budget are refused rather than extrapolated.
    """
    if p == 2:
        raise DeskScopeError("p = 2 local densities are outside desk scope")
    if L.den != 1:
        raise DeskScopeError("congruence counting needs an integral Gram matrix")
    signature(L)  # refuses a singular Gram
    m, A = L.rank, L.scaled_gram
    densities = []
    counts = []
    for k in range(1, k_max + 1):
        mod = p**k
        if mod ** (m * m) > _DESK_SCAN_BUDGET:
            break
        count = _count_gram_preservers(A, m, mod)
        counts.append((k, count))
        densities.append(Fraction(count, mod ** (m * (m - 1) // 2)))
        if len(densities) >= 2 and densities[-1] == densities[-2]:
            return LocalDensityResult(p=p, k_stable=k - 1, alpha_p=densities[-1],
                                      counts=tuple(counts))
    raise NotStabilized(
        f"densities [{', '.join(map(str, densities))}] did not stabilize "
        f"by k_max={k_max} within the scan budget"
    )


def _count_gram_preservers(A, m, mod) -> int:
    """#{X mod `mod` : X^t A X = A mod `mod`}, by column backtracking."""
    box = itertools.product(range(mod), repeat=m)
    return sum(1 for _ in la.gram_preservers(A, box, mod))


@dataclass(frozen=True)
class HMVolumeResult:
    """Hirzebruch-Mumford volume with its symbolic factorization.

    value = rational_part * pi**pi_power * sqrt(sqrt_arg), where
    rational_part carries the exact alpha_infinity input and alpha_inf is
    that input as a float.
    """

    value: float
    rational_part: Fraction
    pi_power: int
    sqrt_arg: Fraction
    alpha_inf: float
    conventions: tuple


def gamma_half_reciprocal_product(count: int):
    """prod_{k=1}^{count} pi^{k/2} / Gamma(k/2) as (rational, pi_power).

    Odd k: pi^{k/2}/Gamma(k/2) = 2^{(k-1)/2} / (k-2)!! * pi^{(k-1)/2};
    even k: pi^{k/2} / (k/2 - 1)!.
    """
    rational = Fraction(1)
    pi_power = 0
    for k in range(1, count + 1):
        if k % 2 == 0:
            rational /= math.factorial(k // 2 - 1)
            pi_power += k // 2
        else:
            rational *= Fraction(2 ** ((k - 1) // 2), math.prod(range(k - 2, 0, -2)))
            pi_power += (k - 1) // 2
    return rational, pi_power


def alpha_inf_from_densities(densities, spn_plus: int = 1) -> Fraction:
    """alpha_infinity = 2 / |spn^+(L)| * prod alpha_p^{-1}."""
    out = Fraction(2, spn_plus)
    for d in densities:
        a = d.alpha_p if isinstance(d, LocalDensityResult) else frac(d)
        out /= a
    return out


def hm_volume(L: QuadraticLattice, alpha_inf, spn_flagged: bool = False) -> HMVolumeResult:
    """Vol_HM = alpha_inf * |D(L)|^{(n+3)/2} * prod_{k<=n+2} pi^{k/2}/Gamma(k/2).

    DeskScopeError when the volume or alpha_inf is not a finite float > 0.
    """
    r, s = signature(L)
    if r != 2 or s < 1:
        raise WrongSignature(f"signature {(r, s)} is not (2, n) with n >= 1")
    n = s
    absD = abs(discriminant(L))
    rational, pi_power = gamma_half_reciprocal_product(n + 2)
    e = n + 3
    rational *= absD ** (e // 2)
    sqrt_arg = absD if e % 2 else Fraction(1)
    conventions = [CONVENTION_GAMMA, CONVENTION_BINOMIAL, CONVENTION_WEIGHT]
    if spn_flagged:
        conventions.append(CONVENTION_SPN)
    alpha = frac(alpha_inf)
    rational *= alpha
    try:
        value = float(rational) * math.pi**pi_power * math.sqrt(float(sqrt_arg))
        alpha_float = float(alpha)
    except OverflowError:
        value = alpha_float = math.inf
    if not (0 < value < math.inf and 0 < alpha_float < math.inf):
        raise DeskScopeError(f"volume {value!r} and alpha_inf {alpha_float!r} "
                             "must be finite floats > 0")
    return HMVolumeResult(
        value=value,
        rational_part=rational,
        pi_power=pi_power,
        sqrt_arg=sqrt_arg,
        alpha_inf=alpha_float,
        conventions=tuple(conventions),
    )


@dataclass(frozen=True)
class LeadingDimension:
    """Leading (boundary-free) part of dim S_ell: Vol_HM * P(ell - 1).

    The boundary error term is available only symbolically (module chern);
    this value omits it, explicitly.
    """

    ell: int
    hilbert_value: Fraction
    value: float
    conventions: tuple


def leading_dimension(n: int, ell: int, vol: HMVolumeResult) -> LeadingDimension:
    """DeskScopeError when the leading value, which may be negative, is not
    a finite float."""
    if ell < 2:
        raise ValueError("the proportionality formula needs ell >= 2")
    P = hilbert_poly_dual(n)
    hv = P.evaluate(ell - 1)
    try:
        value = vol.value * float(hv)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DeskScopeError("the leading value overflows a float")
    return LeadingDimension(
        ell=ell,
        hilbert_value=hv,
        value=value,
        conventions=tuple(sorted(set(vol.conventions) | {CONVENTION_BINOMIAL})),
    )
