"""Formal Chern / Todd / Riemann-Roch calculus on a truncated graded ring.

Classes live in a graded-commutative polynomial ring over Q with named
generators of fixed degree (c_i have degree i, boundary classes Delta_k
degree k); all products truncate above the ambient dimension.  The
splitting principle is used as a formal-root algebra in the tests, never
as geometry; intersection numbers always come from a caller-supplied
degree functional.

Every sum, product and power is formed by the ring's own + and *: sums
start from the ring's zero or unit, exp(x) is the truncated series, and
the log of a power series with a(0) = 1 follows its recurrence
k g_k = k f_k - sum_{j<k} j g_j f_{k-j}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod

from ._linalg import frac
from .errors import MissingIntersectionNumber

Monomial = tuple  # sorted tuple of (generator_name, exponent)


@dataclass(frozen=True)
class GradedClass:
    """Truncated graded polynomial: {monomial: coefficient} up to degree n."""

    terms: tuple  # tuple of (Monomial, Fraction), sorted
    degrees: tuple  # tuple of (generator_name, degree), sorted
    truncation: int

    @staticmethod
    def make(terms: dict, degrees: dict, truncation: int) -> "GradedClass":
        degs = dict(degrees)
        clean = {}
        for mono, coeff in terms.items():
            mono = tuple(sorted((g, e) for g, e in mono if e))
            c = frac(coeff)
            if not c:
                continue
            d = sum(degs[g] * e for g, e in mono)
            if d > truncation:
                continue
            clean[mono] = clean.get(mono, Fraction(0)) + c
        clean = {m: c for m, c in clean.items() if c}
        return GradedClass(
            terms=tuple(sorted(clean.items())),
            degrees=tuple(sorted(degs.items())),
            truncation=truncation,
        )

    @staticmethod
    def unit(degrees: dict, truncation: int) -> "GradedClass":
        return GradedClass.make({(): 1}, degrees, truncation)

    @staticmethod
    def gen(name: str, degree: int, degrees: dict, truncation: int) -> "GradedClass":
        degs = dict(degrees)
        degs.setdefault(name, degree)
        return GradedClass.make({((name, 1),): 1}, degs, truncation)

    def _deg_map(self):
        return dict(self.degrees)

    def monomial_degree(self, mono: Monomial) -> int:
        degs = self._deg_map()
        return sum(degs[g] * e for g, e in mono)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedClass.make({(): other}, self._deg_map(), self.truncation)
        degs = {**self._deg_map(), **other._deg_map()}
        terms = dict(self.terms)
        for m, c in other.terms:
            terms[m] = terms.get(m, Fraction(0)) + c
        return GradedClass.make(terms, degs, min(self.truncation, other.truncation))

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + other * -1

    def __rsub__(self, other):
        return self * -1 + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GradedClass.make({m: frac(other) * c for m, c in self.terms},
                                    self._deg_map(), self.truncation)
        degs = {**self._deg_map(), **other._deg_map()}
        trunc = min(self.truncation, other.truncation)
        out = {}
        for m1, c1 in self.terms:
            d1 = sum(degs[g] * e for g, e in m1)
            for m2, c2 in other.terms:
                d2 = sum(degs[g] * e for g, e in m2)
                if d1 + d2 > trunc:
                    continue
                merged = {}
                for g, e in itertools.chain(m1, m2):
                    merged[g] = merged.get(g, 0) + e
                mono = tuple(sorted(merged.items()))
                out[mono] = out.get(mono, Fraction(0)) + c1 * c2
        return GradedClass.make(out, degs, trunc)

    __rmul__ = __mul__

    def graded_part(self, k: int) -> "GradedClass":
        return GradedClass.make(
            {m: c for m, c in self.terms if self.monomial_degree(m) == k},
            self._deg_map(), self.truncation,
        )

    def is_zero(self) -> bool:
        return not self.terms

    def substitute(self, values: dict):
        """Numeric evaluation: every generator gets a rational value."""
        terms = (prod((frac(values[g]) ** e for g, e in m), start=c) for m, c in self.terms)
        return sum(terms, Fraction(0))


def whitney_product(a: GradedClass, b: GradedClass) -> GradedClass:
    """Truncated graded product (the Whitney formula's right-hand side)."""
    if a.truncation != b.truncation:
        raise ValueError("incompatible truncations")
    return a * b


def _degrees(cs) -> dict:
    """The union of the classes' degree maps."""
    return {g: d for c in cs for g, d in c.degrees}


def _newton_power_sums(cs, kmax: int):
    """Power sums p_k from elementary symmetric classes via Newton:
    p_k = sum_{i<k} (-1)^(i-1) c_i p_{k-i} + (-1)^(k-1) k c_k."""
    r = len(cs)
    # c_1 enters every p_k, so its zero adds no generator; without classes
    # every p_k is zero
    zero = cs[0] * 0 if cs else GradedClass.make({}, {}, kmax)
    ps = {}
    for k in range(1, kmax + 1):
        terms = [cs[i - 1] * ps[k - i] * (-1) ** (i - 1) for i in range(1, min(k, r + 1))]
        if k <= r:
            terms.append(cs[k - 1] * (k * (-1) ** (k - 1)))
        ps[k] = sum(terms, zero)
    return ps


def ch_from_chern(cs, truncation: int, rank=None) -> GradedClass:
    """Chern character from c_1..c_r: rank + sum p_k / k!."""
    cs = list(cs)
    if not cs:
        raise ValueError("need at least c_1 (use rank only via unit)")
    rank = len(cs) if rank is None else rank
    ps = _newton_power_sums(cs, truncation)
    terms = (ps[k] * Fraction(1, factorial(k)) for k in range(1, truncation + 1))
    return sum(terms, GradedClass.make({(): rank}, _degrees(cs), truncation))


def _series_inverse(coeffs):
    """Multiplicative inverse of a rational power series with a(0) != 0."""
    n = len(coeffs)
    inv = [Fraction(0)] * n
    inv[0] = Fraction(1) / coeffs[0]
    for k in range(1, n):
        s = sum((coeffs[j] * inv[k - j] for j in range(1, k + 1)), Fraction(0))
        inv[k] = -s / coeffs[0]
    return inv


def _series_log(coeffs):
    """log of a power series with a(0) = 1: from f g' = f', the
    coefficients satisfy k g_k = k f_k - sum_{j<k} j g_j f_{k-j}."""
    out = [Fraction(0)] * len(coeffs)
    for k in range(1, len(coeffs)):
        s = sum((j * out[j] * coeffs[k - j] for j in range(1, k)), Fraction(0))
        out[k] = (k * coeffs[k] - s) / k
    return out


def todd_series_coefficients(n: int):
    """Coefficients of x / (1 - e^{-x}) up to degree n."""
    # 1 - e^{-x} = sum_{k>=1} (-1)^{k+1} x^k / k!; divide by x first
    denom = [Fraction((-1) ** (k + 1), factorial(k)) for k in range(1, n + 2)]
    return _series_inverse(denom)


def _exp(x: GradedClass) -> GradedClass:
    """exp(x) = sum_k x^k / k! below the truncation (x has no constant term)."""
    power = GradedClass.unit(x._deg_map(), x.truncation)
    out = power
    for k in range(1, x.truncation + 1):
        power = power * x
        out = out + power * Fraction(1, factorial(k))
    return out


def todd_from_chern(cs, truncation: int) -> GradedClass:
    """Todd class from Chern classes: exp(sum log-series(k) p_k)."""
    cs = list(cs)
    lam = _series_log(todd_series_coefficients(truncation))
    ps = _newton_power_sums(cs, truncation)
    terms = (ps[k] * lam[k] for k in range(1, truncation + 1) if lam[k])
    return _exp(sum(terms, GradedClass.make({}, _degrees(cs), truncation)))


@dataclass(frozen=True)
class DegreeFunctional:
    """Intersection numbers: value for each degree-n monomial."""

    dimension: int
    values: tuple  # tuple of (Monomial, Fraction)

    @staticmethod
    def make(dimension: int, values: dict) -> "DegreeFunctional":
        vals = {}
        for mono, v in values.items():
            mono = tuple(sorted((g, e) for g, e in mono if e))
            vals[mono] = frac(v)
        return DegreeFunctional(dimension, tuple(sorted(vals.items())))

    def apply(self, cls: GradedClass) -> Fraction:
        top = cls.graded_part(self.dimension)
        table = dict(self.values)
        total = Fraction(0)
        for m, c in top.terms:
            if m not in table:
                raise MissingIntersectionNumber(str(m))
            total += c * table[m]
        return total


def hrr_chi(ch_e: GradedClass, td_t: GradedClass, deg: DegreeFunctional) -> Fraction:
    """chi(E) = deg(ch(E) . td(T_X))_n."""
    return deg.apply(ch_e * td_t)


def projective_space_setup(k: int):
    """Chern data of P^k: returns (hyperplane class h, td(T), deg)."""
    degs = {"h": 1}
    h = GradedClass.gen("h", 1, degs, k)
    powers = [GradedClass.unit(degs, k)]
    for _ in range(k):
        powers.append(powers[-1] * h)
    cs = [powers[i] * comb(k + 1, i) for i in range(1, k + 1)]
    td = todd_from_chern(cs, k)
    deg = DegreeFunctional.make(k, {(("h", k),): 1})
    return h, td, deg


def line_bundle_ch(d, h: GradedClass) -> GradedClass:
    """ch(O(d)) = e^{d h}."""
    return ch_from_chern([h * frac(d)], h.truncation, rank=1)


@dataclass(frozen=True)
class UniversalQ:
    """chi(E) as a universal partition-indexed table.

    Entries map (beta, alpha) -> rational, where beta is the partition of
    the E-classes (c^beta(E)) and alpha the partition of the cotangent
    classes (c^alpha(Omega^1)); chi = sum a * c^beta(E) c^alpha(Omega^1).
    """

    dimension: int
    rank: int
    table: tuple  # ((beta, alpha), coeff), sorted

    def evaluate(self, e_values, omega_values) -> Fraction:
        """Numeric substitution c_i(E) -> e_values[i], c_j(Omega) -> ..."""
        terms = (prod((frac(e_values[i]) for i in beta), start=coeff)
                 * prod(frac(omega_values[j]) for j in alpha)
                 for (beta, alpha), coeff in self.table)
        return sum(terms, Fraction(0))


def universal_Q(n: int, r: int) -> UniversalQ:
    """The universal polynomial: deg(ch(E) td(T))_n with c_i(T) = (-1)^i
    c_i(Omega^1) substituted, tabulated over partition pairs."""
    if n < 0 or r < 0:
        raise ValueError("need n, r >= 0")
    degs = {f"cE{i}": i for i in range(1, r + 1)}
    degs.update({f"w{j}": j for j in range(1, n + 1)})
    if n == 0:
        return UniversalQ(0, r, ((((), ()), Fraction(r)),))
    if r == 0:
        chE = GradedClass.make({(): 0}, degs, n)
    else:
        cs = [GradedClass.gen(f"cE{i}", i, degs, n) for i in range(1, r + 1)]
        chE = ch_from_chern(cs, n, rank=r)
    cT = [GradedClass.gen(f"w{j}", j, degs, n) * (-1) ** j for j in range(1, n + 1)]
    td = todd_from_chern(cT, n)
    top = (chE * td).graded_part(n)
    table = {}
    for mono, coeff in top.terms:
        beta = []
        alpha = []
        for g, e in mono:
            if g.startswith("cE"):
                beta.extend([int(g[2:])] * e)
            else:
                alpha.extend([int(g[1:])] * e)
        key = (tuple(sorted(beta, reverse=True)), tuple(sorted(alpha, reverse=True)))
        table[key] = table.get(key, Fraction(0)) + coeff
    return UniversalQ(n, r, tuple(sorted(table.items())))


def log_correction(c_log, deltas):
    """c_j(Omega^1) = sum_{i<=j} c_i(Omega^1(log)) Delta_{j-i}.

    Inputs are lists of GradedClass indexed 1..n (c_0 = Delta_0 = 1
    implicitly); returns the list of c_j(Omega^1), j = 1..n.
    """
    n = len(c_log)
    if len(deltas) != n:
        raise ValueError("need matching truncation for c(log) and Delta")
    if n == 0:
        return []
    one = GradedClass.unit(c_log[0]._deg_map(), c_log[0].truncation)
    cl = [one] + list(c_log)
    dl = [one] + list(deltas)
    zero = one * 0
    return [sum((cl[i] * dl[j - i] for i in range(j + 1)), zero) for j in range(1, n + 1)]


def error_term_symbolic(n: int, n_prime: int):
    """The boundary error term as a polynomial in the weight.

    Returns {i: GradedClass} for i = 0..n_prime, the coefficient of ell^i:
        sum_{|alpha| = n-i} b_alpha (c^alpha(Omega^1) - c^alpha(Omega^1(log)))
    with c^alpha(Omega^1) expanded through the log-boundary correction, so
    every surviving monomial carries a positive Delta-degree.  Generators:
    lg_j = c_j(Omega^1(log)), D_k = Delta_k.
    """
    if n_prime > n:
        raise ValueError("boundary dimension bound exceeds the dimension")
    degs = {f"lg{j}": j for j in range(1, n + 1)}
    degs.update({f"D{k}": k for k in range(1, n + 1)})
    lg = [GradedClass.gen(f"lg{j}", j, degs, n) for j in range(1, n + 1)]
    dl = [GradedClass.gen(f"D{k}", k, degs, n) for k in range(1, n + 1)]
    c_omega = log_correction(lg, dl)
    q1 = universal_Q(n, 1)
    one = GradedClass.unit(degs, n)
    zero = GradedClass.make({}, degs, n)
    out = {}
    for i in range(n_prime + 1):
        # b_alpha at ell-power i: entries with beta = (1,)*i
        terms = ((prod((c_omega[a - 1] for a in alpha), start=one)
                  - prod((lg[a - 1] for a in alpha), start=one)) * coeff
                 for (beta, alpha), coeff in q1.table if beta == (1,) * i)
        out[i] = sum(terms, zero)
    return out


def monomial_delta_degree(mono: Monomial) -> int:
    return sum(e for g, e in mono if g.startswith("D"))
