"""Formal Chern / Todd / Riemann-Roch calculus on a truncated graded ring.

Classes live in a graded-commutative polynomial ring over Q with named
generators of fixed degree (c_i have degree i, boundary classes Delta_k
degree k); all products truncate above the ambient dimension.  The
splitting principle is used as a formal-root algebra in the tests, never
as geometry; intersection numbers always come from a caller-supplied
degree functional.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

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
        return GradedClass.make({m: -c for m, c in self.terms}, self._deg_map(),
                                self.truncation)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedClass.make({(): other}, self._deg_map(), self.truncation)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

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

    def coefficient(self, mono) -> Fraction:
        mono = tuple(sorted((g, e) for g, e in mono if e))
        for m, c in self.terms:
            if m == mono:
                return c
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.terms

    def substitute(self, values: dict):
        """Numeric evaluation: every generator gets a rational value."""
        total = Fraction(0)
        for m, c in self.terms:
            prod = c
            for g, e in m:
                prod *= frac(values[g]) ** e
            total += prod
        return total


def whitney_product(a: GradedClass, b: GradedClass) -> GradedClass:
    """Truncated graded product (the Whitney formula's right-hand side)."""
    if a.truncation != b.truncation:
        raise ValueError("incompatible truncations")
    return a * b


def _newton_power_sums(cs, kmax: int):
    """Power sums p_k from elementary symmetric classes via Newton."""
    r = len(cs)
    ps = {}
    for k in range(1, kmax + 1):
        acc = None
        for i in range(1, k):
            if i <= r:
                term = cs[i - 1] * ps[k - i] * (Fraction(-1) ** (i - 1))
                acc = term if acc is None else acc + term
        tail = (Fraction(-1) ** (k - 1)) * k * cs[k - 1] if k <= r else None
        if tail is not None:
            acc = tail if acc is None else acc + tail
        if acc is None:
            acc = cs[0] * 0
        ps[k] = acc
    return ps


def ch_from_chern(cs, truncation: int, rank=None) -> GradedClass:
    """Chern character from c_1..c_r: rank + sum p_k / k!."""
    cs = list(cs)
    if not cs:
        raise ValueError("need at least c_1 (use rank only via unit)")
    rank = len(cs) if rank is None else rank
    degs = {}
    for c in cs:
        degs.update(c._deg_map())
    out = GradedClass.make({(): rank}, degs, truncation)
    ps = _newton_power_sums(cs, truncation)
    fact = 1
    for k in range(1, truncation + 1):
        fact *= k
        out = out + ps[k] * Fraction(1, fact)
    return out


def _series_inverse(coeffs):
    """Multiplicative inverse of a rational power series with a(0) != 0."""
    n = len(coeffs)
    inv = [Fraction(0)] * n
    inv[0] = 1 / coeffs[0]
    for k in range(1, n):
        s = Fraction(0)
        for j in range(1, k + 1):
            if j < len(coeffs):
                s += coeffs[j] * inv[k - j]
        inv[k] = -s / coeffs[0]
    return inv


def _series_log(coeffs):
    """log of a power series with a(0) = 1."""
    n = len(coeffs)
    # log(f) ' = f'/f; integrate
    deriv = [(k + 1) * coeffs[k + 1] if k + 1 < n else Fraction(0) for k in range(n)]
    finv = _series_inverse(coeffs)
    prod = [Fraction(0)] * n
    for i in range(n):
        for j in range(n - i):
            prod[i + j] += deriv[i] * finv[j]
    out = [Fraction(0)] * n
    for k in range(1, n):
        out[k] = prod[k - 1] / k
    return out


def todd_series_coefficients(n: int):
    """Coefficients of x / (1 - e^{-x}) up to degree n."""
    # 1 - e^{-x} = sum_{k>=1} (-1)^{k+1} x^k / k!; divide by x first
    denom = []
    fact = 1
    for k in range(1, n + 2):
        fact *= k
        denom.append(Fraction((-1) ** (k + 1), fact))
    return _series_inverse(denom[: n + 1])


def todd_from_chern(cs, truncation: int) -> GradedClass:
    """Todd class from Chern classes: exp(sum log-series(k) p_k)."""
    cs = list(cs)
    degs = {}
    for c in cs:
        degs.update(c._deg_map())
    lam = _series_log(todd_series_coefficients(truncation))
    ps = _newton_power_sums(cs, truncation)
    expo = None
    for k in range(1, truncation + 1):
        if lam[k]:
            term = ps[k] * lam[k]
            expo = term if expo is None else expo + term
    out = GradedClass.unit(degs, truncation)
    if expo is None:
        return out
    power = GradedClass.unit(degs, truncation)
    fact = 1
    for k in range(1, truncation + 1):
        power = power * expo
        fact *= k
        out = out + power * Fraction(1, fact)
    return out


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


def projective_space_setup(k: int, truncation=None):
    """Chern data of P^k: returns (hyperplane class h, td(T), deg)."""
    n = k if truncation is None else truncation
    degs = {"h": 1}
    h = GradedClass.gen("h", 1, degs, n)
    from math import comb

    cs = []
    for i in range(1, n + 1):
        hi = GradedClass.unit(degs, n)
        for _ in range(i):
            hi = hi * h
        cs.append(hi * comb(k + 1, i))
    td = todd_from_chern(cs, n)
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
        total = Fraction(0)
        for (beta, alpha), coeff in self.table:
            prod = coeff
            for i in beta:
                prod *= frac(e_values[i])
            for j in alpha:
                prod *= frac(omega_values[j])
            total += prod
        return total


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
    cT = [GradedClass.gen(f"w{j}", j, degs, n) * (Fraction(-1) ** j)
          for j in range(1, n + 1)]
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
    one = GradedClass.unit(c_log[0]._deg_map() if c_log else {}, c_log[0].truncation)
    cl = [one] + list(c_log)
    dl = [one] + list(deltas)
    out = []
    for j in range(1, n + 1):
        acc = None
        for i in range(0, j + 1):
            term = cl[i] * dl[j - i]
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


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
    # b_alpha at ell-power i: entries with beta = (1,)*i
    out = {}
    one = GradedClass.unit(degs, n)
    for i in range(0, n_prime + 1):
        acc = GradedClass.make({}, degs, n)
        for (beta, alpha), coeff in q1.table:
            if beta != tuple([1] * i):
                continue
            prod_omega = one
            prod_log = one
            for a in alpha:
                prod_omega = prod_omega * c_omega[a - 1]
                prod_log = prod_log * lg[a - 1]
            acc = acc + (prod_omega - prod_log) * coeff
        out[i] = acc
    return out


def monomial_delta_degree(mono: Monomial) -> int:
    return sum(e for g, e in mono if g.startswith("D"))
