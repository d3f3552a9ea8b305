"""Rational quadratic lattices and their local/global invariants.

The bilinear form is b (so q(x) = b(x,x) = x^t G x for the Gram matrix G);
all arithmetic is exact.  The Gram is also kept as the integer matrix
scaled_gram = den * G, and b(x, y) is its integer value over den: over int
for int vectors, whatever the denominators of G.  _congruence is the one
congruence: signature, int_signature and diagonalize read its steps, and
it alone refuses a singular Gram.  Hilbert symbols use the standard
closed-form local recipes; the test suite backs the p=2 branch with an
independent congruence-search oracle.  Factorization and primality
(square classes, relevant places, Place) are _linalg's factor and
is_prime.  atilde_block is the one test of the two-hyperbolic-planes
shape; cusp flags and bounded frames keep the block it returns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from . import _linalg as la
from ._linalg import frac
from .errors import DegenerateForm


@dataclass(frozen=True)
class Place:
    """The real place (p=None) or a finite prime p."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            if not la.is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")

    @property
    def is_real(self) -> bool:
        return self.p is None

    def __repr__(self):
        return "Place(oo)" if self.p is None else f"Place({self.p})"


REAL_PLACE = Place(None)


class QuadraticLattice:
    """Free lattice with a symmetric rational Gram matrix."""

    def __init__(self, gram):
        G = la.mat(gram)
        if not G or not la.is_symmetric(G):
            raise ValueError("gram must be a nonempty symmetric square matrix")
        self.gram = G
        self.rank = len(G)
        self.scaled_gram, self.den = la.scaled_int(G)

    def bilinear(self, x, y) -> Fraction:
        """b(x, y), one Fraction over den * dx * dy.

        Coordinates are any entries la.scaled_int reads exactly: x and y
        are cleared of their denominators once (x = x' / dx, y = y' / dy)
        and the form is evaluated over int.
        """
        ((x,), dx), ((y,), dy) = la.scaled_int([x]), la.scaled_int([y])
        return Fraction(la.form(self.scaled_gram, x, y), self.den * dx * dy)

    def quadratic(self, x) -> Fraction:
        return self.bilinear(x, x)

    def __eq__(self, other):
        return isinstance(other, QuadraticLattice) and la.mat_eq(self.gram, other.gram)

    def __repr__(self):
        return f"QuadraticLattice({[list(map(str, r)) for r in self.gram]})"


def discriminant(L: QuadraticLattice) -> Fraction:
    """det of the Gram matrix, as an exact rational (not a square class)."""
    return la.determinant(L.gram)


def square_class(a) -> int:
    """Squarefree integer representative of the square class of a rational."""
    a = frac(a)
    if a == 0:
        return 0
    n = a.numerator * a.denominator
    odd = prod(p for p, e in la.factor(n).items() if e % 2)
    return odd if n > 0 else -odd


def _congruence(B):
    """The one congruence: steps (j, added, top) of a symmetric integer B.

    Pivot p = G[k][k] clears row and column j > k by j := p*j - c_j*k with
    c_j = G[k][j], a congruence of nonzero determinant that leaves the
    block p * (p G[i][j] - c_i c_j) on the later indices.  That block is
    divided by |p| times the |p| of the previous pivot, a positive scale
    and an exact division as in Bareiss's elimination (Math. Comp. 1968).
    A zero pivot is fixed first: the first later j with G[j][j] != 0 is
    swapped in (added False), else the first j with G[k][j] != 0 is added
    to k (added True); j = 0 when no fix was needed.  top is the pivot row
    of the active block, indexed from k.  A singular B raises DegenerateForm.
    """
    G = [list(row) for row in B]
    e = 1
    while G:
        j, added = 0, False
        if not G[0][0]:
            j = next((j for j in range(1, len(G)) if G[j][j]), 0)
            if j:
                G[0], G[j] = G[j], G[0]
                for row in G:
                    row[0], row[j] = row[j], row[0]
            else:
                j, added = next((j for j, x in enumerate(G[0]) if x), 0), True
                if not j:
                    raise DegenerateForm("det(gram) = 0")
                G[0] = [x + y for x, y in zip(G[0], G[j])]
                for row in G:
                    row[0] += row[j]
        top = G[0]
        yield j, added, top
        p = top[0]
        q = e if p > 0 else -e
        G = [[(p * x - row[0] * y) // q for x, y in zip(row[1:], top[1:])]
             for row in G[1:]]
        e = abs(p)


def diagonalize(L: QuadraticLattice):
    """Congruence diagonalization: returns (diag, T) with T^t G T diagonal.

    Replays _congruence's steps on the columns of the identity: the
    integer block is a positive multiple of the rational one, so column i
    loses (c_i / p) times the pivot column.  diag is q of T's columns; a
    singular Gram raises DegenerateForm.
    """
    T = [list(col) for col in la.identity(L.rank)]  # T[k] is column k
    for k, (j, added, top) in enumerate(_congruence(L.scaled_gram)):
        if added:
            T[k] = [x + y for x, y in zip(T[k], T[k + j])]
        elif j:
            T[k], T[k + j] = T[k + j], T[k]
        for i, c in enumerate(top[1:], k + 1):
            if c:
                f = Fraction(c, top[0])
                T[i] = [x - f * y for x, y in zip(T[i], T[k])]
    return tuple(map(L.quadratic, T)), tuple(zip(*T))


def signature(L: QuadraticLattice):
    """(r, s) = counts of positive and negative diagonal entries, read
    from the integer Gram (its positive scale den changes no sign)."""
    return int_signature(L.scaled_gram)


def int_signature(B):
    """(r, s) of a symmetric integer B: the signs of _congruence's pivots.

    By Sylvester's law of inertia the positive pivots count r.  The empty
    matrix has signature (0, 0); a singular B raises DegenerateForm.
    """
    r = sum(top[0] > 0 for _, _, top in _congruence(B))
    return (r, len(B) - r)


def _padic_split(n: int, p: int):
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def hilbert_symbol(a, b, v: Place) -> int:
    """Hilbert symbol (a,b)_v by the standard local recipe."""
    a, b = frac(a), frac(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert_symbol requires nonzero arguments")
    # square classes: integer representatives
    a = a.numerator * a.denominator
    b = b.numerator * b.denominator
    if v.is_real:
        return -1 if (a < 0 and b < 0) else 1
    p = v.p
    alpha, u = _padic_split(abs(a), p)
    beta, w = _padic_split(abs(b), p)
    u = u if a > 0 else -u
    w = w if b > 0 else -w
    if p == 2:
        eps_u = ((u - 1) // 2) % 2
        eps_w = ((w - 1) // 2) % 2
        om_u = ((u * u - 1) // 8) % 2
        om_w = ((w * w - 1) // 8) % 2
        e = eps_u * eps_w + alpha * om_w + beta * om_u
        return -1 if e % 2 else 1
    eps_p = ((p - 1) // 2) % 2
    s = (-1) ** (alpha * beta * eps_p)
    if beta % 2:
        s *= _legendre(u, p)
    if alpha % 2:
        s *= _legendre(w, p)
    return s


def hasse_invariant(L: QuadraticLattice, v: Place) -> int:
    """H(q) = prod_{i<j} (a_i, a_j)_v over any diagonalization."""
    diag, _ = diagonalize(L)
    h = 1
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            h *= hilbert_symbol(diag[i], diag[j], v)
    return h


def relevant_places(a, b):
    """The real place plus primes dividing 2ab (numerators and denominators)."""
    a, b = frac(a), frac(b)
    n = 2 * a.numerator * a.denominator * b.numerator * b.denominator
    return [REAL_PLACE] + [Place(p) for p in sorted(la.factor(n))]


def find_isotropic_split(L: QuadraticLattice, height: int):
    """Search for integral (e1, e2) with q(e1)=0, b(e1,e2)=1.

    Coordinates of e1 are bounded by height; returns None when no isotropic
    vector of that height admits an integral dual vector.
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    # gcd(0, .., 0) = 0, so the zero vector is skipped with the imprimitive
    for cand in itertools.product(range(-height, height + 1), repeat=L.rank):
        if gcd(*cand) != 1:
            continue
        if la.form(L.scaled_gram, cand, cand):
            continue
        w = la.mat_vec(L.scaled_gram, cand)
        if any(x % L.den for x in w):
            continue  # b(e1, .) is not an integral functional: no integral e2
        e2 = _solve_unimodular([x // L.den for x in w])
        if e2 is not None:
            return tuple(cand), tuple(e2)
    return None


def _solve_unimodular(w):
    """Integer y with w . y = 1, or None if gcd(w) != 1."""
    n = len(w)
    g = 0
    coeff = [0] * n
    for i, wi in enumerate(w):
        if wi == 0:
            continue
        if g == 0:
            g = abs(wi)
            coeff = [0] * n
            coeff[i] = 1 if wi > 0 else -1
            continue
        g, x, y = la.ext_gcd(g, abs(wi))
        coeff = [x * c for c in coeff]
        coeff[i] += y * (1 if wi > 0 else -1)
        if g == 1:
            break
    if g != 1:
        return None
    return coeff


def orthogonal_complement_basis(L: QuadraticLattice, vectors):
    """Saturated Z-basis of {y : b(v, y) = 0 for all given v}."""
    return la.kernel_int([la.mat_vec(L.scaled_gram, v) for v in vectors])


def atilde_block(L: QuadraticLattice):
    """The corner block A (() at rank 4) of a lattice whose Gram matrix
    literally has the two-hyperbolic-planes shape, else None.

    Pattern: b(v0,v2) = b(v1,v3) = 1, all other entries of the 4x4 corner
    and the corner/block cross terms vanish, and A is negative definite
    (signature bookkeeping for a (2,n) lattice; read on the integer Gram).
    """
    G = L.gram
    m = L.rank
    if m < 4:
        return None
    need_one = {(0, 2), (2, 0), (1, 3), (3, 1)}
    for i in range(4):
        for j in range(m):
            want = Fraction(1) if (i, j) in need_one else Fraction(0)
            if G[i][j] != want:
                return None
    try:
        r, _ = int_signature([row[4:] for row in L.scaled_gram[4:]])
    except DegenerateForm:
        return None
    return None if r else la.mat([row[4:] for row in G[4:]])


def standard_atilde(n: int, block=None) -> QuadraticLattice:
    """The shape matrix for signature (2, n): two hyperbolic planes plus A.

    block defaults to -2*identity of size n-2 (negative definite); any
    other size raises ValueError.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    m = n + 2
    B = la.mat([[-2 * x for x in row] for row in la.identity(n - 2)]
               if block is None else block)
    if len(B) != n - 2 or any(len(row) != n - 2 for row in B):
        raise ValueError(f"block must be {n - 2}x{n - 2} for n = {n}")
    G = [[Fraction(0)] * m for _ in range(m)]
    G[0][2] = G[2][0] = G[1][3] = G[3][1] = Fraction(1)
    for i, row in enumerate(B):
        G[4 + i][4:] = row
    return QuadraticLattice(G)
