"""Exact linear algebra over Fraction and the integers.

Vectors are tuples of Fraction (or int), matrices are tuples of row tuples.
Everything here is a decision procedure; no floats.  identity(n) is the one
(cached) int identity.  A rational matrix is stored once as an integer
matrix over a positive denominator (scaled_int, the one clearing of
denominators).  One fraction-free integer elimination, echelon, serves
every rank, kernel, solve, inverse and determinant; scaled_nullspace hands
out the rational kernel basis as integer rows over one common multiple.
One unimodular integer column reduction, column_reduce, owns the integer
kernel lattice (kernel_int) and the lattice block behind fan's
multiplicities and fundamental parallelepipeds; extended Euclid on two
integers (ext_gcd) sits beside it, with the package's integer arithmetic:
factor is its one trial division and is_prime its one primality test.  The
products (mat_mul, mat_vec, dot) and the form evaluator (form) keep the
type of their input: int in, int out, so integer data never meets a
Fraction, and form and mat_vec take the domain models' complex coordinates
as they are; scaled_int hands a matrix of plain ints back as it is.
rows_at_least tests a vector against every row of an integer matrix at
once, on packed integer fields, and quadratic_nonneg solves a quadratic
inequality over the integers of a range with isqrt.  gram_preservers is
the package's one isometry search, a column backtracking with forward
checking: fixing a column filters the candidates of every later column by
its pairing with it, which is the test the later column must pass anyway,
so the search yields the same matrices in the same order and only stops
sooner in dead branches.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, isqrt, lcm
from operator import mul


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs):
    return tuple(frac(x) for x in xs)


def mat(rows):
    return tuple(tuple(frac(x) for x in row) for row in rows)


@lru_cache(maxsize=None)
def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(A):
    return tuple(zip(*A)) if A else ()


def mat_mul(A, B):
    Bt = transpose(B)
    return tuple([tuple([sum(map(mul, row, col)) for col in Bt]) for row in A])


def mat_vec(A, v):
    return tuple([sum(map(mul, row, v)) for row in A])


def dot(u, v):
    return sum(map(mul, u, v))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * x for x in v)


def mat_add(A, B):
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_scale(c, A):
    return tuple(tuple(c * x for x in row) for row in A)


def mat_eq(A, B):
    return len(A) == len(B) and all(ra == rb for ra, rb in zip(A, B))


def preserves_form(g, G):
    """g^t G g == G: g is an isometry of the form with Gram matrix G."""
    return mat_eq(mat_mul(mat_mul(transpose(g), G), g), G)


def is_symmetric(A):
    n = len(A)
    return all(len(row) == n for row in A) and all(
        A[i][j] == A[j][i] for i in range(n) for j in range(i + 1, n)
    )


def echelon(A):
    """Fraction-free Gauss-Jordan elimination: (M, pivots, d, sign).

    A is scaled once to an integer matrix (scaled_int); every later
    division is exact (Bareiss, "Sylvester's identity and multistep
    integer-preserving Gaussian elimination", Math. Comp. 1968).  The
    reduced row echelon form of A is M / d, with every pivot entry of M
    equal to d; sign is the parity of the row swaps, so a square A of full
    rank has determinant sign * d over the scale of A to the n-th power.
    """
    M = [list(row) for row in scaled_int(A)[0]]
    n, m = len(M), len(M[0]) if M else 0
    pivots, d, sign = [], 1, 1
    for c in range(m):
        r = len(pivots)
        piv = next((i for i in range(r, n) if M[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            M[r], M[piv], sign = M[piv], M[r], -sign
        p, top = M[r][c], M[r]
        M = [row if i == r else [(p * x - row[c] * y) // d for x, y in zip(row, top)]
             for i, row in enumerate(M)]
        pivots.append(c)
        d = p
        if len(pivots) == n:
            break
    return tuple(map(tuple, M)), tuple(pivots), d, sign


def determinant(A):
    """Exact determinant of a square matrix, as a Fraction.

    A is scaled here; echelon takes the scaled int matrix as it is.
    """
    B, s = scaled_int(A)
    _, pivots, d, sign = echelon(B)
    return Fraction(sign * d, s ** len(B)) if len(pivots) == len(B) else Fraction(0)


def rank(A):
    return len(echelon(A)[1])


def solve(A, b):
    """One solution of A x = b over Fraction, or None if inconsistent."""
    if not A:
        return None
    m = len(A[0])
    M, pivots, d, _ = echelon([list(row) + [bi] for row, bi in zip(A, b)])
    if m in pivots:
        return None
    x = [Fraction(0)] * m
    for row, c in zip(M, pivots):
        x[c] = Fraction(row[m], d)
    return tuple(x)


def nullspace(A):
    """Basis of the rational kernel of A (rows of the result)."""
    N, d = scaled_nullspace(A)
    return tuple(tuple(Fraction(x, d) for x in v) for v in N)


def scaled_nullspace(A):
    """(N, d): integer rows N with N / d the basis nullspace(A) returns.

    d is echelon's last pivot, one common multiple for every basis vector.
    """
    if not A:
        return (), 1
    m = len(A[0])
    M, pivots, d, _ = echelon(A)
    basis = []
    for f in (c for c in range(m) if c not in pivots):
        v = [0] * m
        v[f] = d
        for row, c in zip(M, pivots):
            v[c] = -row[f]
        basis.append(tuple(v))
    return tuple(basis), d


def inverse(A):
    n = len(A)
    M, pivots, d, _ = echelon([list(row) + [int(i == j) for j in range(n)]
                               for i, row in enumerate(A)])
    if pivots[:n] != tuple(range(n)):
        raise ZeroDivisionError("matrix not invertible")
    return tuple(tuple(Fraction(x, d) for x in row[n:]) for row in M)


def scaled_int(A):
    """(B, d) with d the least positive integer making B = d*A integral.

    Entries are read through frac, so int, Fraction, float and rational
    strings are all taken exactly; a matrix of plain ints is returned as
    it is, with d = 1.
    """
    if all(type(x) is int for row in A for x in row):
        return tuple(map(tuple, A)), 1
    A = [[x if isinstance(x, int) else frac(x) for x in row] for row in A]
    d = lcm(*(x.denominator for row in A for x in row))
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in A), d


def form(B, x, y):
    """y^t B x: exact on int and Fraction entries, over int when all are int."""
    return sum(b * sum(map(mul, row, x)) for row, b in zip(B, y))


def rows_at_least(C, d, xs):
    """The integer vectors x of xs with dot(c, x) >= d for every row c of C.

    Each x makes every test at once on packed k-bit fields: with 2^(k-1)
    above every |dot(c, x) - d|, field i of F + sum_j x[j] * P[j], where
    P[j] packs column j of C and F packs 2^(k-1) - d, is
    dot(C[i], x) - d + 2^(k-1), whose top bit is set exactly when
    dot(C[i], x) >= d.
    """
    xs = tuple(xs)
    if not C or not xs:
        return xs
    k = (max(map(abs, chain.from_iterable(xs))) * max(sum(map(abs, c)) for c in C)
         + abs(d)).bit_length() + 1
    half, ones = 1 << (k - 1), ((1 << k * len(C)) - 1) // ((1 << k) - 1)
    P = [sum(x << k * i for i, x in enumerate(col)) for col in zip(*C)]
    F, top = (half - d) * ones, half * ones
    return tuple(x for x in xs if (F + dot(P, x)) & top == top)


def quadratic_nonneg(a, b, c, lo, hi):
    """The ranges, at most two and increasing, of the integers t in
    [lo, hi] with a t^2 + 2 b t + c >= 0.

    a (a t^2 + 2 b t + c) = (a t + b)^2 - D with D = b^2 - a c: for a < 0
    the test is |a t + b| <= isqrt(D); for a > 0 it is |a t + b| >= R, the
    least R with R^2 >= D, which leaves two ranges; for a = 0 it is
    linear.  Every bound is an exact integer division.
    """
    D = b * b - a * c
    if a < 0 and D >= 0:
        r = isqrt(D)
        spans = [(-((r - b) // -a), (b + r) // -a)]
    elif a > 0 and D > 0:
        R = isqrt(D - 1) + 1
        spans = [(lo, (-R - b) // a), (-((b - R) // a), hi)]
    elif a > 0 or a == b == 0 and c >= 0:
        spans = [(lo, hi)]
    elif a == 0 and b:
        spans = [(-(c // (2 * b)), hi) if b > 0 else (lo, c // (-2 * b))]
    else:
        spans = []
    return [range(max(l, lo), min(h, hi) + 1) for l, h in spans]


def primitive(v):
    """Primitive integer vector on the same ray (positive gcd removed)."""
    (w,), _ = scaled_int([v])
    g = gcd(*w)
    return tuple(x // g for x in w) if g else w


def column_reduce(A):
    """(H, U, r): H = B U with B = scaled_int(A)[0], U unimodular, r = rank A.

    The one exact integer column reduction.  Row by row, the columns right
    of the earlier pivots are reduced by division with remainder against
    the one holding the least nonzero entry of that row, until only it is
    nonzero; it becomes the next pivot column.  So H is in column echelon
    form: columns r.. are zero, and columns r.. of U are a Z-basis of the
    integer kernel of A.  For independent rows, H[i][i] is the pivot of
    row i and the first r columns of H are lower triangular.
    """
    C = [list(col) for col in transpose(scaled_int(A)[0])]
    m = len(C)
    U = [[int(i == j) for i in range(m)] for j in range(m)]  # columns of U
    p = 0
    for r in range(len(A)):
        while True:
            nz = [j for j in range(p, m) if C[j][r]]
            if not nz:
                break
            j0 = min(nz, key=lambda j: abs(C[j][r]))
            C[p], C[j0], U[p], U[j0] = C[j0], C[p], U[j0], U[p]
            if len(nz) == 1:
                p += 1
                break
            for j in range(p + 1, m):
                q = C[j][r] // C[p][r]
                if q:
                    C[j] = [a - q * b for a, b in zip(C[j], C[p])]
                    U[j] = [a - q * b for a, b in zip(U[j], U[p])]
    return transpose(C), transpose(U), p


def kernel_int(A):
    """Z-basis of the integer kernel lattice of an integer/rational matrix:
    the columns of column_reduce's U beyond the rank, sorted.  The basis
    spans the full (saturated) kernel lattice."""
    _, U, r = column_reduce(A)
    return tuple(sorted(transpose(U)[r:]))


def ext_gcd(a, b):
    """(g, x, y) with a x + b y = g = gcd(a, b) >= 0 (extended Euclid)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def factor(n):
    """{p: e} with |n| the product of the p^e, by trial division; {} for 0, 1."""
    n, out, d = abs(n), {}, 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            out[d] = out.get(d, 0) + 1
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def is_prime(n):
    """Deterministic Miller-Rabin on the 13 prime bases 2..41.

    It is exact below 3 317 044 064 679 887 385 961 981, the least strong
    pseudoprime to all 13 bases (Sorenson & Webster, "Strong pseudoprimes
    to twelve prime bases", Math. Comp. 2017); at or above it a ValueError
    is raised.
    """
    if n >= _MR_BOUND:
        raise ValueError(f"primality is decided only below {_MR_BOUND}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def gram_preservers(A, domain, mod=None):
    """Every X, as its tuple of columns, with X^t A X = A and columns in domain.

    A is a symmetric integer matrix; with mod the equality is a congruence
    mod `mod`.  Column-wise backtracking over per-norm candidate lists
    (Plesken & Souvignier 1997): A v and q(v) = v^t A v are computed once
    per candidate, and column k starts from the candidates of norm A[k][k].
    Forward checking (Haralick & Elliott 1980): when column j is fixed with
    image A v, every later column k keeps only the candidates w with
    (A v) . w = A[j][k], and the search backtracks as soon as a list is
    empty.  That is the test the plain search makes on column k against
    column j, made earlier; the filters keep each list's order, so the X
    come in the same order as from the plain search.
    """
    if mod:
        A = [[x % mod for x in row] for row in A]
    by_norm = {}
    for v in domain:
        Av = tuple(sum(map(mul, row, v)) for row in A)
        q = sum(map(mul, Av, v))
        by_norm.setdefault(q % mod if mod else q, []).append((v, Av))
    yield from _forward_columns(A, mod, [by_norm.get(row[k], []) for k, row in enumerate(A)], [])


def _forward_columns(A, mod, lists, cols):
    """gram_preservers' step: every completion of cols, where lists holds the
    candidates of column len(cols) and of every later column."""
    j = len(cols)
    if j == len(A):
        yield tuple(cols)
        return
    targets = A[j][j + 1:]
    for v, Av in lists[0]:
        later = []
        for t, cands in zip(targets, lists[1:]):
            if mod:
                kept = [c for c in cands if sum(map(mul, Av, c[0])) % mod == t]
            else:
                kept = [c for c in cands if sum(map(mul, Av, c[0])) == t]
            if not kept:
                break
            later.append(kept)
        else:
            cols.append(v)
            yield from _forward_columns(A, mod, later, cols)
            cols.pop()


def in_span(v, vectors):
    """Whether v lies in the Q-span of the given vectors."""
    if not vectors:
        return all(frac(x) == 0 for x in v)
    return solve(transpose(vectors), v) is not None
