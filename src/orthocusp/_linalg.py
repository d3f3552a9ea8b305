"""Exact linear algebra over Fraction and the integers.

Vectors are tuples of Fraction (or int), matrices are tuples of row tuples.
Everything here is a decision procedure; no floats.  A rational form is
stored once as an integer matrix over a positive denominator (scaled_int)
and evaluated by form, which is exact on int and Fraction coordinates
alike: over int for int coordinates.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs):
    return tuple(frac(x) for x in xs)


def mat(rows):
    return tuple(tuple(frac(x) for x in row) for row in rows)


def identity(n):
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def transpose(A):
    return tuple(zip(*A)) if A else ()


def mat_mul(A, B):
    Bt = transpose(B)
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in Bt) for row in A)


def mat_vec(A, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in A)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


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


def determinant(A):
    """Fraction-exact determinant by Gaussian elimination with pivoting."""
    n = len(A)
    M = [list(map(frac, row)) for row in A]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det *= M[c][c]
        inv = 1 / M[c][c]
        for r in range(c + 1, n):
            if M[r][c] != 0:
                f = M[r][c] * inv
                for k in range(c, n):
                    M[r][k] -= f * M[c][k]
    return det


def rref(A):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    if not A:
        return (), ()
    M = [list(map(frac, row)) for row in A]
    n, m = len(M), len(M[0])
    pivots = []
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, n) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(n):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return tuple(tuple(row) for row in M), tuple(pivots)


def rank(A):
    return len(rref(A)[1])


def solve(A, b):
    """One solution of A x = b over Fraction, or None if inconsistent."""
    if not A:
        return None
    n, m = len(A), len(A[0])
    aug = [list(map(frac, row)) + [frac(bi)] for row, bi in zip(A, b)]
    R, piv = rref(aug)
    for row in R:
        if all(x == 0 for x in row[:m]) and row[m] != 0:
            return None
    x = [Fraction(0)] * m
    r = 0
    for c in piv:
        if c == m:
            return None
        x[c] = R[r][m]
        r += 1
    return tuple(x)


def nullspace(A):
    """Basis of the rational kernel of A (rows of the result)."""
    if not A:
        return ()
    m = len(A[0])
    R, piv = rref(A)
    free = [c for c in range(m) if c not in piv]
    basis = []
    for f in free:
        v = [Fraction(0)] * m
        v[f] = Fraction(1)
        for r, c in enumerate(piv):
            v[c] = -R[r][f]
        basis.append(tuple(v))
    return tuple(basis)


def inverse(A):
    n = len(A)
    aug = [list(map(frac, row)) + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(A)]
    R, piv = rref(aug)
    if list(piv[:n]) != list(range(n)):
        raise ZeroDivisionError("matrix not invertible")
    return tuple(tuple(row[n:]) for row in R[:n])


def scaled_int(A):
    """(B, d) with d the least positive integer making B = d*A integral.

    Entries are read through frac, so int, Fraction, float and rational
    strings are all taken exactly.
    """
    A = mat(A)
    d = lcm(*(x.denominator for row in A for x in row))
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in A), d


def form(B, x, y):
    """y^t B x: exact on int and Fraction entries, over int when all are int."""
    return sum(b * sum(map(mul, row, x)) for row, b in zip(B, y))


def gcd_vec(v):
    g = 0
    for x in v:
        g = gcd(g, abs(int(x)))
    return g


def primitive(v):
    """Primitive integer vector on the same ray (positive gcd removed)."""
    (w,), _ = scaled_int([v])
    g = gcd_vec(w)
    if g == 0:
        return tuple(0 for _ in w)
    return tuple(x // g for x in w)


def kernel_int(A):
    """Z-basis of the integer kernel lattice of an integer/rational matrix.

    Works by exact column reduction of A with a tracked unimodular column
    transform; columns of the transform below zeroed columns of A form a
    basis, and that basis spans the full (saturated) kernel lattice.
    """
    if not A:
        return ()
    rows = [list(r) for r in scaled_int(A)[0]]
    n, m = len(rows), len(rows[0])
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def col(j):
        return [rows[i][j] for i in range(n)]

    def swap(j, k):
        for i in range(n):
            rows[i][j], rows[i][k] = rows[i][k], rows[i][j]
        U[j], U[k] = U[k], U[j]

    def addmul(j, k, q):
        # column_j += q * column_k
        for i in range(n):
            rows[i][j] += q * rows[i][k]
        for t in range(m):
            U[j][t] += q * U[k][t]

    pivot_col = 0
    for r in range(n):
        if pivot_col >= m:
            break
        while True:
            nz = [j for j in range(pivot_col, m) if rows[r][j] != 0]
            if not nz:
                break
            j0 = min(nz, key=lambda j: abs(rows[r][j]))
            if j0 != pivot_col:
                swap(pivot_col, j0)
            done = True
            for j in range(pivot_col + 1, m):
                if rows[r][j] != 0:
                    q = -(rows[r][j] // rows[r][pivot_col])
                    addmul(j, pivot_col, q)
                    if rows[r][j] != 0:
                        done = False
            if done:
                break
        if rows[r][pivot_col] != 0:
            pivot_col += 1
    kernel = []
    for j in range(pivot_col, m):
        if all(rows[i][j] == 0 for i in range(n)):
            kernel.append(tuple(U[j]))
    # also catch zero columns before pivot_col (possible with zero input cols)
    for j in range(pivot_col):
        if all(rows[i][j] == 0 for i in range(n)):
            kernel.append(tuple(U[j]))
    return tuple(sorted(kernel))


def gram_preservers(A, domain, mod=None):
    """Every X, as its tuple of columns, with X^t A X = A and columns in domain.

    A is a symmetric integer matrix; with mod the equality is a congruence
    mod `mod`.  Column-wise backtracking over per-norm candidate lists
    (Plesken & Souvignier 1997): A v and q(v) = v^t A v are computed once
    per candidate, column j is drawn from the candidates of norm A[j][j],
    and it is tested only against the earlier columns.
    """
    def red(x):
        return x % mod if mod else x

    m = len(A)
    by_norm = {}
    for v in domain:
        Av = tuple(sum(map(mul, row, v)) for row in A)
        by_norm.setdefault(red(sum(map(mul, Av, v))), []).append((v, Av))
    cols, images = [], []

    def extend(j):
        if j == m:
            yield tuple(cols)
            return
        targets = [red(A[i][j]) for i in range(j)]
        for v, Av in by_norm.get(red(A[j][j]), ()):
            if all(red(sum(map(mul, img, v))) == t for img, t in zip(images, targets)):
                cols.append(v)
                images.append(Av)
                yield from extend(j + 1)
                cols.pop()
                images.pop()

    yield from extend(0)


def in_span(v, vectors):
    """Whether v lies in the Q-span of the given vectors."""
    if not vectors:
        return all(frac(x) == 0 for x in v)
    return solve(transpose(vectors), v) is not None
