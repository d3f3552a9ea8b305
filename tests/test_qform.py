"""Tests for quadratic-lattice invariants.

The Hilbert symbol closed forms are checked against an independent
congruence-search oracle and the product formula.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orthocusp import _linalg as la
from orthocusp.errors import DegenerateForm
from orthocusp.qform import (
    Place,
    QuadraticLattice,
    REAL_PLACE,
    atilde_block,
    diagonalize,
    discriminant,
    find_isotropic_split,
    hasse_invariant,
    hilbert_symbol,
    orthogonal_complement_basis,
    relevant_places,
    signature,
    square_class,
    standard_atilde,
)

H = QuadraticLattice([[0, 1], [1, 0]])


def solvable_oracle(a, b, v, k_two=6, k_odd=3):
    """Does z^2 = a x^2 + b y^2 have a nontrivial solution over Q_v?

    Search for a primitive solution mod p^k; at these depths the search is
    decisive for the squarefree-reduced small inputs used in tests.
    """
    if v.is_real:
        return a > 0 or b > 0
    p = v.p
    a = Fraction(a)
    b = Fraction(b)
    # scale by squares to integers
    a = a.numerator * a.denominator
    b = b.numerator * b.denominator
    k = k_two if p == 2 else k_odd
    mod = p**k
    squares = {}
    for z in range(mod):
        squares.setdefault(z * z % mod, z)
    for x, y in itertools.product(range(mod), repeat=2):
        c = (a * x * x + b * y * y) % mod
        z = squares.get(c)
        if z is None:
            continue
        if x % p or y % p or z % p:
            return True
    return False


class TestDiagonalize:
    def test_hyperbolic_plane(self):
        # diag is (1,-1) up to squares at the form level: one positive and one
        # negative entry, discriminant class -1, verified by the matrix product
        diag, T = diagonalize(H)
        assert la.mat_eq(
            la.mat_mul(la.mat_mul(la.transpose(T), H.gram), T),
            la.mat([[diag[0], 0], [0, diag[1]]]),
        )
        assert sorted(d > 0 for d in diag) == [False, True]
        assert square_class(diag[0] * diag[1]) == -1

    def test_already_diagonal(self):
        L = QuadraticLattice([[2, 0], [0, -3]])
        diag, T = diagonalize(L)
        assert diag == (Fraction(2), Fraction(-3))
        assert la.mat_eq(T, la.identity(2))

    def test_complete_the_square(self):
        L = QuadraticLattice([[2, 1], [1, 2]])
        diag, T = diagonalize(L)
        assert diag == (Fraction(2), Fraction(3, 2))
        D = la.mat_mul(la.mat_mul(la.transpose(T), L.gram), T)
        assert la.mat_eq(D, la.mat([[2, 0], [0, Fraction(3, 2)]]))

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateForm):
            diagonalize(QuadraticLattice([[1, 1], [1, 1]]))


class TestDiscriminantSignature:
    def test_disc_examples(self):
        assert discriminant(H) == -1
        assert discriminant(QuadraticLattice([[1, 0, 0], [0, 1, 0], [0, 0, -1]])) == -1
        assert discriminant(QuadraticLattice([[2, 0, 0], [0, -3, 0], [0, 0, -5]])) == 30

    def test_signature_examples(self):
        assert signature(QuadraticLattice([[1, 0, 0], [0, 1, 0], [0, 0, -1]])) == (2, 1)
        assert signature(H) == (1, 1)
        assert signature(QuadraticLattice([[-1, 0], [0, -1]])) == (0, 2)

    def test_signature_invariant_under_basis_change(self):
        rng = random.Random(7)
        L = QuadraticLattice([[2, 1, 0], [1, -3, 1], [0, 1, 5]])
        sig = signature(L)
        d0 = discriminant(L)
        for _ in range(25):
            T = _random_invertible(rng, 3)
            G2 = la.mat_mul(la.mat_mul(la.transpose(T), L.gram), T)
            L2 = QuadraticLattice(G2)
            assert signature(L2) == sig
            assert discriminant(L2) == d0 * la.determinant(T) ** 2


def _random_invertible(rng, n):
    while True:
        T = la.mat([[Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2])) for _ in range(n)]
                    for _ in range(n)])
        if la.determinant(T) != 0:
            return T


class TestHilbertSymbol:
    def test_one_is_trivial(self):
        for v in [REAL_PLACE, Place(2), Place(3), Place(5)]:
            assert hilbert_symbol(1, Fraction(-7, 3), v) == 1

    def test_minus_one_minus_one_real(self):
        assert hilbert_symbol(-1, -1, REAL_PLACE) == -1

    def test_minus_one_minus_one_at_two_oracle(self):
        assert not solvable_oracle(-1, -1, Place(2))
        assert hilbert_symbol(-1, -1, Place(2)) == -1

    def test_three_five_product_formula(self):
        vals = {}
        for v in [REAL_PLACE, Place(2), Place(3), Place(5)]:
            vals[v] = hilbert_symbol(3, 5, v)
            assert vals[v] == (1 if solvable_oracle(3, 5, v) else -1)
        prod = 1
        for s in vals.values():
            prod *= s
        assert prod == 1

    @pytest.mark.parametrize("a,b", [(2, 3), (-2, 5), (6, -10), (Fraction(1, 2), 7),
                                     (-1, 2), (5, 5), (-6, -15)])
    def test_closed_form_matches_oracle(self, a, b):
        for v in relevant_places(a, b):
            got = hilbert_symbol(a, b, v)
            want = 1 if solvable_oracle(a, b, v) else -1
            assert got == want, (a, b, v)

    def test_product_formula_random(self):
        rng = random.Random(11)
        for _ in range(200):
            a = Fraction(rng.choice([n for n in range(-30, 31) if n]),
                         rng.choice([1, 2, 3, 5]))
            b = Fraction(rng.choice([n for n in range(-30, 31) if n]),
                         rng.choice([1, 2, 3, 7]))
            prod = 1
            for v in relevant_places(a, b):
                prod *= hilbert_symbol(a, b, v)
            assert prod == 1, (a, b)

    @given(st.integers(-40, 40).filter(bool), st.integers(-40, 40).filter(bool),
           st.sampled_from([None, 2, 3, 5, 7, 11]))
    @settings(max_examples=120, deadline=None)
    def test_symmetry_and_bimultiplicativity(self, a, b, p):
        v = Place(p)
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
        a2 = a * 3 if a * 3 != 0 else 3
        assert hilbert_symbol(a * a2, b, v) == hilbert_symbol(a, b, v) * hilbert_symbol(a2, b, v)


class TestHasse:
    def test_identity_form_trivial(self):
        L = QuadraticLattice(la.identity(4))
        for v in [REAL_PLACE, Place(2), Place(3)]:
            assert hasse_invariant(L, v) == 1

    def test_minus_identity_at_two(self):
        L = QuadraticLattice([[-1, 0], [0, -1]])
        assert hasse_invariant(L, Place(2)) == hilbert_symbol(-1, -1, Place(2)) == -1

    def test_hyperbolic_plane_everywhere_trivial(self):
        for p in [2, 3, 5, 7, 11, 13]:
            assert hasse_invariant(H, Place(p)) == 1

    def test_basis_invariance(self):
        rng = random.Random(3)
        L = QuadraticLattice([[1, 0, 0], [0, 2, 1], [0, 1, -5]])
        base = {p: hasse_invariant(L, Place(p)) for p in [2, 3, 5, 7]}
        for _ in range(50):
            T = _random_invertible(rng, 3)
            L2 = QuadraticLattice(la.mat_mul(la.mat_mul(la.transpose(T), L.gram), T))
            for p, h in base.items():
                assert hasse_invariant(L2, Place(p)) == h


class TestIsotropicSplit:
    def test_hyperbolic(self):
        e1, e2 = find_isotropic_split(H, 1)
        assert H.quadratic(e1) == 0
        assert H.bilinear(e1, e2) == 1

    def test_diag_1_minus1(self):
        res = find_isotropic_split(QuadraticLattice([[1, 0], [0, -1]]), 2)
        assert res is not None
        e1, e2 = res
        L = QuadraticLattice([[1, 0], [0, -1]])
        assert L.quadratic(e1) == 0
        assert L.bilinear(e1, e2) == 1

    def test_definite_has_none(self):
        assert find_isotropic_split(QuadraticLattice(la.identity(3)), 10) is None

    def test_complement_is_orthogonal(self):
        L = standard_atilde(3)
        e1, e2 = find_isotropic_split(L, 1)
        U = orthogonal_complement_basis(L, [e1, e2])
        assert len(U) == 3
        for u in U:
            assert L.bilinear(u, e1) == 0 and L.bilinear(u, e2) == 0


def test_atilde_shape_checks():
    assert atilde_block(standard_atilde(2)) == ()
    assert atilde_block(standard_atilde(4)) == ((-2, 0), (0, -2))
    assert atilde_block(QuadraticLattice(la.identity(4))) is None
    # positive-definite corner block breaks the (2, n) bookkeeping
    bad = standard_atilde(3)
    G = [list(r) for r in bad.gram]
    G[4][4] = Fraction(2)
    assert atilde_block(QuadraticLattice(G)) is None


@pytest.mark.parametrize("n, block", [(3, [[-2, 0], [0, -2]]), (4, [[-2]]),
                                      (2, [[-2]]), (4, [[-2, 0], [0]])])
def test_atilde_block_must_be_n_minus_2_square(n, block):
    from orthocusp.domains import standard_bounded_frame

    with pytest.raises(ValueError, match="block must be"):
        standard_atilde(n, block)
    with pytest.raises(ValueError, match="block must be"):
        standard_bounded_frame(n, block)


def test_lattice_roundtrip_format():
    from orthocusp.reportio import lattice_from_json, lattice_to_json

    L = QuadraticLattice([[Fraction(1, 2), 1], [1, -3]])
    blob = lattice_to_json(L)
    assert lattice_from_json(blob) == L
