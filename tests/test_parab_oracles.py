"""The Eichler-transformation code of parab against the code it replaced.

The references below are the parabolic code as it was before every
unipotent element became an Eichler transformation E(e, a): the
unipotent matrices filled entry by entry from g^t Atilde g = Atilde, the
Levi action on centre coordinates computed by conjugation with a matrix
inverse, and the adjacency record computed by moving the line to span(v0)
with an SL2 change of basis on both hyperbolic pairs.  They are kept only
as oracles.
"""

import random
from fractions import Fraction as F
from math import gcd

import pytest

from orthocusp import _linalg as la
from orthocusp.errors import UnsupportedShape
from orthocusp.parab import (
    CuspFlag,
    adjacency_data,
    build_unipotent,
    center_element,
    levi_cone_action,
)
from orthocusp.qform import QuadraticLattice, standard_atilde

BLOCKS = {
    2: [None],
    3: [None, [[-6]]],
    4: [None, [[-2, -1], [-1, -4]]],
    5: [None, [[-2, 1, 0], [1, -2, 1], [0, 1, -4]]],
}


def reference_build_unipotent(flag, params):
    """rank-1 params (y1, y3, y4vec), rank-2 params (y4vec, z4vec, x3)."""
    m = flag.lattice.rank
    A = flag.block
    g = [[F(int(i == j)) for j in range(m)] for i in range(m)]
    if flag.kind == "rank1":
        y1, y3, y4 = F(params[0]), F(params[1]), la.vec(params[2])
        Ay4 = la.mat_vec(A, y4) if A else ()
        g[0][1] = -y1
        g[0][3] = -y3
        g[1][2] = y3
        g[3][2] = y1
        g[0][2] = -(y1 * y3 + F(1, 2) * la.form(A, y4, y4))
        for k in range(m - 4):
            g[4 + k][2] = y4[k]
            g[0][4 + k] = -Ay4[k]
        return la.mat(g)
    y4, z4, x3 = la.vec(params[0]), la.vec(params[1]), F(params[2])
    Ay4 = la.mat_vec(A, y4) if A else ()
    Az4 = la.mat_vec(A, z4) if A else ()
    g[0][2] = -F(1, 2) * la.form(A, y4, y4)
    g[1][3] = -F(1, 2) * la.form(A, z4, z4)
    g[0][3] = x3
    g[1][2] = -la.form(A, y4, z4) - x3
    for k in range(m - 4):
        g[4 + k][2] = y4[k]
        g[4 + k][3] = z4[k]
        g[0][4 + k] = -Ay4[k]
        g[1][4 + k] = -Az4[k]
    return la.mat(g)


def reference_center_element(flag, w1):
    zeros = (0,) * (flag.lattice.rank - 4)
    return reference_build_unipotent(flag, (zeros, zeros, -F(w1)))


def reference_rank1_params(g):
    return (g[3][2], g[1][2], tuple(row[2] for row in g[4:]))


def reference_levi_cone_action(g, flag, u):
    """g u g^-1 read back in centre coordinates."""
    if flag.kind == "rank1":
        elem = reference_build_unipotent(flag, u)
    else:
        elem = reference_center_element(flag, u[0])
    conj = la.mat_mul(la.mat_mul(g, elem), la.inverse(g))
    if flag.kind == "rank1":
        return reference_rank1_params(conj)
    return (conj[1][2],)


def reference_adjacency_data(f2, f1_generator):
    """Move the line to span(v0) by an SL2 change h and read h^-1 c h."""
    e = la.vec(f1_generator)
    m = f2.lattice.rank
    if any(e[k] != 0 for k in range(2, m)):
        return None
    c0, c1 = int(e[0]), int(e[1])
    assert gcd(c0, c1) == 1
    h = [[F(int(i == j)) for j in range(m)] for i in range(m)]
    _, alpha, beta = la.ext_gcd(c0, c1)
    h[0][0], h[1][0] = F(c0), F(c1)
    h[0][1], h[1][1] = F(-beta), F(alpha)
    inv_t = la.transpose(la.inverse(la.mat([[c0, -beta], [c1, alpha]])))
    h[2][2], h[2][3] = inv_t[0][0], inv_t[0][1]
    h[3][2], h[3][3] = inv_t[1][0], inv_t[1][1]
    h = la.mat(h)
    assert la.preserves_form(h, f2.lattice.gram)
    flag1 = CuspFlag("rank1", f2.lattice, f2.block)
    moved = la.mat_mul(la.mat_mul(la.inverse(h), reference_center_element(f2, 1)), h)
    y1, y3, y4 = reference_rank1_params(moved)
    if not la.mat_eq(moved, reference_build_unipotent(flag1, (y1, y3, y4))) \
            or not la.preserves_form(moved, f2.lattice.gram):
        return None
    ray = la.primitive((y1, y3) + tuple(y4))
    qval = ray[0] * ray[1] + F(1, 2) * la.form(f2.block, ray[2:], ray[2:])
    return ((y1, y3, y4), ray, qval == 0)


def record(rec):
    return None if rec is None else (rec.inclusion, rec.ray, rec.ray_is_isotropic)


def flags():
    for n, blocks in BLOCKS.items():
        for block in blocks:
            L = standard_atilde(n, block)
            yield CuspFlag.from_lattice(L, "rank1"), CuspFlag.from_lattice(L, "rank2")


def rand_frac(rng):
    return F(rng.randint(-4, 4), rng.randint(1, 4))


def rand_params(rng, flag):
    k = flag.n - 2
    if flag.kind == "rank1":
        return (rand_frac(rng), rand_frac(rng), tuple(rand_frac(rng) for _ in range(k)))
    return (tuple(rand_frac(rng) for _ in range(k)),
            tuple(rand_frac(rng) for _ in range(k)), rand_frac(rng))


def rand_torus(rng, m):
    a, t = (F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)) for _ in range(2))
    g = [[F(int(i == j)) for j in range(m)] for i in range(m)]
    g[0][0], g[2][2], g[1][1], g[3][3] = a, 1 / a, t, 1 / t
    return la.mat(g)


def rand_sl2(rng, m, lower=False):
    """[[1, s], [0, 1]] (or its transpose) on (v0, v1) and its inverse
    transpose on (v2, v3); the upper one fixes v0."""
    s = rand_frac(rng)
    g = [[F(int(i == j)) for j in range(m)] for i in range(m)]
    if lower:
        g[1][0], g[2][3] = s, -s
    else:
        g[0][1], g[3][2] = s, -s
    return la.mat(g)


def test_build_unipotent_matches_reference():
    rng = random.Random(2701)
    for f1, f2 in flags():
        for _ in range(40):
            for flag in (f1, f2):
                p = rand_params(rng, flag)
                assert build_unipotent(flag, p) == reference_build_unipotent(flag, p)
            w1 = rand_frac(rng)
            assert center_element(f2, w1) == reference_center_element(f2, w1)


def test_levi_cone_action_matches_conjugation():
    rng = random.Random(2702)
    for f1, f2 in flags():
        m, G = f1.lattice.rank, f1.lattice.gram
        for _ in range(30):
            factors = [rand_torus(rng, m), rand_sl2(rng, m),
                       build_unipotent(f1, rand_params(rng, f1)),
                       build_unipotent(f2, rand_params(rng, f2))]
            rng.shuffle(factors)
            g = factors[0]
            for h in factors[1:]:
                g = la.mat_mul(g, h)
            assert la.preserves_form(g, G)
            u = rand_params(rng, f1)
            assert levi_cone_action(g, f1, u) == reference_levi_cone_action(g, f1, u)
            # span(v0, v1) is stable under all of GL2, not only the upper half
            g = la.mat_mul(g, rand_sl2(rng, m, lower=True))
            assert la.preserves_form(g, G)
            w = (rand_frac(rng),)
            assert levi_cone_action(g, f2, w) == reference_levi_cone_action(g, f2, w)


def test_every_line_in_the_plane_gets_the_span_v0_record():
    for _, f2 in flags():
        zeros = (0,) * (f2.lattice.rank - 2)
        first = record(adjacency_data(f2, (1, 0) + zeros))
        assert first[0][:2] == (0, 1) and first[2]
        for a in range(-5, 6):
            for b in range(-5, 6):
                if gcd(a, b) != 1:
                    continue
                generator = (a, b) + zeros
                assert record(adjacency_data(f2, generator)) == first
                assert reference_adjacency_data(f2, generator) == first


@pytest.mark.parametrize("block", [(), ((F(1),),)])
def test_adjacency_refuses_a_directly_built_flag_without_the_shape(block):
    f2 = CuspFlag("rank2", QuadraticLattice(la.identity(5)), block)
    for generator in [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (1, 1, 0, 0, 0),
                      (2, -3, 0, 0, 0), (0, 0, 1, 0, 0)]:
        with pytest.raises(UnsupportedShape):
            adjacency_data(f2, generator)
