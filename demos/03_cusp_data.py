"""Parabolic and cusp data at the two boundary types of O(2,n).

Builds unipotent elements from the displayed parameters, checks the
isometry condition, the cone inequalities, and the adjacency of a point
cusp inside a curve cusp.
"""

from fractions import Fraction as F

from orthocusp import _linalg as la
from orthocusp.parab import (
    CuspFlag,
    adjacency_data,
    boundary_data,
    build_unipotent,
    center_element,
    omega_member,
)
from orthocusp.qform import standard_atilde

L = standard_atilde(3)
f1 = CuspFlag.from_lattice(L, "rank1")
f2 = CuspFlag.from_lattice(L, "rank2")

for flag in (f1, f2):
    bd = boundary_data(flag)
    print(f"{flag.kind} cusp: dim U = {bd.u_dim}, dim V = {bd.v_dim}, "
          f"dim F = {bd.f_dim}  (sum = n = {flag.n})")
    print("   cone:", bd.cone["inequalities"])
print("rank-2 fibre description:", boundary_data(f2).fibration)

print()
g = build_unipotent(f1, (F(1), F(0), (F(0),)))
print("rank-1 unipotent with (y1, y3, y4) = (1, 0, 0):")
for row in g:
    print("  ", [str(x) for x in row])
G = L.gram
print("  g^t A g == A:", la.mat_eq(la.mat_mul(la.mat_mul(la.transpose(g), G), g), G))

print()
print("cone membership in the rank-1 centre:")
for u in [(1, 1, (0,)), (1, -1, (0,)), (2, 1, (1,))]:
    print("  ", u, "->", omega_member(u, f1))
print("rank-2 half-line: w1 = 5 ->", omega_member((5,), f2),
      ", w1 = -1 ->", omega_member((-1,), f2))

print()
print("adjacency of the point cusp span(e1) inside the curve cusp span(e1,e2):")
rec = adjacency_data(f2, (1, 0, 0, 0, 0))
print("  centre inclusion w1 -> (y1, y3, y4) =", rec.inclusion)
print("  image ray", rec.ray, "is isotropic on the cone boundary:",
      rec.ray_is_isotropic)
print("  line e3 outside the plane ->", adjacency_data(f2, (0, 0, 1, 0, 0)))

c = center_element(f2, F(1))
u = build_unipotent(f2, ((F(1),), (F(2),), F(3)))
conj = la.mat_mul(la.mat_mul(u, c), la.inverse(u))
print("  the image ray is fixed under conjugation by rank-2 unipotents:",
      la.mat_eq(conj, c))
