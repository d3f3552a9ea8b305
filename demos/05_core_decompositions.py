"""Windowed cores, co-cores, and support-hyperplane fans.

All computations carry an H-versus-2H stability certificate; the module
reports window-level evidence, never global claims.
"""

from fractions import Fraction as F

from orthocusp.corecone import (
    ExtremeSet,
    core_extremes,
    first_quadrant_cone,
    gamma_check,
    light_cone,
    support_fan,
)
from orthocusp.fan import validate_fan

fq = first_quadrant_cone()
print("first quadrant (q = 2xy):")
for variant in ("central", "perfect", "central_dual"):
    E = core_extremes(fq, variant, 4)
    print(f"  {variant:12} window extreme points: {list(E.points)}  "
          f"stable at H=4 vs H=8: {E.stable}")

E = core_extremes(fq, "perfect", 4)
fan, rep = support_fan(E, fq)
print("  support fan from E = {(1,1)}: degenerate =", rep.degenerate)
print("   ", rep.warnings[0][:72], "...")
print("  trivial fan cone:", [list(c.rays) for c in fan.top_cones()])

print()
print("a custom kernel with three vertices subdividing the quadrant:")
E2 = ExtremeSet(points=((1, 0), (F(1, 3), F(1, 3)), (0, 1)),
                truncation=4, variant="custom", stable=True)
fan2, rep2 = support_fan(E2, fq)
print("  support functionals:", [list(map(str, y)) for y in rep2.functionals])
print("  top cones:", sorted(list(c.rays) for c in fan2.top_cones()))
print("  valid fan:", validate_fan(fan2).valid)

print()
lc = light_cone(2)
print("rank-3 light cone x^2 > y^2 + z^2:")
E3 = core_extremes(lc, "central", 4)
print("  central core window vertices (H=4, certified at 2H):", list(E3.points))
E4 = core_extremes(lc, "central_dual", 2)
print("  co-core vertices:", list(E4.points))
fan3, rep3 = support_fan(E4, lc, window=4)
print("  co-core support fan: degenerate =", rep3.degenerate,
      " top cones =", [list(c.rays) for c in fan3.top_cones()])

print()
print("group compatibility on a hyperbolic example (q = x^2 - 2 y^2):")
from orthocusp.corecone import SelfAdjointCone
from orthocusp import _linalg as la

cone = SelfAdjointCone([[1, 0], [0, -2]], (1, 0))
g = ((3, 4), (2, 3))  # the fundamental unit 3 + 2 sqrt(2)
rays = [(1, 0)]
for _ in range(3):
    rays.append(tuple(int(x) for x in la.mat_vec(g, rays[-1])))
from orthocusp.fan import RationalCone, fan_from_maximal

fan4 = fan_from_maximal([RationalCone([rays[i], rays[i + 1]], 2) for i in range(3)], 2)
rep4 = gamma_check(fan4, [g], cone, window_bound=120)
print("  window cones all in one unit-orbit:", len(rep4.orbits) == 1,
      "; truncation-excused images:", len(rep4.excused))
