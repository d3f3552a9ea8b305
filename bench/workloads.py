"""The benchmark's workloads: input files, CLI cases and independent checks.

Every case is an ``orthocusp`` argv.  A token ``@name`` stands for the path
of the input file ``name`` inside the worker's fresh work directory; the
worker appends ``--out <path>`` itself.  Case ids are unique across
workloads and key the committed digests in ``expected.json``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction


def _gram(rows):
    return {"gram": [[str(x) for x in row] for row in rows]}


def _face_closed(maximal):
    """Fan blob holding every face of the given simplicial maximal cones."""
    faces = set()
    for rays in maximal:
        for k in range(len(rays) + 1):
            faces.update(tuple(sorted(s)) for s in itertools.combinations(rays, k))
    return {"cones": [{"rays": [list(r) for r in f]} for f in sorted(faces)]}


_ATILDE = _gram([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
_P1_CUBED = [((sx, 0, 0), (0, sy, 0), (0, 0, sz))
             for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
_P3_RAYS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
_P3 = [tuple(r for j, r in enumerate(_P3_RAYS) if j != i) for i in range(4)]

INPUTS = {
    # cli17: the acceptance-11 inputs
    "hyp.json": _gram([[0, 1], [1, 0]]),
    "g3.json": _gram([[1, 0, 0], [0, 1, 0], [0, 0, -1]]),
    "at.json": _ATILDE,
    "fan.json": {"rank": 2, "cones": [
        {"rays": [[1, 0], [0, 1]]}, {"rays": [[0, 1], [-1, -1]]},
        {"rays": [[-1, -1], [1, 0]]}, {"rays": [[1, 0]]}, {"rays": [[0, 1]]},
        {"rays": [[-1, -1]]}, {"rays": []}]},
    "one.json": _gram([[1]]),
    "a2gram.json": _gram([[2, 1], [1, 2]]),
    "pt.json": {"model": "bounded", "coords": [["1/8", "1/9"], ["-1/7", "0"]],
                "frame": _ATILDE},
    # ramify
    "a2m1.json": _gram([[2, 1, 0], [1, 2, 0], [0, 0, -1]]),
    "um2.json": _gram([[0, 1, 0], [1, 0, 0], [0, 0, -2]]),
    "g4.json": _gram([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]),
    # polyhedra: light_cone(2), the signature-(1,2) form diag(1,-1,-1)
    "lc2.json": _gram([[1, 0, 0], [0, -1, 0], [0, 0, -1]]),
    "lc2gens.json": {"generators": [[[1, 0, 0], [0, 0, 1], [0, 1, 0]],
                                    [[1, 0, 0], [0, -1, 0], [0, 0, 1]]]},
    "p1cubed.json": {"rank": 3, **_face_closed(_P1_CUBED)},
    "p3.json": {"rank": 3, **_face_closed(_P3)},
    # density
    "i2.json": _gram([[1, 0], [0, 1]]),
    "h2.json": _gram([[1, 0], [0, -1]]),
    "u.json": _gram([[0, 1], [1, 0]]),
    "d23.json": _gram([[2, 0], [0, -3]]),
}


def _legendre(a, p):
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def unimodular_rank2_density(gram, p):
    """2(1 - (-det | p)/p): alpha_p of a rank-2 lattice with p odd, p not | det."""
    det = gram[0][0] * gram[1][1] - gram[0][1] * gram[1][0]
    return 2 * (1 - Fraction(_legendre(-det, p), p))


def _density_check(name, p):
    want = unimodular_rank2_density([[int(x) for x in row] for row in INPUTS[name]["gram"]], p)

    def check(report):
        got = Fraction(report["results"]["alpha_p"])
        return None if got == want else f"alpha_p {got} != 2(1-(-det|p)/p) = {want}"
    return check


def _group_size_check(want):
    def check(report):
        got = report["results"]["group_size"]
        return None if got == want else f"group_size {got} != {want}"
    return check


@dataclass(frozen=True)
class Case:
    id: str
    argv: tuple
    check: object = None  # report dict -> error string or None

    def inputs(self):
        return [a[1:] for a in self.argv if a.startswith("@")]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cases: tuple

    def inputs(self):
        return sorted({f for c in self.cases for f in c.inputs()})


def _cases(prefix, rows):
    out = []
    for i, row in enumerate(rows):
        argv, check = (row if isinstance(row, tuple) else (row, None))
        label = "-".join(a for a in argv[:2] if not a.startswith(("-", "@")))
        out.append(Case(f"{prefix}/{i:02d}-{label}", tuple(argv), check))
    return tuple(out)


CLI17 = Workload(
    "cli17",
    "The 17 acceptance-11 CLI cases: the only workload through reportio, chern, "
    "domains, parab and qform invariants, and the control for every heavy-layer change.",
    _cases("cli17", [
        ["invariants", "--gram", "@hyp.json", "--primes", "2,3,5"],
        ["map-point", "--point", "@pt.json", "--from", "bounded", "--to", "projective"],
        ["cusp", "--gram", "@at.json", "--flag", "rank1"],
        ["cusp", "--gram", "@at.json", "--flag", "rank2"],
        ["fan", "validate", "--fan", "@fan.json"],
        ["fan", "complete", "--fan", "@fan.json"],
        ["fan", "regular", "--fan", "@fan.json"],
        ["fan", "chart", "--fan", "@fan.json", "--cone", "0"],
        ["fan", "subdivide", "--fan", "@fan.json"],
        ["core-decompose", "--gram", "@hyp.json", "--positivity", "1,1",
         "--variant", "perfect", "--height", "4"],
        ["chern", "td", "--degree", "4"],
        ["chern", "q-poly", "--dim", "3", "--rank", "2"],
        ["hilbert-poly", "--n", "4"],
        ["local-density", "--gram", "@one.json", "--p", "5"],
        ["hm-volume", "--gram", "@g3.json", "--alpha-inf", "1"],
        ["dim-leading", "--gram", "@g3.json", "--ell", "4", "--alpha-inf", "1"],
        (["ramify", "--gram", "@a2gram.json", "--bound", "1"], _group_size_check(12)),
    ]),
)

RAMIFY = Workload(
    "ramify",
    "Isometry enumeration and ramification on four signature-(2,n) lattices: "
    "bilinear-driven backtracking at rank 3, matrix_order at rank 4; no LP.",
    _cases("ramify", [
        ["ramify", "--gram", "@g3.json", "--bound", "2"],
        ["ramify", "--gram", "@a2m1.json", "--bound", "2"],
        ["ramify", "--gram", "@um2.json", "--bound", "2"],
        ["ramify", "--gram", "@g4.json", "--bound", "1"],
    ]),
)

POLYHEDRA = Workload(
    "polyhedra",
    "Three core decompositions of light_cone(2) and three rank-3 fan commands: "
    "exact LP, window scans and cone intersections; no isometry enumeration.",
    _cases("polyhedra", [
        ["core-decompose", "--gram", "@lc2.json", "--variant", "perfect", "--height", "3"],
        ["core-decompose", "--gram", "@lc2.json", "--variant", "central", "--height", "3"],
        ["core-decompose", "--gram", "@lc2.json", "--variant", "central_dual",
         "--height", "2", "--gens", "@lc2gens.json"],
        ["fan", "validate", "--fan", "@p1cubed.json"],
        ["fan", "subdivide", "--fan", "@p1cubed.json"],
        ["fan", "complete", "--fan", "@p3.json"],
    ]),
)

DENSITY = Workload(
    "density",
    "Six rank-2 local densities, two with p | det: pure-integer congruence "
    "counting, and the no-change control for any Fraction linear-algebra path.",
    _cases("density", [
        ["local-density", "--gram", "@a2gram.json", "--p", "3"],
        (["local-density", "--gram", "@a2gram.json", "--p", "5"],
         _density_check("a2gram.json", 5)),
        (["local-density", "--gram", "@i2.json", "--p", "5"], _density_check("i2.json", 5)),
        (["local-density", "--gram", "@h2.json", "--p", "5"], _density_check("h2.json", 5)),
        (["local-density", "--gram", "@u.json", "--p", "5"], _density_check("u.json", 5)),
        ["local-density", "--gram", "@d23.json", "--p", "3"],
    ]),
)

# The three heavy workloads run as one in BENCHMARK.json: a run must last
# about a minute to average out the host's drifting share of slow time, and
# the time allowed for all runs fits only two workloads of that length.
# run.py prints each group's part of pass_min_s.
HEAVY = Workload(
    "heavy",
    "The ramify, polyhedra and density cases in one pass: isometry enumeration "
    "and matrix_order, exact LP and cone intersections, and integer congruence "
    "counting.",
    RAMIFY.cases + POLYHEDRA.cases + DENSITY.cases,
)

WORKLOADS = {w.name: w for w in (CLI17, RAMIFY, POLYHEDRA, DENSITY, HEAVY)}

# ROADMAP cases left out of the workloads.  Each is its own later benchmark
# change; costs are single wall-time runs on the 2-core reference host.
EXCLUDED = (
    "ramify on U+U with bound 1: 28 s, over one run's time budget",
    "perfect core-decompose on light_cone(3) with H=2: 107 s, over the budget",
    "validate_fan on the rank-4 P^4 fan: 18 s, over the budget next to polyhedra",
    "local-density on <1,1,-1> at p=3: fails today with NotStabilized",
    "central core-decompose on light_cone(2) with H=2: fails today with "
    "UnstableTruncation",
)
