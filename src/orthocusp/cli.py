"""Command-line front end: deterministic JSON reports over all modules.

Exit codes: 0 success, 1 domain error, 2 usage error.  A domain error
writes a canonical "error" report to stdout, also when --out is given; a
usage error writes one line to stderr.
Rationals are serialized as strings; float-mode values are tagged.  The
ORTHOCUSP_THREADS environment variable caps internal parallelism (the
current implementations are sequential, i.e. one worker, which always
respects the cap).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import reportio as io
from .errors import DeskScopeError, OrthocuspError, UnsupportedShape, UsageError
from .qform import Place, REAL_PLACE, discriminant, hasse_invariant, signature


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}")
    except json.JSONDecodeError as e:
        raise UsageError(f"bad JSON in {path}: {e}")


def thread_cap() -> int:
    raw = os.environ.get("ORTHOCUSP_THREADS", "1")
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError("ORTHOCUSP_THREADS must be an integer")
    if cap < 1:
        raise UsageError("ORTHOCUSP_THREADS must be >= 1")
    return cap


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are UsageErrors: main prints each as
    one `usage error:` line with exit code 2."""

    def error(self, message):
        raise UsageError(message)


class _AtLeast(argparse.Action):
    """Store an int option, refusing one below const as a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values < self.const:
            parser.error(f"{option_string} must be >= {self.const}")
        setattr(namespace, self.dest, values)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, so every main call shares it.  Each command's parser names the
    cmd_* function that runs it (func), and each integer option its least
    value."""
    p = _Parser(prog="orthocusp", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path (default stdout)")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, func, **kw):
        parser = sub.add_parser(name, parents=[common], **kw)
        parser.set_defaults(func=func)
        return parser

    inv = add("invariants", cmd_invariants, help="discriminant, signature, Hasse data")
    inv.add_argument("--gram", required=True)
    inv.add_argument("--primes", default="2,3,5")

    mp = add("map-point", cmd_map_point, help="convert a point between models")
    mp.add_argument("--point", required=True)
    mp.add_argument("--from", dest="src", required=True,
                    choices=["projective", "tube", "bounded"])
    mp.add_argument("--to", dest="dst", required=True,
                    choices=["projective", "tube", "bounded"])
    mp.add_argument("--mode", default="exact", choices=["exact", "float"])
    mp.add_argument("--tol", type=float, default=1e-9)

    cu = add("cusp", cmd_cusp, help="boundary data for a cusp flag")
    cu.add_argument("--gram", required=True)
    cu.add_argument("--flag", required=True, choices=["rank1", "rank2"])

    fa = add("fan", cmd_fan, help="fan predicates and constructions")
    fa.add_argument("action", choices=["validate", "subdivide", "complete",
                                       "regular", "chart"])
    fa.add_argument("--fan", required=True)
    fa.add_argument("--cone", type=int, default=None,
                    help="index into the fan's cone list")

    cd = add("core-decompose", cmd_core_decompose, help="windowed core/co-core fan")
    cd.add_argument("--gram", required=True)
    cd.add_argument("--positivity", default=None,
                    help="comma-separated positivity covector (default e1)")
    cd.add_argument("--variant", default="perfect",
                    choices=["central", "perfect", "central_dual"])
    cd.add_argument("--height", type=int, required=True, action=_AtLeast, const=1)
    cd.add_argument("--gens", default=None, help="JSON file with generator matrices")

    ch = add("chern", cmd_chern, help="characteristic-class tables")
    chsub = ch.add_subparsers(dest="chern_action", required=True)
    td = chsub.add_parser("td", parents=[common])
    td.add_argument("--degree", type=int, required=True, action=_AtLeast, const=0)
    qp = chsub.add_parser("q-poly", parents=[common])
    qp.add_argument("--dim", type=int, required=True, action=_AtLeast, const=0)
    qp.add_argument("--rank", type=int, required=True, action=_AtLeast, const=0)

    hp = add("hilbert-poly", cmd_hilbert_poly, help="Hilbert polynomial of the compact dual")
    hp.add_argument("--n", type=int, required=True, action=_AtLeast, const=1)

    ld = add("local-density", cmd_local_density, help="congruence-counting local density")
    ld.add_argument("--gram", required=True)
    ld.add_argument("--p", type=int, required=True)
    ld.add_argument("--kmax", type=int, default=4, action=_AtLeast, const=1)

    hv = add("hm-volume", cmd_hm_volume, help="Hirzebruch-Mumford volume")
    hv.add_argument("--gram", required=True)
    hv.add_argument("--alpha-inf", default=None)
    hv.add_argument("--densities", default=None)
    hv.add_argument("--spn", type=int, action=_AtLeast, const=1)

    dl = add("dim-leading", cmd_dim_leading, help="leading term of dim S_ell")
    dl.add_argument("--gram", required=True)
    dl.add_argument("--ell", type=int, required=True, action=_AtLeast, const=2)
    dl.add_argument("--alpha-inf", default=None)
    dl.add_argument("--densities", default=None)
    dl.add_argument("--spn", type=int, action=_AtLeast, const=1)

    ra = add("ramify", cmd_ramify, help="classify ramification of enumerated isometries")
    ra.add_argument("--gram", required=True)
    ra.add_argument("--bound", type=int, required=True, action=_AtLeast, const=1)
    return p


def cmd_invariants(args):
    L = io.lattice_from_json(_read_json(args.gram))
    try:
        primes = [int(x) for x in args.primes.split(",") if x.strip()]
    except ValueError:
        raise UsageError("--primes must be a comma-separated list of primes")
    try:
        places = [REAL_PLACE] + [Place(p) for p in primes]
    except ValueError as e:
        raise UsageError(f"--primes: {e}")
    hasse = {}
    for v in places:
        key = "oo" if v.is_real else str(v.p)
        hasse[key] = hasse_invariant(L, v)
    return io.make_report(
        "invariants",
        {
            "disc": discriminant(L),
            "signature": list(signature(L)),
            "hasse": hasse,
        },
    )


def _parse_point(blob, mode, src):
    from .domains import BoundedFrame, BoundedPoint, Frame, ProjPoint, TubePoint
    from .qform import find_isotropic_split, orthogonal_complement_basis

    model, coords, lattice, split = io.point_from_json(blob, mode)
    if model != src:
        raise UsageError(f"point file is a {model!r} point, not {src!r}")
    frame = None
    if split is None:
        try:
            frame = BoundedFrame(lattice)
        except UnsupportedShape:
            split = find_isotropic_split(lattice, height=2)
            if split is None:
                raise UsageError("frame needs an explicit e1/e2 split "
                                 "(no small isotropic vector found)") from None
            split += (None,)
    if frame is None:
        e1, e2, u_basis = split
        if u_basis is None:
            u_basis = orthogonal_complement_basis(lattice, [e1, e2])
        if any(len(v) != lattice.rank for v in (e1, e2, *u_basis)):
            raise UsageError(f"frame vectors need {lattice.rank} coordinates")
        try:
            frame = Frame(lattice, e1, e2, u_basis)
        except (ValueError, ZeroDivisionError) as e:
            raise UsageError(f"bad frame: {e}")
    if model == "bounded" and not isinstance(frame, BoundedFrame):
        raise UsageError("bounded-model points need the two-hyperbolic-planes shape")
    size = lattice.rank if model == "projective" else frame.n
    if len(coords) != size:
        raise UsageError(f"a {model} point in this frame needs {size} coordinates")
    if not coords:
        raise UsageError(f"this frame has no {model} coordinates")
    point = {"projective": ProjPoint, "tube": TubePoint, "bounded": BoundedPoint}[model]
    return point(coords, frame), frame


def cmd_map_point(args):
    """Each conversion runs through the tube model: from_tube[dst] o to_tube[src]."""
    from .domains import BoundedFrame, psi, psi_inv, upsilon, upsilon_inv

    if not 0 <= args.tol < math.inf:
        raise UsageError(f"--tol must be a finite number >= 0, got {args.tol}")
    point, frame = _parse_point(_read_json(args.point), args.mode, args.src)
    to_tube = {"projective": lambda p: psi_inv(p, tol=args.tol), "tube": lambda y: y,
               "bounded": upsilon}
    from_tube = {"projective": psi, "tube": lambda y: y, "bounded": upsilon_inv}
    try:
        out = point if args.src == args.dst else from_tube[args.dst](to_tube[args.src](point))
        finite = args.mode == "exact" or all(math.isfinite(x) for z in out.coords
                                             for x in (z.real, z.imag))
    except OverflowError:  # a Gram entry beyond the double range
        finite = False
    if not finite:
        raise DeskScopeError("a coordinate of the float image is not finite")
    conventions = [f"float-mode tolerance {args.tol}"] if args.mode == "float" else []
    if isinstance(frame, BoundedFrame):
        payload = io.point_to_json(args.dst, out.coords, frame.lattice)
    else:
        payload = io.point_to_json(args.dst, out.coords, frame.lattice,
                                   e1=frame.e1, e2=frame.e2, u_basis=frame.u_basis)
    return io.make_report("map-point", payload, conventions=conventions)


def cmd_cusp(args):
    from .parab import CuspFlag, boundary_data

    L = io.lattice_from_json(_read_json(args.gram))
    flag = CuspFlag.from_lattice(L, args.flag)
    bd = boundary_data(flag)
    return io.make_report(
        "cusp",
        {
            "kind": bd.kind,
            "u_dim": bd.u_dim,
            "v_dim": bd.v_dim,
            "f_dim": bd.f_dim,
            "cone": bd.cone,
            "fibration": bd.fibration,
            "dimension_check": bd.u_dim + bd.v_dim + bd.f_dim == flag.n,
        },
    )


def cmd_fan(args):
    from .fan import (
        barycentric_subdivide,
        chart_presentation,
        is_complete,
        is_regular,
        validate_fan,
    )

    f = io.fan_from_json(_read_json(args.fan))
    cone = None
    if args.cone is not None:
        if not 0 <= args.cone < len(f.cones):
            raise UsageError(f"cone index {args.cone} out of range")
        cone = f.cones[args.cone]
    if args.action == "validate":
        rep = validate_fan(f)
        return io.make_report("fan validate",
                              {"valid": rep.valid, "violations": rep.violations})
    if args.action == "complete":
        rep = validate_fan(f)
        return io.make_report(
            "fan complete",
            {"valid": rep.valid, "complete": bool(rep.valid and is_complete(f))},
        )
    if args.action == "regular":
        out = {}
        for i, c in enumerate(f.cones):
            out[str(i)] = {"rays": [list(r) for r in c.rays], "regular": is_regular(c)}
        return io.make_report("fan regular", out)
    if args.action == "chart":
        if cone is None:
            raise UsageError("fan chart needs --cone INDEX")
        gens, rels = chart_presentation(cone)
        return io.make_report(
            "fan chart",
            {
                "rays": [list(r) for r in cone.rays],
                "generators": [list(g) for g in gens],
                "relations": [{"lhs": list(l), "rhs": list(r)} for l, r in rels],
            },
        )
    # subdivide
    selected = [cone] if cone is not None else list(f.top_cones())
    g = barycentric_subdivide(f, selected)
    return io.make_report("fan subdivide", io.fan_to_json(g))


def cmd_core_decompose(args):
    from .corecone import SelfAdjointCone, core_extremes, gamma_check, support_fan

    gram = io.lattice_from_json(_read_json(args.gram)).gram
    dim = len(gram)
    if args.positivity:
        rho = io.vector_from_json(args.positivity.split(","))
        if len(rho) != dim:
            raise UsageError(f"--positivity needs {dim} entries, got {len(rho)}")
    else:
        rho = tuple(1 if i == 0 else 0 for i in range(dim))
    try:
        cone = SelfAdjointCone(gram, rho)
    except ValueError as e:
        raise UsageError(str(e))
    E = core_extremes(cone, args.variant, args.height)
    fan, rep = support_fan(E, cone)
    results = {
        "variant": args.variant,
        "height": args.height,
        "extreme_points": [io.vector_to_json(p) for p in E.points],
        "fan": io.fan_to_json(fan),
        "degenerate_support": rep.degenerate,
        "support_functionals": rep.functionals,
        "warnings": rep.warnings,
    }
    certificates = {
        "stability": {"window": args.height, "double_window": 2 * args.height,
                      "stable": E.stable},
        "fan_validity": rep.fan_valid,
    }
    if args.gens:
        gens = [io.matrix_from_json(m) for m in io.list_field(_read_json(args.gens), "generators")]
        if any(len(g) != dim or any(len(row) != dim for row in g) for g in gens):
            raise UsageError(f"every generator must be a {dim}x{dim} matrix")
        grep = gamma_check(fan, gens, cone, window_bound=2 * args.height)
        results["gamma_check"] = {
            "preserved": grep.preserved,
            "orbits": grep.orbits,
            "excused": grep.excused,
        }
    return io.make_report("core-decompose", results,
                          conventions=list(rep.conventions),
                          certificates=certificates)


def cmd_chern(args):
    from .chern import GradedClass, todd_from_chern, universal_Q

    if args.chern_action == "td":
        n = args.degree
        degs = {f"c{i}": i for i in range(1, n + 1)}
        cs = [GradedClass.gen(f"c{i}", i, degs, n) for i in range(1, n + 1)]
        td = todd_from_chern(cs, n)
        table = {}
        for mono, coeff in td.terms:
            key = "1" if not mono else "*".join(
                f"{g}^{e}" if e > 1 else g for g, e in mono)
            table[key] = coeff
        return io.make_report("chern td", {"degree": n, "coefficients": table})
    q = universal_Q(args.dim, args.rank)
    table = {}
    for (beta, alpha), coeff in q.table:
        key = f"E{list(beta)}|O{list(alpha)}"
        table[key] = coeff
    return io.make_report(
        "chern q-poly",
        {"dim": args.dim, "rank": args.rank, "table": table},
        conventions=["dual-bundle-sign: c_i(T) = (-1)^i c_i(Omega^1)"],
    )


def cmd_hilbert_poly(args):
    from .dimform import hilbert_poly_dual

    P = hilbert_poly_dual(args.n)
    return io.make_report(
        "hilbert-poly",
        {"n": args.n, "coefficients_ascending": list(P.coeffs),
         "value_at_zero": P.evaluate(0)},
        conventions=list(P.conventions),
    )


def cmd_local_density(args):
    from .dimform import local_density

    try:
        Place(args.p)
    except ValueError as e:
        raise UsageError(f"--p: {e}")
    L = io.lattice_from_json(_read_json(args.gram))
    res = local_density(L, args.p, args.kmax)
    return io.make_report(
        "local-density",
        {
            "p": res.p,
            "alpha_p": res.alpha_p,
            "k_stable": res.k_stable,
            "counts": {str(k): c for k, c in res.counts},
            "stabilization_certificate": True,
        },
    )


def _volume(args):
    """(L, hm_volume(L, alpha_inf)) for hm-volume and dim-leading."""
    from .dimform import alpha_inf_from_densities, hm_volume

    L = io.lattice_from_json(_read_json(args.gram))
    if args.alpha_inf is not None:
        alpha = io.rat_from_str(args.alpha_inf)
        if alpha <= 0:
            raise UsageError("--alpha-inf must be positive")
    else:
        if args.densities is None:
            raise UsageError("need --alpha-inf or --densities")
        dens = io.vector_from_json(io.list_field(_read_json(args.densities), "alpha_p"))
        if any(d <= 0 for d in dens):
            raise UsageError("every local density must be positive")
        alpha = alpha_inf_from_densities(dens, spn_plus=args.spn or 1)
    flagged = args.alpha_inf is None and args.spn is None
    return L, hm_volume(L, alpha, spn_flagged=flagged)


def cmd_hm_volume(args):
    _, vol = _volume(args)
    return io.make_report(
        "hm-volume",
        {
            "value": io.float_to_json(vol.value),
            "rational_part": vol.rational_part,
            "pi_power": vol.pi_power,
            "sqrt_arg": vol.sqrt_arg,
            "alpha_inf": io.float_to_json(vol.alpha_inf),
        },
        conventions=list(vol.conventions),
    )


def cmd_dim_leading(args):
    from .dimform import leading_dimension

    L, vol = _volume(args)
    n = signature(L)[1]
    out = leading_dimension(n, args.ell, vol)
    return io.make_report(
        "dim-leading",
        {
            "ell": args.ell,
            "n": n,
            "hilbert_value": out.hilbert_value,
            "volume": io.float_to_json(vol.value),
            "leading_value": io.float_to_json(out.value),
            "note": "boundary error term E(ell) omitted (symbolic only)",
        },
        conventions=list(out.conventions),
    )


def cmd_ramify(args):
    from .cycles import classify_subgroups, enumerate_isometries
    from .errors import NoPositiveEigenplane, NotRootOfUnity

    L = io.lattice_from_json(_read_json(args.gram))
    pool = enumerate_isometries(L, args.bound)
    skipped = {NoPositiveEigenplane: "skipped: no positive eigenplane",
               NotRootOfUnity: "skipped: not finite order"}
    fields = {None: {"classification": "skipped: infinite order"}}  # row fields by subgroup
    for key, rep in classify_subgroups(pool, L).items():
        if isinstance(rep, type):
            fields[key] = {"classification": skipped[rep]}
            continue
        fields[key] = {
            "classification": rep.classification,
            "r_tau": rep.r_tau,
            "field": rep.field_descriptor,
            "s_rank": len(rep.s_basis),
            "s_perp_rank": len(rep.s_perp_basis),
        }
        if rep.decomposition is not None:
            fields[key]["decomposition_verified"] = rep.decomposition.verified
    rows = [{"matrix": io.matrix_to_json(g.mat), "order": g.order, **fields[g.subgroup]}
            for g in pool]
    return io.make_report(
        "ramify",
        {"group_size": len(pool), "elements": rows},
        conventions=["eigenvalue-selection: positive imaginary part on the "
                     "signature-(2,*) plane"],
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        thread_cap()
        report = args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except SystemExit as e:
        # --help exits through here; argparse errors are UsageErrors
        return 2 if e.code not in (0, None) else 0
    except OrthocuspError as e:
        err = io.make_report("error", {"error": type(e).__name__, "detail": str(e)})
        io.emit_report(err, None)
        return 1
    io.emit_report(report, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
