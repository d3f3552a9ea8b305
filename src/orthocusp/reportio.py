"""Canonical JSON serialization for all file formats and reports.

Rationals are serialized as strings ("p/q" or plain integers) so round
trips are bit-exact; emitted JSON is byte-deterministic (sorted keys,
fixed separators, trailing newline).  dumps_canonical is the one encoder:
a single json.dumps whose default hook writes a Fraction as rat_to_str
and a GaussianRational or complex as complex_to_json, and refuses any
other type.  Every dict key in a payload is a str: sort_keys would order
int keys by number, not as text.  A float is formatted where it is made,
by float_to_json, since json.dumps would write it as a number.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

from .errors import UsageError
from .gaussian import GaussianRational
from .qform import QuadraticLattice


def rat_to_str(x) -> str:
    if type(x) is int:
        return str(x)
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rat_from_str(s) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            pass
    raise UsageError(f"expected rational string, got {s!r}")


def list_field(blob, key) -> list:
    """blob[key] of a JSON object blob, which must hold a list there."""
    if not isinstance(blob, dict) or not isinstance(blob.get(key), list):
        raise UsageError(f"expected a JSON object with a list {key!r}")
    return blob[key]


def matrix_to_json(M):
    return [vector_to_json(row) for row in M]


def matrix_from_json(rows):
    if not isinstance(rows, (list, tuple)):
        raise UsageError(f"expected a list of rows, got {rows!r}")
    return tuple(vector_from_json(row) for row in rows)


def vector_to_json(v):
    return [rat_to_str(x) for x in v]


def vector_from_json(xs):
    if not isinstance(xs, (list, tuple)):
        raise UsageError(f"expected a list of rationals, got {xs!r}")
    return tuple(rat_from_str(x) for x in xs)


def lattice_to_json(L: QuadraticLattice) -> dict:
    return {"gram": matrix_to_json(L.gram)}


def lattice_from_json(blob: dict) -> QuadraticLattice:
    if not isinstance(blob, dict) or "gram" not in blob:
        raise UsageError("lattice file must contain a 'gram' matrix")
    try:
        return QuadraticLattice(matrix_from_json(blob["gram"]))
    except ValueError as e:
        raise UsageError(str(e))


def complex_to_json(z):
    if isinstance(z, GaussianRational):
        return [rat_to_str(z.re), rat_to_str(z.im)]
    return [float_to_json(z.real), float_to_json(z.imag)]


def complex_from_json(pair, mode="exact"):
    if not isinstance(pair, list) or len(pair) != 2:
        raise UsageError(f"expected a [re, im] pair, got {pair!r}")
    if mode == "exact":
        return GaussianRational(*map(rat_from_str, pair))
    try:
        parts = [float(Fraction(x) if isinstance(x, str) and "/" in x else x) for x in pair]
    except (TypeError, ValueError, ZeroDivisionError):
        raise UsageError(f"expected a pair of real numbers, got {pair!r}")
    except OverflowError:
        parts = [math.inf]
    if not all(map(math.isfinite, parts)):
        raise UsageError(f"expected a pair of finite real numbers, got {pair!r}")
    return complex(*parts)


def point_to_json(model: str, coords, frame_lattice: QuadraticLattice,
                  e1=None, e2=None, u_basis=None) -> dict:
    frame = lattice_to_json(frame_lattice)
    if e1 is not None:
        frame["e1"] = vector_to_json(e1)
        frame["e2"] = vector_to_json(e2)
    if u_basis is not None:
        frame["u_basis"] = [vector_to_json(u) for u in u_basis]
    return {
        "model": model,
        "coords": [complex_to_json(z) for z in coords],
        "frame": frame,
    }


def point_from_json(blob: dict, mode="exact"):
    """Returns (model, coords, lattice, split).

    split is None or (e1, e2, u_basis_or_None), all exact vectors.
    """
    model = blob.get("model") if isinstance(blob, dict) else None
    if model not in ("projective", "tube", "bounded"):
        raise UsageError("point model must be projective, tube, or bounded")
    coords = tuple(complex_from_json(p, mode) for p in list_field(blob, "coords"))
    frame = blob.get("frame")
    lattice = lattice_from_json(frame)
    split = None
    if "e1" in frame:
        ub = None
        if "u_basis" in frame:
            ub = tuple(vector_from_json(u) for u in list_field(frame, "u_basis"))
        split = (vector_from_json(frame["e1"]), vector_from_json(frame.get("e2")), ub)
    return model, coords, lattice, split


def fan_to_json(f) -> dict:
    return {
        "rank": f.rank,
        "cones": [{"rays": [list(r) for r in c.rays]} for c in f.cones],
    }


def fan_from_json(blob: dict):
    from .fan import Fan, RationalCone

    if not isinstance(blob, dict) or "rank" not in blob:
        raise UsageError("fan file must contain a 'rank'")
    rank = rat_from_str(blob["rank"])
    if rank.denominator != 1 or rank < 1:
        raise UsageError("fan rank must be an integer >= 1")
    rank = int(rank)
    cones = []
    for c in list_field(blob, "cones"):
        rays = [vector_from_json(r) for r in list_field(c, "rays")]
        if any(len(r) != rank or any(x.denominator != 1 for x in r) for r in rays):
            raise UsageError(f"a ray of a rank-{rank} fan needs {rank} integer coordinates")
        cone = RationalCone([tuple(map(int, r)) for r in rays], rank)
        if not cone.is_pointed:
            raise UsageError(f"a fan cone may not contain a line: rays {cone.rays}")
        cones.append(cone)
    return Fan(cones, rank)


def float_to_json(x: float) -> str:
    """repr of a float, with -0.0 written as 0.0."""
    if x == 0.0:
        x = 0.0  # normalize -0
    return repr(float(x))


def _canonical(v):
    """json.dumps' hook for the values it cannot write itself."""
    if isinstance(v, Fraction):
        return rat_to_str(v)
    if isinstance(v, (GaussianRational, complex)):
        return complex_to_json(v)
    raise TypeError(f"{type(v).__name__} {v!r} has no canonical JSON form")


def make_report(command: str, results, conventions=(), certificates=None) -> dict:
    report = {"command": command, "conventions": sorted(conventions), "results": results}
    if certificates is not None:
        report["certificates"] = certificates
    return report


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True,
                      default=_canonical) + "\n"


def emit_report(report: dict, path=None) -> str:
    text = dumps_canonical(report)
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    return text
