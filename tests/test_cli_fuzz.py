"""Malformed input files at the CLI boundary: no traceback, only exit codes.

Derandomized hypothesis writes --gram, --fan, --gens, --densities and
--point files with missing keys, wrong types, ragged rows, non-rational
or non-finite strings and wrong ray or coordinate lengths, draws --tol
values, and runs each through `main`.  Every run must return 0, 1 or 2
without raising, and print either nothing or one canonical JSON report;
exit code 2 prints exactly one `usage error:` line, argparse's own errors
included.  No report holds a JSON float: floats are written as strings,
and a map-point report writes no "nan" or "inf".
Ranks stay <= 3 and heights and bounds at 1, so the whole file runs in
seconds.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthocusp.cli import main
from orthocusp.reportio import dumps_canonical

FUZZ = settings(max_examples=40, deadline=None, derandomize=True)

SCALARS = st.one_of(
    st.sampled_from(["0", "1", "-1", "2", "1/2", "-2/3", "abc", "1/0", "", "x/y"]),
    st.integers(-2, 2),
    st.none(),
    st.booleans(),
    st.sampled_from([0.5, -1.0]),
)


def rows():
    """Lists of up to 3 rows of up to 3 scalars, square or ragged."""
    return st.lists(st.lists(SCALARS, max_size=3), max_size=3)


def square_int_matrices(max_rank=3):
    return st.integers(1, max_rank).flatmap(lambda m: st.lists(
        st.lists(st.integers(-2, 2), min_size=m, max_size=m), min_size=m, max_size=m))


@st.composite
def symmetric_grams(draw, max_rank=3):
    """Well-formed symmetric Grams: degenerate, indefinite or rational."""
    m = draw(st.integers(1, max_rank))
    G = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            G[i][j] = G[j][i] = draw(st.sampled_from(["0", "1", "-1", "2", "-2", "1/2"]))
    return {"gram": G}


@st.composite
def integral_fans(draw, max_rank=3):
    """Well-formed fan files whose cones may overlap or contain lines."""
    rank = draw(st.integers(1, max_rank))
    ray = st.lists(st.integers(-1, 1), min_size=rank, max_size=rank)
    cones = draw(st.lists(st.lists(ray, max_size=rank + 1), max_size=4))
    return {"rank": rank, "cones": [{"rays": c} for c in cones]}


JUNK = st.one_of(st.none(), st.integers(-2, 2), st.just("text"), st.just([]),
                 st.just({}), SCALARS)


def blob_with(key, value):
    """{key: value}, the same blob under another key, or no object at all."""
    return st.one_of(
        value.map(lambda v: {key: v}),
        value.map(lambda v: {key + "_": v}),
        JUNK,
    )


GRAMS = st.one_of(symmetric_grams(), blob_with("gram", st.one_of(rows(), JUNK)))
RAYS = st.lists(st.one_of(st.lists(st.integers(-1, 1), min_size=1, max_size=3),
                          st.lists(SCALARS, max_size=3), JUNK), max_size=3)
FANS = st.one_of(
    integral_fans(),
    st.fixed_dictionaries(
        {"rank": st.one_of(st.integers(0, 3), SCALARS, JUNK),
         "cones": st.lists(st.one_of(blob_with("rays", RAYS), JUNK), max_size=3)}),
    blob_with("cones", st.lists(blob_with("rays", RAYS), max_size=2)),
)
GENS = blob_with("generators", st.one_of(
    st.lists(st.one_of(square_int_matrices(), rows(), JUNK), max_size=2), JUNK))
DENSITIES = blob_with("alpha_p", st.one_of(st.lists(SCALARS, max_size=3), JUNK))

ATILDE4 = {"gram": [["0", "0", "1", "0"], ["0", "0", "0", "1"],
                   ["1", "0", "0", "0"], ["0", "1", "0", "0"]]}
MODELS = ["projective", "tube", "bounded"]
PAIRS = st.one_of(
    st.lists(st.lists(st.sampled_from(["0", "1", "-1", "1/2"]), min_size=2, max_size=2),
             max_size=5),
    st.lists(st.lists(st.sampled_from(["0", "1", "nan", "-inf", "1e400"]), min_size=2,
                      max_size=2), max_size=5),
    st.lists(st.one_of(st.lists(SCALARS, max_size=3), JUNK), max_size=4),
)
E1, E2 = ["1", "0", "0", "0"], ["0", "0", "1", "0"]
FRAMES = st.one_of(st.just(ATILDE4), symmetric_grams(max_rank=4), JUNK, st.sampled_from([
    dict(ATILDE4, e1=E1),
    dict(ATILDE4, e1=E1, e2=E2, u_basis="text"),
    dict(ATILDE4, e1=E1, e2=E2, u_basis=[["0", "1", "0", "0"]]),
    dict(ATILDE4, e1=["1", "0", "1", "0"], e2=E2),
    dict(ATILDE4, e1=["1", "0"], e2=["0", "1"]),
]))
POINTS = st.one_of(
    st.fixed_dictionaries({"model": st.one_of(st.sampled_from(MODELS), JUNK),
                           "coords": st.one_of(PAIRS, JUNK), "frame": FRAMES}),
    st.lists(PAIRS, max_size=2),
    blob_with("coords", PAIRS),
)
G3 = {"gram": [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]]}
G21 = {"gram": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]]}


def refuse_float(text):
    raise AssertionError(f"a report holds the JSON float {text}")


def run(argv, files):
    """(exit code, stdout) of main(argv), with @name tokens replaced by paths
    of the given JSON blobs."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, blob in files.items():
            paths["@" + name] = os.path.join(tmp, name + ".json")
            with open(paths["@" + name], "w", encoding="utf-8") as fh:
                json.dump(blob, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([paths.get(a, a) for a in argv])
    assert code in (0, 1, 2), (argv, files, code)
    text = out.getvalue()
    if text:
        assert dumps_canonical(json.loads(text, parse_float=refuse_float)) == text, (argv, files)
    if code == 2:
        err = err.getvalue()
        assert err.startswith("usage error: ") and err.count("\n") == 1, (argv, files, err)
    return code, text


GRAM_COMMANDS = [
    ["invariants", "--gram", "@f", "--primes", "3"],
    ["cusp", "--gram", "@f", "--flag", "rank1"],
    ["core-decompose", "--gram", "@f", "--height", "1"],
    ["local-density", "--gram", "@f", "--p", "3", "--kmax", "1"],
    ["hm-volume", "--gram", "@f", "--alpha-inf", "1"],
    ["dim-leading", "--gram", "@f", "--ell", "2", "--alpha-inf", "1"],
    ["ramify", "--gram", "@f", "--bound", "1"],
]
FAN_COMMANDS = [
    ["fan", "validate", "--fan", "@f"],
    ["fan", "complete", "--fan", "@f"],
    ["fan", "regular", "--fan", "@f"],
    ["fan", "chart", "--fan", "@f", "--cone", "0"],
    ["fan", "subdivide", "--fan", "@f"],
    ["fan", "subdivide", "--fan", "@f", "--cone", "1"],
]


@FUZZ
@given(GRAMS, st.sampled_from(GRAM_COMMANDS))
def test_malformed_gram_files(blob, argv):
    run(argv, {"f": blob})


@FUZZ
@given(FANS, st.sampled_from(FAN_COMMANDS))
def test_malformed_fan_files(blob, argv):
    run(argv, {"f": blob})


@FUZZ
@given(GENS)
def test_malformed_generator_files(blob):
    run(["core-decompose", "--gram", "@g", "--height", "1", "--gens", "@f"],
        {"f": blob, "g": G3})


@FUZZ
@given(DENSITIES, st.sampled_from(["hm-volume", "dim-leading"]))
def test_malformed_density_files(blob, command):
    argv = [command, "--gram", "@g", "--densities", "@f"]
    run(argv + (["--ell", "2"] if command == "dim-leading" else []), {"f": blob, "g": G21})


@FUZZ
@given(POINTS, st.sampled_from(MODELS), st.sampled_from(MODELS),
       st.sampled_from(["exact", "float"]))
@example([["0", "1"], ["0", "1"]], "tube", "projective", "exact")
@example({"model": "tube", "coords": [["0", "1", "2"], ["0", "1"]], "frame": ATILDE4},
         "tube", "projective", "exact")
@example({"model": "tube", "coords": [["0", "x"], ["0", "1"]], "frame": ATILDE4},
         "tube", "projective", "float")
def test_malformed_point_files(blob, src, dst, mode):
    _, text = run(["map-point", "--point", "@f", "--from", src, "--to", dst, "--mode", mode],
                  {"f": blob})
    assert '"nan"' not in text and 'inf"' not in text


@pytest.mark.parametrize("argv", [c for c in FAN_COMMANDS if "--cone" not in c])
def test_fan_cone_with_a_line_is_refused(argv):
    blob = {"rank": 2, "cones": [{"rays": [[1, 0], [-1, 0]]}, {"rays": [[0, 1]]}]}
    assert run(argv, {"f": blob})[0] == 2


# on the zero quadric with b(v, e1) = 0: the tube chart refuses it
BOUNDARY_POINT = {"model": "projective", "frame": ATILDE4,
                  "coords": [["1", "0"], ["0", "1"], ["0", "0"], ["0", "0"]]}


@pytest.mark.parametrize("mode", ["float", "exact"])
@pytest.mark.parametrize("tol", ["-1", "-0.5", "nan", "inf"])
def test_bad_tolerance_is_refused(tol, mode):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(BOUNDARY_POINT, fh)
        with contextlib.redirect_stderr(err):
            code = main(["map-point", "--point", path, "--from", "projective",
                         "--to", "tube", "--mode", mode, "--tol", tol])
    assert code == 2
    assert err.getvalue().startswith("usage error: --tol") and err.getvalue().count("\n") == 1


@FUZZ
@given(st.one_of(st.floats(), st.sampled_from(["", "x", "1e999", "-0.0"])),
       st.sampled_from(MODELS), st.sampled_from(["exact", "float"]))
def test_tolerance_argv(tol, dst, mode):
    code, _ = run(["map-point", "--point", "@f", "--from", "projective", "--to", dst,
                   "--mode", mode, f"--tol={tol}"], {"f": BOUNDARY_POINT})
    if isinstance(tol, float) and not 0 <= tol < math.inf:
        assert code == 2


@pytest.mark.parametrize("argv", [
    ["map-point", "--point", "@f", "--from", "projective", "--to", "tube", "--tol", "-1e-5"],
    ["map-point", "--point", "@f", "--from", "projective", "--to", "tube", "--tol", "-inf"],
    ["map-point", "--point", "@f", "--from", "projective", "--to", "cone"],
    ["ramify", "--gram", "@f"],
    ["ramify", "--gram", "@f", "--bound", "x"],
    ["chern", "td"],
    ["no-such-command"],
    [],
])
def test_argparse_errors_are_one_usage_line(argv):
    # run asserts the one `usage error:` line
    assert run(argv, {"f": BOUNDARY_POINT})[0] == 2


@pytest.mark.parametrize("argv", [
    ["hm-volume", "--gram", "@f", "--alpha-inf", "1e400"],
    ["hm-volume", "--gram", "@f", "--alpha-inf", "1e-400"],
    ["dim-leading", "--gram", "@f", "--ell", "100000", "--alpha-inf", "1e307"],
    ["dim-leading", "--gram", "@f", "--ell", "9" * 310, "--alpha-inf", "1"],
], ids=["volume-overflow", "volume-underflow", "volume-inf", "leading-overflow"])
def test_float_out_of_range_is_refused(argv):
    # an infinite or zero volume, or an infinite leading value, is a domain
    # error: no traceback and no "inf" in a report
    code, text = run(argv, {"f": G21})
    assert code == 1
    assert json.loads(text)["results"]["error"] == "DeskScopeError"


ATILDE5 = {"gram": [["0", "0", "1", "0", "0"], ["0", "0", "0", "1", "0"],
                   ["1", "0", "0", "0", "0"], ["0", "1", "0", "0", "0"],
                   ["0", "0", "0", "0", "-2"]]}
HUGE = "1" + "0" * 400


@pytest.mark.parametrize("src, dst, coords", [
    ("bounded", "projective", [["nan", "0"], ["0", "0"], ["0", "0"]]),
    ("tube", "tube", [["inf", "1"], ["0", "1"], ["0", "0"]]),
    ("tube", "bounded", [["0", "-inf"], ["0", "1"], ["0", "0"]]),
    ("tube", "projective", [["1e400", "0"], ["0", "1"], ["0", "0"]]),
    ("tube", "projective", [[HUGE + "/3", "0"], ["0", "1"], ["0", "0"]]),
    ("tube", "projective", [[int(HUGE), "0"], ["0", "1"], ["0", "0"]]),
], ids=["nan", "inf", "minus-inf", "1e400", "huge-fraction", "huge-int"])
def test_non_finite_float_input_is_refused(src, dst, coords):
    # a part without a finite double is a usage error, as in exact mode a
    # part without a rational is
    code, text = run(["map-point", "--point", "@f", "--from", src, "--to", dst,
                      "--mode", "float"], {"f": {"model": src, "coords": coords,
                                                 "frame": ATILDE5}})
    assert (code, text) == (2, "")


HUGE_FRAME = {"gram": [["0", "1", "0", "0"], ["1", "0", "0", "0"],
                       ["0", "0", HUGE, "0"], ["0", "0", "0", "-1"]],
              "e1": ["1", "0", "0", "0"], "e2": ["0", "1", "0", "0"]}


@pytest.mark.parametrize("coords, frame", [
    ([["1e308", "1e308"], ["1e308", "1"], ["0", "0"]], ATILDE5),
    ([["0", "1"], ["0", "0"]], HUGE_FRAME),
], ids=["image-overflow", "gram-beyond-double"])
def test_non_finite_float_image_is_refused(coords, frame):
    # finite input whose image overflows a double is a domain error: no
    # traceback and no "nan" or "inf" in a report
    code, text = run(["map-point", "--point", "@f", "--from", "tube", "--to", "projective",
                      "--mode", "float"], {"f": {"model": "tube", "coords": coords,
                                                 "frame": frame}})
    assert code == 1
    assert json.loads(text)["results"] == {
        "error": "DeskScopeError", "detail": "a coordinate of the float image is not finite"}


def test_help_still_exits_zero():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["map-point", "--help"]) == 0
    assert out.getvalue().startswith("usage: orthocusp map-point")
