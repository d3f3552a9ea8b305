"""Rules the package source keeps."""

import ast
import re
import sys
from pathlib import Path

import orthocusp

SOURCES = sorted(Path(orthocusp.__file__).parent.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) > 10


def test_no_assert_statements():
    # python -O strips asserts, so correctness checks must raise explicitly
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_imports_are_stdlib_or_package():
    # the core is pure standard library: no third-party import anywhere
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}:{name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names | {"orthocusp"}]
    assert found == []


# the modules that read, compute or write float-mode coordinates
FLOAT_FRONT_ENDS = {"cli", "dimform", "domains", "reportio"}


def test_no_floats_outside_the_float_front_ends():
    # exact answers: no float or complex literal, and no float( or complex(
    # call, in the exact core
    found = []
    for path in SOURCES:
        if path.stem in FLOAT_FRONT_ENDS:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and type(node.value) in (float, complex) \
                    or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in ("float", "complex"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_fan_runs_the_double_description():
    # one owner of a hull: every other module asks fan._facets_of
    kernel = {"_double_description", "_extreme_rays_of_halfspaces"}
    found = []
    for path in SOURCES:
        if path.stem == "fan":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            # a Name, an attribute, an imported alias or a definition
            names = {getattr(node, key, None) for key in ("id", "attr", "name")}
            found += [f"{path.name}:{node.lineno}:{n}" for n in sorted(names & kernel)]
    assert found == []


def test_only_linalg_runs_the_isometry_backtracking():
    # one column search for isometries and congruence counts: every other
    # module asks _linalg.gram_preservers
    kernel = {"_forward_columns", "_extend_columns"}
    found = []
    for path in SOURCES:
        if path.stem == "_linalg":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = {getattr(node, key, None) for key in ("id", "attr", "name")}
            found += [f"{path.name}:{node.lineno}:{n}" for n in sorted(names & kernel)]
    assert found == []


def test_only_qform_computes_a_signature_by_congruence():
    # one congruence for signatures and diagonal forms: every other module
    # asks qform (signature, int_signature, diagonalize) and defines no
    # elimination of its own
    congruence = re.compile(r"signature|diagonali[sz]|inertia|congruen")
    found = []
    for path in SOURCES:
        if path.stem == "qform":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and congruence.search(node.name.lower()):
                found.append(f"{path.name}:{node.lineno}:{node.name}")
    assert found == []


def test_only_covectors_apply_the_inner_form_in_corecone():
    # one integer pairing: inside corecone only SelfAdjointCone's own
    # methods and _covectors read the inner form (inner, _inner) or call
    # pair; every other pairing runs over the covectors _covectors returns
    path = next(p for p in SOURCES if p.stem == "corecone")
    tree = ast.parse(path.read_text(), str(path))
    owners = [node for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and node.name == "SelfAdjointCone"
              or isinstance(node, ast.FunctionDef) and node.name == "_covectors"]
    found = [f"{path.name}:{node.lineno}:{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("inner", "_inner", "pair")
             and not any(o.lineno <= node.lineno <= o.end_lineno for o in owners)]
    assert len(owners) == 2 and found == []


def owners(match):
    """module.function for each node of the package that match accepts,
    the function being the innermost one around the node."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if match(node):
                owner = max((f for f in functions if f.lineno <= node.lineno <= f.end_lineno),
                            key=lambda f: f.lineno, default=None)
                found.append(f"{path.stem}.{getattr(owner, 'name', '<module>')}")
    return found


def raisers(error):
    """owners of each raise of the named error in the package."""
    return owners(lambda node: isinstance(node, ast.Raise) and node.exc is not None and error in {
        getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node.exc)})


def test_only_linalg_reads_the_reduced_form():
    # one reader of echelon's reduced form for every A X = B: scaled_solve
    # (solve and inverse are its views), beside scaled_nullspace.  rank and
    # determinant read only the pivots and d, and so does the double
    # description, the one caller outside _linalg, to pick independent rows
    calls = owners(lambda node: isinstance(node, ast.Call) and "echelon" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))
    assert sorted(calls) == ["_linalg.determinant", "_linalg.rank", "_linalg.scaled_nullspace",
                             "_linalg.scaled_solve", "fan._double_description"]


def test_only_the_congruence_refuses_a_degenerate_form():
    # one congruence decides regularity: signature, int_signature and
    # diagonalize run qform._congruence, the only raise of DegenerateForm
    assert raisers("DegenerateForm") == ["qform._congruence"]


def test_only_zero_refuses_near_boundary():
    # one refusal rule for float input near a boundary: domains._zero, and
    # in_kappa's joint test of q(v) and b(v, conj v)
    assert sorted(raisers("NearBoundary")) == ["domains._zero", "domains.in_kappa"]


def test_only_linalg_defines_matrix_kernels():
    # one identity, one form evaluator and one denominator clearing: every
    # other module asks _linalg (identity, form, mat_vec, scaled_int) and
    # defines no copy of its own
    kernel = re.compile(r"identity|_form$|cleared|sparse")
    found = []
    for path in SOURCES:
        if path.stem == "_linalg":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and kernel.search(node.name):
                found.append(f"{path.name}:{node.lineno}:{node.name}")
    assert found == []


def test_every_definition_is_used():
    # no dead helpers: every non-dunder function or class defined in the
    # package is named somewhere in src/, tests/ or demos/ outside its own
    # definition, as a Name, an attribute or an imported alias.  argparse
    # calls _Parser.error itself.
    allowed = {("cli.py", "error")}
    tests = Path(__file__).resolve().parent
    files = SOURCES + sorted(tests.glob("*.py")) + sorted((tests.parent / "demos").glob("*.py"))
    definitions = []
    references = {}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if path in SOURCES and not re.fullmatch(r"__\w+__", node.name):
                    definitions.append((path, node.name, node.lineno, node.end_lineno))
                continue
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name is not None:
                references.setdefault(name, []).append((path, node.lineno))
    found = [f"{path.name}:{first}:{name}"
             for path, name, first, last in definitions
             if (path.name, name) not in allowed
             and all(ref == path and first <= line <= last
                     for ref, line in references.get(name, []))]
    assert found == []


def test_every_parameter_is_read():
    # no dead parameters: every parameter of every function or method, other
    # than self and cls, is read as a Name inside that function.  The two
    # boundary charts share one tuple, and chart_coords keeps parab's
    # flag-first signature.
    allowed = {("parab.py", "chart_coords", "flag")}
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs \
                + [a for a in (args.vararg, args.kwarg) if a is not None]
            read = {n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            found += [f"{path.name}:{node.lineno}:{name}:{a.arg}" for a in params
                      if a.arg not in ("self", "cls") and a.arg not in read
                      and (path.name, name, a.arg) not in allowed]
    assert found == []


def test_only_reportio_writes_json():
    # one encoder: every report reaches its bytes through
    # reportio.dumps_canonical, and cli only reads JSON
    writers = {"dump", "dumps"}
    found = []
    for path in SOURCES:
        if path.stem == "reportio":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            # an attribute (json.dumps), an imported alias or a definition
            names = {getattr(node, key, None) for key in ("attr", "name")}
            found += [f"{path.name}:{node.lineno}:{n}" for n in sorted(names & writers)]
    assert found == []
