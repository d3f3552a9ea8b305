"""CLI golden tests: determinism, exit codes, round trips."""

import hashlib
import json
import os
import pathlib
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthocusp.cli import main
from orthocusp.gaussian import GaussianRational
from orthocusp.reportio import complex_to_json, dumps_canonical, float_to_json, rat_to_str


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run_to_file(tmp_path, argv, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


GOLDEN = pathlib.Path(__file__).parent / "golden"
HYP = {"gram": [["0", "1"], ["1", "0"]]}
ATILDE4 = {
    "gram": [
        ["0", "0", "1", "0"],
        ["0", "0", "0", "1"],
        ["1", "0", "0", "0"],
        ["0", "1", "0", "0"],
    ]
}
P2_FAN = {"rank": 2, "cones": [
    {"rays": [[1, 0], [0, 1]]},
    {"rays": [[0, 1], [-1, -1]]},
    {"rays": [[-1, -1], [1, 0]]},
    {"rays": [[1, 0]]},
    {"rays": [[0, 1]]},
    {"rays": [[-1, -1]]},
    {"rays": []},
]}


class TestInvariants:
    def test_hyperbolic_plane_report(self, tmp_path):
        gram = write(tmp_path, "g.json", HYP)
        code, blob = run_to_file(tmp_path, ["invariants", "--gram", gram,
                                            "--primes", "2,3"])
        assert code == 0
        rep = json.loads(blob)
        assert rep["results"]["disc"] == "-1"
        assert rep["results"]["signature"] == [1, 1]
        assert rep["results"]["hasse"] == {"oo": 1, "2": 1, "3": 1}
        assert "conventions" in rep

    def test_missing_gram_is_usage_error(self, tmp_path, capsys):
        assert main(["invariants"]) == 2

    def test_hasse_at_a_large_prime(self, tmp_path):
        # 2^61 - 1 is prime, out of reach of trial division
        gram = write(tmp_path, "g.json", HYP)
        code, blob = run_to_file(tmp_path, ["invariants", "--gram", gram,
                                            "--primes", "3,2305843009213693951"])
        assert code == 0
        assert json.loads(blob)["results"]["hasse"]["2305843009213693951"] == 1

    def test_bad_prime_list(self, tmp_path):
        gram = write(tmp_path, "g.json", HYP)
        assert main(["invariants", "--gram", gram, "--primes", "2,x"]) == 2


class TestMapPoint:
    def test_tube_to_projective_example(self, tmp_path):
        # the (i, 0)-style example in the Atilde frame: tube coords (i, i)
        # is the base point; map and check the quadric condition via re-parse
        point = {
            "model": "tube",
            "coords": [["0", "1"], ["0", "1"]],
            "frame": ATILDE4,
        }
        pf = write(tmp_path, "p.json", point)
        code, blob = run_to_file(tmp_path, ["map-point", "--point", pf,
                                            "--from", "tube", "--to", "projective"])
        assert code == 0
        rep = json.loads(blob)
        assert rep["results"]["model"] == "projective"
        assert rep["results"]["coords"] == [["1", "0"], ["0", "1"], ["1", "0"], ["0", "1"]]

    def test_round_trip_bounded(self, tmp_path):
        point = {
            "model": "bounded",
            "coords": [["1/8", "1/9"], ["-1/7", "0"]],
            "frame": ATILDE4,
        }
        pf = write(tmp_path, "p.json", point)
        code, blob = run_to_file(tmp_path, ["map-point", "--point", pf,
                                            "--from", "bounded", "--to", "tube"])
        assert code == 0
        tube = json.loads(blob)["results"]
        pf2 = write(tmp_path, "p2.json", tube)
        code, blob2 = run_to_file(tmp_path, ["map-point", "--point", pf2,
                                             "--from", "tube", "--to", "bounded"],
                                  name="out2.json")
        assert code == 0
        back = json.loads(blob2)["results"]
        assert back["coords"] == point["coords"]

    def test_model_mismatch_is_usage_error(self, tmp_path):
        point = {"model": "tube", "coords": [["0", "1"], ["0", "1"]], "frame": ATILDE4}
        pf = write(tmp_path, "p.json", point)
        assert main(["map-point", "--point", pf, "--from", "bounded",
                     "--to", "tube"]) == 2

    def test_spec_example_diag_frame(self, tmp_path):
        # tube point (i, 0) over U = diag(1,-1), q(e2) = 0 -> [1/2 : 1 : i : 0]
        frame = {
            "gram": [["0", "1", "0", "0"], ["1", "0", "0", "0"],
                     ["0", "0", "1", "0"], ["0", "0", "0", "-1"]],
            "e1": ["1", "0", "0", "0"],
            "e2": ["0", "1", "0", "0"],
            "u_basis": [["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        }
        point = {"model": "tube", "coords": [["0", "1"], ["0", "0"]], "frame": frame}
        pf = write(tmp_path, "p.json", point)
        code, blob = run_to_file(tmp_path, ["map-point", "--point", pf,
                                            "--from", "tube", "--to", "projective"])
        assert code == 0
        out = json.loads(blob)["results"]
        assert out["coords"] == [["1/2", "0"], ["1", "0"], ["0", "1"], ["0", "0"]]


class TestMapPointSplitSearch:
    # diag(1, 1, -1, -1) lacks the two-hyperbolic-planes shape, so the frame
    # comes from find_isotropic_split(height=2) and orthogonal_complement_basis
    POINT = {"model": "projective", "coords": [["1", "0"], ["0", "1"], ["0", "0"], ["0", "0"]],
             "frame": {"gram": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                                ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]}}

    def test_found_split_to_tube(self, tmp_path):
        pf = write(tmp_path, "p.json", self.POINT)
        code, blob = run_to_file(tmp_path, ["map-point", "--point", pf,
                                            "--from", "projective", "--to", "tube"])
        assert code == 0
        assert hashlib.sha256(blob).hexdigest() == \
            "2b7c1f4ec4df84536503b854ff9fd32300b50604552f6f8859a5efd2c04b0ba7"

    def test_found_split_has_no_bounded_model(self, tmp_path, capsys):
        pf = write(tmp_path, "p.json", self.POINT)
        assert main(["map-point", "--point", pf, "--from", "projective",
                     "--to", "bounded"]) == 1
        assert json.loads(capsys.readouterr().out)["results"] == {
            "error": "UnsupportedShape",
            "detail": "upsilon_inv needs a bounded (Atilde-shaped) frame"}

    def test_no_small_isotropic_vector(self, tmp_path, capsys):
        identity = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
        point = {"model": "projective", "coords": [["1", "0"], ["0", "1"], ["0", "0"]],
                 "frame": {"gram": identity}}
        pf = write(tmp_path, "p.json", point)
        assert main(["map-point", "--point", pf, "--from", "projective", "--to", "tube"]) == 2
        assert capsys.readouterr().err == ("usage error: frame needs an explicit e1/e2 split "
                                           "(no small isotropic vector found)\n")


class TestMapPointFloat:
    # one point per model in the two-hyperbolic-planes frame; the projective
    # one is (2 - i) times the psi image of the tube one, so b(v, e1) != 1
    POINTS = {
        "bounded": [["1/8", "1/9"], ["-1/7", "0"]],
        "tube": [["1/3", "2"], ["-1/5", "1"]],
        "projective": [["21/5", "-29/15"], ["8/3", "11/3"], ["2", "-1"], ["3/5", "11/5"]],
    }
    DIGESTS = {
        ("bounded", "projective"): "46fc8bfbe89ac7909b6073715acabd25beca99f353d99d117da34d398902c041",
        ("bounded", "tube"): "23afd79e26cf9b8c3b9584b71f758e16f84dab33a0866b3123b9acead8f44034",
        ("bounded", "bounded"): "aab1995784e0a61748ceb56714ddbc78c45268236f3701891f13f6a1fada085a",
        ("tube", "projective"): "849901b3f3fe75e060c91c4c16b72f66ae6f6963ce1f144576bd88ae2b70169c",
        ("tube", "tube"): "b6c284c482fa08c6b8072f243232c145d27bef98f1c666eca68ef10c0b39e745",
        ("tube", "bounded"): "fd28495f365e4dee3f7149825d7c0225064daecee998229b1ca95dfeb1837d4c",
        ("projective", "projective"): "52947386d5b6c416fec921926242292793fee80a41f501d7812406450f9c6707",
        ("projective", "tube"): "a9cd4281e123a5ecff441711e8ccf7d3c43bbf2b662b03e7c91766c727e29a60",
        ("projective", "bounded"): "96f5b3ed6a54a1dc9dfe1ed11b572332c3142498720736ab95de745818d44c99",
    }

    @pytest.mark.parametrize("src, dst", list(DIGESTS))
    def test_float_report_digest(self, tmp_path, src, dst):
        pf = write(tmp_path, "p.json",
                   {"model": src, "coords": self.POINTS[src], "frame": ATILDE4})
        code, blob = run_to_file(tmp_path, ["map-point", "--point", pf, "--from", src,
                                            "--to", dst, "--mode", "float"])
        assert code == 0
        assert hashlib.sha256(blob).hexdigest() == self.DIGESTS[src, dst]


class TestCusp:
    def test_rank1_report(self, tmp_path):
        gram = write(tmp_path, "g.json", ATILDE4)
        code, blob = run_to_file(tmp_path, ["cusp", "--gram", gram, "--flag", "rank1"])
        assert code == 0
        rep = json.loads(blob)["results"]
        assert rep["u_dim"] == 2 and rep["v_dim"] == 0 and rep["f_dim"] == 0
        assert rep["dimension_check"] is True

    def test_rank2_report(self, tmp_path):
        gram = write(tmp_path, "g.json", ATILDE4)
        code, blob = run_to_file(tmp_path, ["cusp", "--gram", gram, "--flag", "rank2"])
        rep = json.loads(blob)["results"]
        assert rep["u_dim"] == 1 and rep["f_dim"] == 1
        assert "elliptic curve" in rep["fibration"]

    def test_non_atilde_is_domain_error(self, tmp_path):
        gram = write(tmp_path, "g.json", {"gram": [["1", "0"], ["0", "1"]]})
        assert main(["cusp", "--gram", gram, "--flag", "rank1"]) == 1


def test_each_use_tests_the_shape_at_most_once(tmp_path, monkeypatch):
    # qform.atilde_block is the one recognizer: a bounded map-point and a
    # cusp report test the lattice once, and adjacency_data reuses the
    # rank-2 flag's block
    from orthocusp import qform
    from orthocusp.parab import CuspFlag, adjacency_data

    calls = []
    recognize = qform.atilde_block
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("orthocusp") \
                and getattr(module, "atilde_block", None) is recognize:
            monkeypatch.setattr(module, "atilde_block",
                                lambda L: calls.append(L) or recognize(L))
    point = {"model": "bounded", "coords": [["1/8", "1/9"], ["-1/7", "0"]], "frame": ATILDE4}
    pf = write(tmp_path, "p.json", point)
    gram = write(tmp_path, "g.json", ATILDE4)
    counts = []
    for argv in (["map-point", "--point", pf, "--from", "bounded", "--to", "tube"],
                 ["cusp", "--gram", gram, "--flag", "rank1"],
                 ["cusp", "--gram", gram, "--flag", "rank2"]):
        del calls[:]
        assert run_to_file(tmp_path, argv)[0] == 0
        counts.append(len(calls))
    assert counts == [1, 1, 1]
    f2 = CuspFlag.from_lattice(qform.standard_atilde(3), "rank2")
    del calls[:]
    assert adjacency_data(f2, (1, 0, 0, 0, 0)) is not None
    assert calls == []


class TestFan:
    def test_validate_p2(self, tmp_path):
        fan = write(tmp_path, "f.json", P2_FAN)
        code, blob = run_to_file(tmp_path, ["fan", "validate", "--fan", fan])
        assert code == 0
        assert json.loads(blob)["results"]["valid"] is True

    def test_complete_p2(self, tmp_path):
        fan = write(tmp_path, "f.json", P2_FAN)
        code, blob = run_to_file(tmp_path, ["fan", "complete", "--fan", fan])
        assert json.loads(blob)["results"]["complete"] is True

    def test_chart_of_a_ray_generates_its_dual(self, tmp_path):
        # cone 1 is the ray (-1, -1); (-1, 0) pairs with it to 1
        fan = write(tmp_path, "f.json", P2_FAN)
        code, blob = run_to_file(tmp_path, ["fan", "chart", "--fan", fan, "--cone", "1"])
        assert code == 0
        out = json.loads(blob)["results"]
        assert out["rays"] == [[-1, -1]]
        assert out["generators"] == [[-1, 0], [-1, 1], [1, -1]]

    def test_chart_needs_cone(self, tmp_path):
        fan = write(tmp_path, "f.json", P2_FAN)
        assert main(["fan", "chart", "--fan", fan]) == 2

    def test_subdivide_emits_fan(self, tmp_path):
        fan = write(tmp_path, "f.json", P2_FAN)
        code, blob = run_to_file(tmp_path, ["fan", "subdivide", "--fan", fan])
        assert code == 0
        out = json.loads(blob)["results"]
        assert out["rank"] == 2
        assert len(out["cones"]) > len(P2_FAN["cones"])


class TestCoreDecompose:
    def test_quadrant_selectors_give_identical_reports(self, tmp_path):
        gram = write(tmp_path, "g.json", HYP)
        blobs = set()
        for i, rho in enumerate(("1,1", "2,1", "1,0")):
            code, blob = run_to_file(
                tmp_path, ["core-decompose", "--gram", gram, "--positivity", rho,
                           "--variant", "perfect", "--height", "3"], name=f"c{i}.json")
            assert code == 0
            blobs.add(blob)
        assert len(blobs) == 1
        assert json.loads(blobs.pop())["results"]["extreme_points"] == [["1", "1"]]

    def test_vanishing_covector_is_usage_error(self, tmp_path, capsys):
        # rho = (1, -1) vanishes at the interior point (1, 1): no component
        path = write(tmp_path, "g.json", HYP)
        argv = ["core-decompose", "--gram", path, "--positivity", "1,-1",
                "--variant", "perfect", "--height", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("gram", [[["1", "0"], ["0", "1"]], [["-1", "0"], ["0", "-2"]]])
    def test_wrong_signature_is_domain_error(self, tmp_path, capsys, gram):
        # a well-formed definite Gram is a domain fact, reported like hm-volume's
        path = write(tmp_path, "g.json", {"gram": gram})
        argv = ["core-decompose", "--gram", path, "--positivity", "1,0",
                "--variant", "perfect", "--height", "2"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["results"] == {
            "error": "WrongSignature", "detail": "self-adjoint cone needs signature (1, k)"}


    @pytest.mark.parametrize("rho", ["a,1", "1/0,1", "1", "1,1,1"])
    def test_malformed_positivity_is_usage_error(self, tmp_path, capsys, rho):
        path = write(tmp_path, "g.json", HYP)
        argv = ["core-decompose", "--gram", path, "--positivity", rho,
                "--variant", "perfect", "--height", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1

    def test_perfect_rank_four_core_digest(self, tmp_path):
        # light_cone(3) with H = 3: no golden covers a rank-4 core
        gram = write(tmp_path, "g.json", {"gram": [
            ["1", "0", "0", "0"], ["0", "-1", "0", "0"],
            ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]})
        code, blob = run_to_file(tmp_path, ["core-decompose", "--gram", gram,
                                            "--variant", "perfect", "--height", "3"])
        assert code == 0
        assert hashlib.sha256(blob).hexdigest() == \
            "30a8645bab48e2854caa8087cf0c52efad73edbf52b1eef2fb5fed678e403d36"


    # goldens captured before the window scan derived its intervals: a zero
    # last diagonal with an off-diagonal last row, zero positivity entries,
    # and an UnstableTruncation refusal, whose error report goes to stdout
    @pytest.mark.parametrize("name, gram, argv, code", [
        ("core-decompose-m2u-perfect", [[-2, 0, 0], [0, 0, 1], [0, 1, 0]],
         ["--positivity", "0,1,1", "--height", "3"], 0),
        ("core-decompose-um2m2-perfect",
         [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2]],
         ["--positivity", "1,1,0,0", "--height", "3"], 0),
        ("core-decompose-lc3-h4-unstable",
         [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]], ["--height", "4"], 1),
        # captured before the face lattice: light_cone(4), the one rank-5
        # support fan tier-1 reaches (about 2 s)
        ("core-decompose-lc4-perfect",
         [[1, 0, 0, 0, 0], [0, -1, 0, 0, 0], [0, 0, -1, 0, 0], [0, 0, 0, -1, 0],
          [0, 0, 0, 0, -1]], ["--height", "2"], 0),
    ])
    def test_core_decompose_goldens(self, tmp_path, capsys, name, gram, argv, code):
        path = write(tmp_path, "g.json", {"gram": [[str(x) for x in row] for row in gram]})
        got, blob = run_to_file(tmp_path, ["core-decompose", "--gram", path,
                                           "--variant", "perfect"] + argv)
        assert got == code
        if code:
            blob = capsys.readouterr().out.encode("ascii")
        assert blob == (GOLDEN / f"{name}.json").read_bytes()


class TestBoundaryRefusals:
    @pytest.mark.parametrize("argv", [
        ["core-decompose", "--gram", "@hyp", "--height", "0"],
        ["core-decompose", "--gram", "@hyp", "--height", "-2"],
        ["local-density", "--gram", "@one", "--p", "0"],
        ["local-density", "--gram", "@one", "--p", "1"],
        ["local-density", "--gram", "@one", "--p", "-3"],
        ["local-density", "--gram", "@one", "--p", "4"],
        ["hilbert-poly", "--n", "0"],
        ["chern", "td", "--degree", "-1"],
        ["chern", "q-poly", "--dim", "-1", "--rank", "1"],
        ["chern", "q-poly", "--dim", "2", "--rank", "-1"],
        ["invariants", "--gram", "@ragged"],
        ["invariants", "--gram", "@nonsquare"],
        ["invariants", "--gram", "@hyp", "--primes", "4"],
        ["invariants", "--gram", "@hyp", "--primes", str(10**400)],
        ["invariants", "--gram", "@hyp", "--primes", str(10**30 + 57)],
        ["local-density", "--gram", "@one", "--p", str(10**400)],
        ["local-density", "--gram", "@one", "--p", str(10**30 + 57)],
        ["fan", "validate", "--fan", "@half_ray"],
        ["fan", "validate", "--fan", "@no_rank"],
        ["fan", "validate", "--fan", "@long_ray"],
        ["fan", "subdivide", "--fan", "@p2", "--cone", "7"],
        ["core-decompose", "--gram", "@hyp", "--height", "1", "--gens", "@no_gens"],
        ["hm-volume", "--gram", "@g3", "--densities", "@bad_density"],
        ["hm-volume", "--gram", "@g3", "--alpha-inf", "abc"],
        ["dim-leading", "--gram", "@g3", "--ell", "1", "--alpha-inf", "1"],
        ["ramify", "--gram", "@hyp", "--bound", "-1"],
        ["local-density", "--gram", "@one", "--p", "3", "--kmax", "0"],
    ])
    def test_out_of_range_value_is_usage_error(self, tmp_path, capsys, argv):
        blobs = {
            "hyp": HYP,
            "one": {"gram": [["1"]]},
            "g3": {"gram": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]]},
            "ragged": {"gram": [["1", "0"], ["0"]]},
            "nonsquare": {"gram": [["1", "0"]]},
            "half_ray": {"rank": 2, "cones": [{"rays": [["1/2", "0"]]}]},
            "no_rank": {"cones": [{"rays": [[1, 0]]}]},
            "long_ray": {"rank": 2, "cones": [{"rays": [[1, 0, 0]]}]},
            "p2": P2_FAN,
            "no_gens": {"gens": []},
            "bad_density": {"alpha_p": ["4/3", "abc"]},
        }
        files = {"@" + k: write(tmp_path, k + ".json", v) for k, v in blobs.items()}
        assert main([files.get(a, a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["invariants", "--gram", "@hyp", "--primes", "2," + str(10**400)],
        ["local-density", "--gram", "@hyp", "--p", str(10**30 + 57)],
    ])
    def test_undecidable_prime_names_the_bound(self, tmp_path, capsys, argv):
        hyp = write(tmp_path, "hyp.json", HYP)
        assert main([hyp if a == "@hyp" else a for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "below 3317044064679887385961981" in err

    def test_unstable_density_detail_is_canonical(self, tmp_path, capsys):
        gram = write(tmp_path, "g3.json",
                     {"gram": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]]})
        assert main(["local-density", "--gram", gram, "--p", "3"]) == 1
        results = json.loads(capsys.readouterr().out)["results"]
        assert results == {"error": "NotStabilized",
                           "detail": "densities [16/9] did not stabilize by k_max=4 "
                                     "within the scan budget"}

    def test_degenerate_density_is_refused(self, tmp_path, capsys):
        # the density of a degenerate form does not exist: refuse it as
        # invariants does, not by the scan budget
        gram = write(tmp_path, "deg.json", {"gram": [["2", "0"], ["0", "0"]]})
        assert main(["local-density", "--gram", gram, "--p", "3"]) == 1
        results = json.loads(capsys.readouterr().out)["results"]
        assert results == {"error": "DegenerateForm", "detail": "det(gram) = 0"}
        assert main(["invariants", "--gram", gram]) == 1
        assert json.loads(capsys.readouterr().out)["results"] == results

    def test_domain_error_report_goes_to_stdout(self, tmp_path, capsys):
        # p = 2 is a prime outside desk scope: a domain error, not a usage error
        gram = write(tmp_path, "one.json", {"gram": [["1"]]})
        out = tmp_path / "out.json"
        assert main(["local-density", "--gram", gram, "--p", "2", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["results"]["error"] == "DeskScopeError"
        assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["core-decompose", "--gram", "g", "--height", "0"], "--height must be >= 1"),
    (["chern", "td", "--degree", "-1"], "--degree must be >= 0"),
    (["chern", "q-poly", "--dim", "-1", "--rank", "1"], "--dim must be >= 0"),
    (["chern", "q-poly", "--dim", "2", "--rank", "-1"], "--rank must be >= 0"),
    (["hilbert-poly", "--n", "0"], "--n must be >= 1"),
    (["local-density", "--gram", "g", "--p", "3", "--kmax", "0"], "--kmax must be >= 1"),
    (["hm-volume", "--gram", "g", "--densities", "d", "--spn", "0"], "--spn must be >= 1"),
    (["dim-leading", "--gram", "g", "--ell", "1", "--alpha-inf", "1"], "--ell must be >= 2"),
    (["dim-leading", "--gram", "g", "--ell", "3", "--spn=-2"], "--spn must be >= 1"),
    (["ramify", "--gram", "g", "--bound", "0"], "--bound must be >= 1"),
])
def test_integer_bound_is_checked_as_the_option_is_read(capsys, argv, message):
    # the parser refuses the value before any file is opened
    assert main(argv) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_every_command_parser_names_its_function():
    # a leaf parser without a func default would end main in a traceback;
    # chern td and chern q-poly inherit chern's
    import argparse

    from orthocusp.cli import build_parser

    def leaves(parser, func, path):
        func = parser.get_default("func") or func
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield path, func
        for action in subs:
            for name, child in action.choices.items():
                yield from leaves(child, func, path + (name,))

    found = dict(leaves(build_parser(), None, ()))
    assert ("chern", "td") in found and ("chern", "q-poly") in found
    assert len(found) == 12
    for path, func in found.items():
        assert callable(func) and func.__name__ == "cmd_" + path[0].replace("-", "_"), path


class TestDeterminism:
    CASES = None

    def cases(self, tmp_path):
        gram = write(tmp_path, "g.json", HYP)
        gram3 = write(tmp_path, "g3.json",
                      {"gram": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]]})
        atilde = write(tmp_path, "at.json", ATILDE4)
        fan = write(tmp_path, "f.json", P2_FAN)
        corevec = write(tmp_path, "core.json", HYP)
        return [
            ["invariants", "--gram", gram, "--primes", "2,3,5"],
            ["cusp", "--gram", atilde, "--flag", "rank2"],
            ["fan", "validate", "--fan", fan],
            ["fan", "chart", "--fan", fan, "--cone", "0"],
            ["chern", "td", "--degree", "3"],
            ["chern", "q-poly", "--dim", "2", "--rank", "1"],
            ["hilbert-poly", "--n", "3"],
            ["local-density", "--gram", write(tmp_path, "one.json", {"gram": [["1"]]}),
             "--p", "3"],
            ["hm-volume", "--gram", gram3, "--alpha-inf", "1"],
            ["dim-leading", "--gram", gram3, "--ell", "3", "--alpha-inf", "1"],
            ["ramify", "--gram", write(tmp_path, "gram_a2.json",
                                       {"gram": [["2", "1"], ["1", "2"]]}),
             "--bound", "1"],
            ["core-decompose", "--gram", corevec, "--positivity", "1,1",
             "--variant", "central", "--height", "4"],
        ]

    def test_byte_identical_reports(self, tmp_path):
        for i, argv in enumerate(self.cases(tmp_path)):
            code1, b1 = run_to_file(tmp_path, argv, name=f"a{i}.json")
            code2, b2 = run_to_file(tmp_path, argv, name=f"b{i}.json")
            assert code1 == code2 == 0, argv
            assert b1 == b2, argv
            assert b1.endswith(b"\n")
            rep = json.loads(b1)
            assert "conventions" in rep
            # canonical form: re-dumping reproduces the bytes
            assert dumps_canonical(rep).encode() == b1

    def test_reports_always_have_conventions_array(self, tmp_path):
        gram = write(tmp_path, "g.json", HYP)
        code, blob = run_to_file(tmp_path, ["invariants", "--gram", gram])
        rep = json.loads(blob)
        assert isinstance(rep["conventions"], list)


def isinstance_normalize_value(v):
    """A payload as canonical JSON scalars, by an isinstance chain: the
    reference for dumps_canonical and its hook."""
    if type(v) is str:
        return v
    if isinstance(v, Fraction):
        return rat_to_str(v)
    if isinstance(v, bool) or v is None:
        return v
    if isinstance(v, int):
        return v
    if isinstance(v, float):
        return float_to_json(v)
    if isinstance(v, (GaussianRational, complex)):
        return complex_to_json(v)
    if isinstance(v, dict):
        return {str(k): isinstance_normalize_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [isinstance_normalize_value(x) for x in v]
    return v


class Count(int):
    """An int subclass, which takes the isinstance chain."""


small_fraction = st.fractions(min_value=-50, max_value=50, max_denominator=12)
# str keys only, and floats only as float_to_json makes them: the two
# rules every report payload keeps
payload_scalars = st.one_of(
    small_fraction, st.integers(-9, 9).map(Fraction), st.integers(), st.booleans(),
    st.integers(-9, 9).map(Count), st.none(), st.floats().map(float_to_json),
    st.just(float_to_json(-0.0)), st.builds(GaussianRational, small_fraction, small_fraction),
    st.complex_numbers(), st.text(max_size=4))
payloads = st.recursive(payload_scalars, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=3), kids, max_size=4)),
    max_leaves=30)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(payloads)
def test_encoder_matches_the_isinstance_chain(v):
    assert dumps_canonical(v) == dumps_canonical(isinstance_normalize_value(v))


def refuse_float(text):
    raise AssertionError(f"a report holds the JSON float {text}")


def test_no_golden_report_holds_a_json_float():
    # floats reach a report as float_to_json strings, never as JSON numbers
    goldens = sorted(GOLDEN.glob("*.json"))
    assert goldens
    for path in goldens:
        json.loads(path.read_text(), parse_float=refuse_float)


class TestReportNormalization:
    def test_minus_zero_normalized(self):
        assert float_to_json(-0.0) == float_to_json(0.0) == "0.0"
        assert complex_to_json(complex(-0.0, -0.0)) == ["0.0", "0.0"]
        assert dumps_canonical([complex(-0.0, -0.0)]) == '[["0.0","0.0"]]\n'

    def test_encoder_refuses_other_types(self):
        for v in (object(), {1, 2}, b"x"):
            with pytest.raises(TypeError):
                dumps_canonical({"results": [v]})

    def test_float_mode_flag_parses(self, tmp_path):
        point = {
            "model": "bounded",
            "coords": [["0", "0"], ["0", "0"]],
            "frame": ATILDE4,
        }
        pf = write(tmp_path, "p.json", point)
        code, blob = run_to_file(tmp_path, ["map-point", "--point", pf,
                                            "--from", "bounded", "--to", "tube",
                                            "--mode", "float", "--tol", "1e-9"])
        assert code == 0
        rep = json.loads(blob)
        assert any("1e-09" in c or "1e-9" in c for c in rep["conventions"])
        # float outputs are tagged as float reprs, not rational strings
        assert rep["results"]["coords"][0] == ["0.0", "1.0"]


class TestThreadCap:
    def test_env_var_validated(self, tmp_path, monkeypatch):
        gram = write(tmp_path, "g.json", HYP)
        monkeypatch.setenv("ORTHOCUSP_THREADS", "not-a-number")
        assert main(["invariants", "--gram", gram]) == 2
        monkeypatch.setenv("ORTHOCUSP_THREADS", "0")
        assert main(["invariants", "--gram", gram]) == 2
        monkeypatch.setenv("ORTHOCUSP_THREADS", "4")
        assert main(["invariants", "--gram", gram, "--out",
                     str(tmp_path / "ok.json")]) == 0


class TestRamifyCLI:
    def test_a2_table(self, tmp_path):
        gram = write(tmp_path, "a2.json", {"gram": [["2", "1"], ["1", "2"]]})
        code, blob = run_to_file(tmp_path, ["ramify", "--gram", gram, "--bound", "1"])
        assert code == 0
        rep = json.loads(blob)["results"]
        assert rep["group_size"] == 12
        classes = {r["classification"] for r in rep["elements"]}
        assert "interior_unramified" in classes
        assert "minus_identity" in classes

    def test_elements_without_fixed_vectors_are_certified(self, tmp_path):
        # U+U at bound 1, typed e1, e2, f1, f2: the 10 elements whose
        # certificate needs v + R^j mate with j > 0 are special cycles with
        # a verified decomposition, not skipped rows
        gram = write(tmp_path, "uu.json", ATILDE4)
        code, blob = run_to_file(tmp_path, ["ramify", "--gram", gram, "--bound", "1"])
        assert code == 0
        rep = json.loads(blob)["results"]
        assert len(rep["elements"]) == rep["group_size"] == 800
        classes = [r["classification"] for r in rep["elements"]]
        assert not any(c.startswith("skipped: fixed") for c in classes)
        special = [r for r in rep["elements"] if r["classification"] == "special_cycle"]
        assert all(r["decomposition_verified"] for r in special)
        assert "interior_unramified" in classes

    def test_each_cyclic_subgroup_is_classified_once(self, tmp_path, monkeypatch):
        # <1,1,-1,-1> at bound 1: 128 elements of finite order in 90 cyclic
        # subgroups, which pair as <g>, <-g> into 50 fixed sublattices; the
        # other generators of a subgroup copy its row fields
        import orthocusp.cycles as cycles

        outcomes, fixed = [], []
        classify, fixed_sublattice = cycles.classify_subgroups, cycles.fixed_sublattice
        monkeypatch.setattr(cycles, "classify_subgroups",
                            lambda pool, L: outcomes.append(classify(pool, L)) or outcomes[-1])
        monkeypatch.setattr(cycles, "fixed_sublattice",
                            lambda g, L: fixed.append(g) or fixed_sublattice(g, L))
        gram = write(tmp_path, "g4.json", {"gram": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                                                    ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]})
        code, _ = run_to_file(tmp_path, ["ramify", "--gram", gram, "--bound", "1"])
        assert code == 0
        assert [len(out) for out in outcomes] == [90]
        assert len(fixed) == 50

    @pytest.mark.parametrize("gram, bound", [
        ([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], 1),
        ([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], 2),
        ([[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [1, 0, 0, 0, 0], [0, 1, 0, 0, 0],
          [0, 0, 0, 0, -2]], 1),
        ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]], 1),
        ([[2, 1, 0], [1, 2, 0], [0, 0, -1]], 2),
    ], ids=["u+u", "u+u-b2", "u+u+<-2>", "g4", "a2+<-1>"])
    def test_rows_do_not_depend_on_the_basis(self, tmp_path, gram, bound):
        # P^t G P for a permutation matrix P: conjugation by P maps the box
        # and the pool onto themselves, so the rows, matrices left out,
        # form the same multiset.  Swapping coordinates 1 and 2 retypes
        # U+U from e1, e2, f1, f2 to e1, f1, e2, f2.
        m = len(gram)
        swap = [0, 2, 1] + list(range(3, m))
        shift = list(range(1, m)) + [0]

        def rows(perm):
            path = write(tmp_path, "g.json", {"gram": [[str(gram[i][j]) for j in perm]
                                                       for i in perm]})
            code, blob = run_to_file(tmp_path, ["ramify", "--gram", path,
                                                "--bound", str(bound)])
            assert code == 0
            return sorted(json.dumps({k: v for k, v in row.items() if k != "matrix"},
                                     sort_keys=True)
                          for row in json.loads(blob)["results"]["elements"])

        want = rows(list(range(m)))
        assert rows(swap) == want
        assert rows(shift) == want
