"""Tests of the benchmark itself:  python3 -m pytest -q bench"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import run  # noqa: E402
import worker  # noqa: E402
from tracer import COUNTS, LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, unimodular_rank2_density  # noqa: E402


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_nested_calls():
    tr = Tracer(clock=_fake_clock([0.0, 1.0, 3.0, 4.0, 7.0, 10.0]))
    inner = tr.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    outer = tr.wrap("outer", body)
    outer()
    agg = tr.aggregate()
    assert agg["outer"] == {"calls": 1, "s": 10.0, "self_s": 5.0}
    assert agg["inner"] == {"calls": 2, "s": 5.0, "self_s": 5.0}
    assert tr.parent == [-1, 0, 0]


def test_recursive_span_counts_inclusive_time_once():
    tr = Tracer(clock=_fake_clock([0.0, 2.0, 3.0, 6.0]))

    def fact(n):
        return 1 if n == 0 else n * traced(n - 1)

    traced = tr.wrap("fact", fact)
    assert traced(1) == 1
    agg = tr.aggregate()["fact"]
    # outer span 0..6 with its child 2..3: self 5 + 1
    assert agg == {"calls": 2, "s": 6.0, "self_s": 6.0}


def test_missing_target_reports_zero_with_note():
    tr = Tracer()
    tr.install(targets=(("fan", "no_such_function"), ("no_such_module", "f")))
    assert len(tr.notes) == 2
    assert all("not found" in note for note in tr.notes)
    values = layer_metrics(tr.aggregate(), tr.counters)
    assert set(values) == {name for name, *_ in LAYER_METRICS}
    assert all(v == 0 for v in values.values())


def test_counter_on_changed_signature_notes_instead_of_crashing():
    tr = Tracer()

    def cone_lattice_points(cone, window):  # parameter renamed from ``height``
        return ()

    traced = tr.wrap("corecone.cone_lattice_points", cone_lattice_points,
                     COUNTS["corecone.cone_lattice_points"])
    assert traced(None, 2) == ()
    assert tr.aggregate()["corecone.cone_lattice_points"]["calls"] == 1
    assert len(tr.notes) == 1 and "counts skipped" in tr.notes[0]


def test_tracer_sees_lp_calls_made_through_corecone_alias():
    script = """
import json
from tracer import Tracer
tr = Tracer()
tr.install()
from orthocusp import corecone
cone = corecone.light_cone(2)
pool = corecone.cone_lattice_points(cone, 1)
rays = corecone.boundary_rays(cone, 1)
corecone._extreme_points_of(pool, rays, cone)
lid = tr.labels.index("corecone._reducible")
lp = tr.labels.index("fan._nonneg_solve")
under = sum(1 for s, n in enumerate(tr.name) if n == lp and tr.name[tr.parent[s]] == lid)
print(json.dumps({"lp_under_reducible": under, "notes": tr.notes}))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, SRC]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got["lp_under_reducible"] > 0
    assert got["notes"] == []


def test_fail_share_counts_bad_digest_and_nonzero_exit(tmp_path):
    from orthocusp.cli import main as cli_main

    case = WORKLOADS["cli17"].cases[12]  # hilbert-poly, no input files
    out = str(tmp_path / "r.json")
    rc, _, data, _ = worker.run_case(cli_main, case.argv, out)
    with open(os.path.join(HERE, "expected.json")) as fh:
        good = json.load(fh)[case.id]
    assert worker.judge(case, rc, data, good) is None
    corrupt = ("0" if good[0] != "0" else "1") + good[1:]
    assert worker.judge(case, rc, data, corrupt).startswith("digest")
    rc_bad, _, data_bad, _ = worker.run_case(
        cli_main, ["local-density", "--gram", str(tmp_path / "missing.json"), "--p", "5"], out)
    assert rc_bad == 2
    assert worker.judge(case, rc_bad, data_bad, good) == "exit code 2"

    rc_exc, _, data_exc, _ = worker.run_case(lambda argv: 1 // 0, [], out)
    assert worker.judge(case, rc_exc, data_exc, good).startswith("raised ZeroDivisionError")

    passes = [{"cases": [{"fail": worker.judge(case, rc, data, corrupt)},
                         {"fail": worker.judge(case, rc_bad, data_bad, good)},
                         {"fail": worker.judge(case, rc, data, good)},
                         {"fail": worker.judge(case, rc_exc, data_exc, good)}]}]
    assert run.fail_count(passes) == (3, 4)


def test_corrupted_expected_file_fails_exactly_that_case(tmp_path):
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    victim = WORKLOADS["cli17"].cases[0].id
    expected[victim] = "0" * 64
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    ids = list(range(len(WORKLOADS["cli17"].cases)))
    rec = run.run_pass("cli17", ids, str(tmp_path / "work"), expected=str(path))
    failed = [c["case"] for c in rec["cases"] if c["fail"]]
    assert failed == [victim]
    assert run.fail_count([rec]) == (1, len(ids))


def test_each_pass_gets_a_worker_that_has_ended(tmp_path):
    ids = list(range(len(WORKLOADS["cli17"].cases)))
    first = run.run_pass("cli17", ids, str(tmp_path / "a"))
    try:
        os.kill(first["pid"], 0)
        alive = True
    except ProcessLookupError:
        alive = False
    assert not alive
    assert not (tmp_path / "a").exists()
    second = run.run_pass("cli17", ids, str(tmp_path / "b"))
    assert second["pid"] != first["pid"]
    assert all(not c["fail"] for c in first["cases"] + second["cases"])


def test_tail_percentile_needs_ten_beyond():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(11))) == (100.0 / 11, 0)
    pct, value = run.tail(list(range(100, 0, -1)))
    assert (pct, value) == (90.0, 90)


def test_case_minima_keep_each_cases_fastest_invocation():
    passes = [{"cases": [{"case": "a/0", "s": 2.0}, {"case": "b/0", "s": 1.0}]},
              {"cases": [{"case": "b/0", "s": 3.0}, {"case": "a/0", "s": 1.5}]}]
    assert run.case_minima(passes) == {"a/0": 1.5, "b/0": 1.0}


def test_unimodular_density_formula():
    from fractions import Fraction

    assert unimodular_rank2_density([[2, 1], [1, 2]], 5) == Fraction(12, 5)
    assert unimodular_rank2_density([[0, 1], [1, 0]], 5) == Fraction(8, 5)


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = [WORKLOADS[w["name"]] for w in spec["workloads"]]
    assert {c.id for w in listed for c in w.cases} == {c.id for w in WORKLOADS.values()
                                                      for c in w.cases}
    layer_names = [name for name, *_ in LAYER_METRICS]
    layer_names += ["worker.import_s", "trace.overhead_s", "trace.coverage"]
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"setup_s", "pass_min_s", "peak_rss_mb"}
