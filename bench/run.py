"""Benchmark of the ``orthocusp`` CLI: end-to-end and per-layer metrics.

    python3 bench/run.py --workload cli17 --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout (``src/orthocusp`` must exist).
Closed loop with one client: one worker process at a time runs the
workload's cases in sequence, in an order shuffled by the seed, and every
pass gets a fresh worker.  Each report's bytes are checked against the
committed sha256 in ``bench/expected.json``.

``--trace 0`` spawns a few set-up-only workers, then runs passes until the
time is up (at least one) and reports the end-to-end metrics.  ``--trace 1``
runs pairs of an untraced and a traced pass and reports the per-layer
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit and sample count and hold the run context.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

from tracer import LAYER_METRICS  # noqa: E402
from workloads import EXCLUDED, WORKLOADS  # noqa: E402

SETUP_PROBES = 15
PASS_TIMEOUT_S = 150
WORKER_ENV = {"ORTHOCUSP_THREADS": "1", "PYTHONHASHSEED": "0"}


class WorkerError(RuntimeError):
    """A worker died or broke the line protocol (not a failed case)."""


def run_pass(workload, order, workdir, trace=False, probe=False, spans=None,
             expected=None):
    """Spawn one worker, wait for it to end, and return its records.

    setup_s runs from the spawn to the worker's ready line.
    """
    os.makedirs(workdir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--order", ",".join(map(str, order)), "--workdir", workdir]
    cmd += ["--trace"] if trace else []
    cmd += ["--probe"] if probe else []
    cmd += ["--spans", spans] if spans else []
    cmd += ["--expected", expected] if expected else []
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **WORKER_ENV)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            env=env, cwd=ROOT, text=True)
    timer = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        lines = [first] + proc.stdout.readlines()
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    try:
        records = [json.loads(line) for line in lines if line.strip()]
    except json.JSONDecodeError as e:
        raise WorkerError(f"worker output is not JSON lines: {e}") from None
    if rc != 0 or not records or not records[0].get("ready") \
            or (not probe and not records[-1].get("done")):
        raise WorkerError(f"worker for {workload} exited with code {rc}")
    rec = {"pid": proc.pid, "setup_s": setup_s, "import_s": records[0]["import_s"]}
    if not probe:
        rec["cases"] = records[1:-1]
        rec.update(records[-1])
    shutil.rmtree(workdir, ignore_errors=True)
    return rec


def tail(values):
    """(percentile, value) at the highest percentile with >= 10 samples
    beyond it, or None with fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return 100.0 * (k + 1) / n, sorted(values)[k]


def fail_count(passes):
    """(failed, attempted) over every case invocation of the given passes."""
    cases = [c for p in passes for c in p["cases"]]
    return sum(1 for c in cases if c["fail"]), len(cases)


def reference_loop_s():
    """Time of a fixed pure-Python loop: machine-speed context, never gated."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.exists(loose):
            with open(loose, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_context(seed):
    return {"git_commit": _git_commit(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu_model": _cpu_model(), "seed": seed,
            **WORKER_ENV}


def _line(name, value, unit, samples):
    shown = "-" if value is None else f"{value:.6g}"
    print(f"  {name:<44} {shown:>14} {unit:<6} {samples}")


def measure(workload, seed, seconds, trace, workdir):
    """Run passes until ``seconds`` are used (at least one); return the record."""
    w = WORKLOADS[workload]
    rng = random.Random(seed)
    ids = list(range(len(w.cases)))
    deadline = time.perf_counter() + seconds
    plain, traced, probes = [], [], []
    if not trace:
        for i in range(SETUP_PROBES):
            probes.append(run_pass(workload, ids, os.path.join(workdir, f"probe{i}"),
                                   probe=True))
    last = 0.0
    while not plain or time.perf_counter() + last <= deadline:
        t0 = time.perf_counter()
        plain.append(run_pass(workload, rng.sample(ids, len(ids)),
                              os.path.join(workdir, f"pass{len(plain)}")))
        if trace:
            spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.csv.gz")
            traced.append(run_pass(workload, rng.sample(ids, len(ids)),
                                   os.path.join(workdir, f"traced{len(traced)}"),
                                   trace=True, spans=spans))
        last = time.perf_counter() - t0
    return {"plain": plain, "traced": traced, "probes": probes}


def case_minima(passes):
    """Each case's fastest invocation over the given passes: case id -> seconds.

    The host's cores switch between a fast state and one about 1.5x slower
    within a second, and the share of slow time drifts over minutes.  A
    case's fastest invocation is the one least slowed by that, so their sum
    moves with the program's own cost far more than a median pass.
    """
    best = {}
    for p in passes:
        for c in p["cases"]:
            best[c["case"]] = min(best.get(c["case"], c["s"]), c["s"])
    return best


def end_to_end(run):
    """Gated metrics, and the ungated ones: (name -> (value, unit, samples)) x 2.

    wall_s (the median pass), case_ms_p50 and case_ms_tail are printed but
    not gated: they follow the host's share of slow time, so their
    run-to-run spread is too wide for a bound of 25 %.  A workload made of
    several case groups also prints each group's share of pass_min_s.
    """
    plain, workers = run["plain"], run["probes"] + run["plain"]
    times_ms = [1000.0 * c["s"] for p in plain for c in p["cases"]]
    best = case_minima(plain)
    gated = {
        "setup_s": (statistics.median(p["setup_s"] for p in workers), "s",
                    f"median of {len(workers)} workers"),
        "pass_min_s": (sum(best.values()), "s", f"sum over {len(best)} cases of the "
                       f"fastest of {len(plain)} passes"),
        "peak_rss_mb": (statistics.median(p["rss_kb"] for p in plain) / 1024.0, "MB",
                        f"median of {len(plain)} workers"),
    }
    ungated = {"wall_s": (statistics.median(p["wall_s"] for p in plain), "s",
                          f"median of {len(plain)} passes"),
               "case_ms_p50": (statistics.median(times_ms), "ms",
                               f"median of {len(times_ms)} invocations")}
    t = tail(times_ms)
    if t is None:
        ungated["case_ms_tail"] = (None, "ms", f"omitted: {len(times_ms)} invocations, "
                                   "a tail needs at least 11")
    else:
        ungated["case_ms_tail"] = (t[1], "ms", f"p{t[0]:.2f} of {len(times_ms)} invocations")
    groups = {}
    for case_id, s in best.items():
        group = case_id.split("/", 1)[0]
        groups[group] = groups.get(group, 0.0) + s
    if len(groups) > 1:
        for group, s in sorted(groups.items()):
            ungated[f"pass_min_s.{group}"] = (s, "s", f"the {group} cases' part")
    return gated, ungated


def per_layer(run):
    traced, plain = run["traced"], run["plain"]
    n = len(traced)
    sums = {}
    for p in traced:
        for name, value in p["layers"].items():
            sums[name] = sums.get(name, 0.0) + value
    units = {name: unit for name, unit, *_ in LAYER_METRICS}
    metrics = {name: (sums.get(name, 0.0) / n, units[name], f"mean of {n} traced passes")
               for name, *_ in LAYER_METRICS}
    workers = plain + traced
    metrics["worker.import_s"] = (statistics.median(p["import_s"] for p in workers), "s",
                                  f"median of {len(workers)} workers")
    # the traced worker imports every layer up front, which the untraced
    # pass does lazily inside its cases
    overhead = [t["wall_s"] + t["install_import_s"] - p["wall_s"]
                for p, t in zip(plain, traced)]
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s",
                                   f"median of {n} traced-minus-untraced pairs")
    coverage = [p["wrapped_self_s"] / p["wall_s"] for p in traced]
    metrics["trace.coverage"] = (statistics.median(coverage), "share",
                                 f"wrapped self time / traced wall, median of {n}")
    return metrics, {}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "orthocusp", "cli.py")):
        print("bench: src/orthocusp not found; run from a source checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    ref_before = reference_loop_s()
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except WorkerError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ref_after = reference_loop_s()

    passes = run["plain"] + run["traced"]
    failed, attempted = fail_count(passes)
    metrics, ungated = per_layer(run) if args.trace else end_to_end(run)
    ungated["fail_share"] = (failed / attempted, "share",
                             f"{failed} of {attempted} invocations")
    context = run_context(args.seed)
    context["reference_loop_s"] = [ref_before, ref_after]

    w = WORKLOADS[args.workload]
    print(f"workload {w.name}: {w.why}")
    print(f"  context {json.dumps(context)}")
    for name, (value, unit, samples) in metrics.items():
        _line(name, value, unit, samples)
    print("  not gated:")
    for name, (value, unit, samples) in ungated.items():
        _line(name, value, unit, samples)
    if args.trace:
        for note in sorted({note for p in run["traced"] for note in p["notes"]}):
            print(f"  note: {note}")
        for case_id, top in sorted(run["traced"][-1]["attribution"].items()):
            print(f"  {case_id}: " + ", ".join(f"{label} {s:.3f}s ({100 * share:.0f}%)"
                                               for label, s, share in top))
    for p in passes:
        for c in p["cases"]:
            if c["fail"]:
                print(f"  FAILED {c['case']}: {c['fail']} {c['stdout'].strip()}")
    print(f"  excluded: {'; '.join(EXCLUDED)}")
    record = {"workload": w.name, "context": context,
              "metrics": {name: {"value": v, "unit": u, "samples": n}
                          for name, (v, u, n) in {**metrics, **ungated}.items()}}
    print(f"  record {json.dumps(record)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
