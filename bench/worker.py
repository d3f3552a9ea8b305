"""One benchmark pass in a fresh interpreter.

Set-up: import ``orthocusp.cli``, write the workload's inputs into the work
directory and load the expected digests; then print a ``ready`` line.  The
pass calls ``orthocusp.cli.main(argv + ["--out", path])`` for each case in
the given order and prints one JSON line per case and a final ``done``
line.  The CLI's own stdout is captured per case, so the protocol lines on
the real stdout stay parseable.

    python3 bench/worker.py --workload cli17 --order 3,0,1,... --workdir DIR
        [--trace] [--spans FILE] [--probe] [--expected FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_case(main, argv, out_path):
    """Call the CLI once; return (exit code, seconds, report bytes, captured stdout).

    An exception escaping the CLI is a failed case, not a dead worker: its
    type and message stand in for the exit code.
    """
    if os.path.exists(out_path):
        os.remove(out_path)
    captured = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        try:
            rc = main(list(argv) + ["--out", out_path])
        except Exception as e:  # noqa: BLE001 - the pass must go on and report it
            rc = f"{type(e).__name__}: {e}"
    elapsed = time.perf_counter() - t0
    data = b""
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            data = fh.read()
    return rc, elapsed, data, captured.getvalue()


def judge(case, rc, data, expected):
    """Why the invocation failed, or None: exit code, digest, independent check."""
    if rc != 0:
        return f"exit code {rc}" if isinstance(rc, int) else f"raised {rc}"
    digest = hashlib.sha256(data).hexdigest()
    if digest != expected:
        return f"digest {digest[:16]} != expected {str(expected)[:16]}"
    if case.check is not None:
        return case.check(json.loads(data))
    return None


def _emit(stream, obj):
    stream.write(json.dumps(obj) + "\n")
    stream.flush()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--order", required=True, help="comma-separated case indices")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--expected", default=os.path.join(HERE, "expected.json"))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="write the traced spans here")
    ap.add_argument("--probe", action="store_true", help="set up, report ready, exit")
    args = ap.parse_args(argv)
    proto = sys.stdout

    t0 = time.perf_counter()
    from orthocusp import cli
    import_s = time.perf_counter() - t0

    from workloads import INPUTS, WORKLOADS

    workload = WORKLOADS[args.workload]
    paths = {}
    for name in workload.inputs():
        paths[name] = os.path.join(args.workdir, name)
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(INPUTS[name], fh)
    with open(args.expected, encoding="utf-8") as fh:
        expected = json.load(fh)
    cases = [workload.cases[int(i)] for i in args.order.split(",")]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    _emit(proto, {"ready": True, "import_s": import_s, "pid": os.getpid()})
    if args.probe:
        return 0

    out_path = os.path.join(args.workdir, "report.json")
    elapsed_by_case = []
    pass_start = time.perf_counter()
    for idx, case in enumerate(cases):
        argv = [paths[a[1:]] if a.startswith("@") else a for a in case.argv]
        if tracer is not None:
            tracer.current_case = idx
        rc, elapsed, data, stdout = run_case(cli.main, argv, out_path)
        elapsed_by_case.append(elapsed)
        reason = judge(case, rc, data, expected.get(case.id))
        _emit(proto, {"case": case.id, "rc": rc, "s": elapsed, "fail": reason,
                      "stdout": stdout[:200] if reason else ""})
    wall_s = time.perf_counter() - pass_start

    done = {"done": True, "wall_s": wall_s,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        from tracer import layer_metrics

        agg = tracer.aggregate()
        done["layers"] = layer_metrics(agg, tracer.counters)
        done["wrapped_self_s"] = sum(r["self_s"] for r in agg.values())
        done["install_import_s"] = tracer.import_s
        done["notes"] = tracer.notes
        done["attribution"] = {
            cases[c].id: [(label, s, s / elapsed_by_case[c]) for label, s in top]
            for c, top in tracer.case_attribution().items() if c >= 0}
        if args.spans:
            tracer.write_spans(args.spans)
    _emit(proto, done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
