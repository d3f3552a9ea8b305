"""Write bench/expected.json: the sha256 of every case's canonical report.

    python3 bench/capture.py

Run once at the commit whose outputs are the reference; the benchmark then
counts any later difference as a failed case.  Every case must exit 0 and
pass its independent check here, or nothing is written.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from worker import run_case  # noqa: E402
from workloads import INPUTS, WORKLOADS  # noqa: E402


def main():
    from orthocusp.cli import main as cli_main

    workdir = os.path.join(ROOT, ".bench_out", "capture")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name, blob in INPUTS.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                json.dump(blob, fh)
        expected = {}
        for w in WORKLOADS.values():
            for case in w.cases:
                argv = [os.path.join(workdir, a[1:]) if a.startswith("@") else a
                        for a in case.argv]
                rc, _, data, _ = run_case(cli_main, argv, os.path.join(workdir, "out.json"))
                problem = f"exit code {rc}" if rc else (
                    case.check(json.loads(data)) if case.check else None)
                if problem:
                    print(f"{case.id}: {problem}", file=sys.stderr)
                    return 1
                expected[case.id] = hashlib.sha256(data).hexdigest()
                print(case.id, expected[case.id])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
