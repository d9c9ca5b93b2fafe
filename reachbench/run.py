"""Benchmark entry point: one run of one workload, printed as one JSON line.

    python3 reachbench/run.py --workload lti-cmz --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the library is imported from its
``src`` directory.  Each run starts fresh interpreters with BLAS pinned to
one thread: SETUP_PROBES that only set up (for ``setup_s``), then the one
that measures.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones.  The exit code is not 0, and nothing is printed on
stdout, when the checkout has no library or any run fails to finish.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_PROBES = 3
TIME_LIMIT = 170.0
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}


class RunError(RuntimeError):
    pass


def _child(args, deadline):
    """Start child.py with args; returns (spawn time, parsed last stdout line)."""
    env = dict(os.environ, **PINNED)
    env.pop("PYTHONPATH", None)
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen([sys.executable, str(CHILD), *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("run did not finish in time")
    if proc.returncode != 0:
        raise RunError(f"child exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RunError("child printed no result")
    return spawned, json.loads(lines[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(workload, seed, seconds, trace):
    if not (ROOT / "src" / "datareach" / "__init__.py").is_file():
        raise RunError(f"no library source under {ROOT / 'src'}")
    deadline = time.monotonic() + TIME_LIMIT
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    for _ in range(SETUP_PROBES):
        spawned, res = _child(common + ["--setup-only"], deadline)
        setups.append(res["ready"] - spawned)
    spawned, res = _child(common + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(res["ready"] - spawned)
    if not res["study_s"]:
        raise RunError("no operation finished")

    study_s = statistics.median(res["study_s"])
    if trace:
        metrics = {name: _metric(v, unit) for name, (v, unit) in res["layers"].items()}
        traced_s = statistics.median(res["traced_s"]) if res["traced_s"] else 0.0
        metrics["harness.output_files"] = _metric(res["output_files"], "count")
        metrics["harness.output_mb"] = _metric(res["output_bytes"] / 1e6, "MB")
        metrics["trace.study_s"] = _metric(traced_s, "s")
        metrics["trace.overhead"] = _metric(traced_s / study_s - 1.0, "ratio")
    else:
        metrics = {
            "study_s": _metric(study_s, "s"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
            "looseness": _metric(statistics.median(res["looseness"]), "1"),
        }
    return {"correct": bool(res["correct"]), "attempted": int(res["attempted"]),
            "failed": int(res["failed"]), "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except RunError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
