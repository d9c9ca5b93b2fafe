"""One benchmark run inside a fresh interpreter; started by run.py.

    python3 reachbench/child.py --workload W --seed N --seconds S --trace 0|1
    python3 reachbench/child.py --workload W --seed N --setup-only

Set-up is importing the library and building the run's configs and true
systems; the CLOCK_MONOTONIC time at which it ends is reported as "ready".
Then whole rounds of operations run as long as the run length has not
passed when a round starts; the oracle's time is not counted in it.  In a
traced run each operation runs once untraced and once traced, back to
back, which gives the tracing overhead.
The oracle checks the first operation of each item as soon as it ends,
outside the timed call; every repeat of an item must produce byte-identical
outputs.  The last stdout line is one JSON object.
"""

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _setup(args):
    sys.path.insert(0, str(ROOT / "src"))
    import datareach

    if Path(datareach.__file__).resolve().parent != ROOT / "src" / "datareach":
        raise SystemExit(f"datareach imported from {datareach.__file__}, not from this checkout")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    return workload, workload.items(args.seed)


def _measure(items, seconds, seed, out_root, tracer):
    """Run whole rounds of operations.

    The first good operation of each item is checked by the oracle right
    away, outside the timed call, and its outputs are dropped, so nothing
    the benchmark keeps adds to the memory peak.  Later operations of the
    item must reproduce its digest.  Returns (ops, looseness per item,
    messages, correct).
    """
    import datareach as dr
    import numpy as np

    program_errors = (dr.HarnessError, ValueError, RuntimeError, np.linalg.LinAlgError)
    ops, digests, looseness, messages = [], {}, {}, []
    correct = True
    start = time.perf_counter()
    checking = 0.0  # oracle time, which does not count against the run length
    while time.perf_counter() - start - checking < seconds:
        for idx, (op_kind, cfg, system) in enumerate(items):
            for traced in ((False, True) if tracer else (False,)):
                out_dir = out_root / f"op{len(ops)}"
                op = {"item": idx, "traced": traced, "error": None, "result": None}
                ops.append(op)
                if traced:
                    tracer.install()
                    tracer.enabled = True
                try:
                    if traced:
                        op["result"] = tracer.span("bench.op", op_kind.run, cfg, system, str(out_dir))
                    else:
                        op["result"] = op_kind.run(cfg, system, str(out_dir))
                except program_errors as err:
                    op["error"] = f"{type(err).__name__}: {err}"
                finally:
                    if traced:
                        tracer.enabled = False
                        tracer.uninstall()
                res = op["result"]
                if res is None:
                    messages.append(f"item {idx}: {op['error']}")
                elif idx not in digests:
                    rng = np.random.default_rng([seed % 2**31, idx, 0x0C0FFEE])
                    t0 = time.perf_counter()
                    fails = op_kind.check(cfg, res.outputs, str(out_dir), rng)
                    checking += time.perf_counter() - t0
                    digests[idx] = None if fails else res.digest
                    if res.looseness is not None:
                        looseness[idx] = res.looseness
                    messages += [f"item {idx}: {m}" for m in fails]
                elif digests[idx] is not None and res.digest != digests[idx]:
                    messages.append(f"item {idx}: outputs differ from an earlier run of the same config")
                if res is not None:
                    res.outputs = None
                    if digests.get(idx) is None or res.digest != digests[idx]:
                        op["error"] = "check"
                        correct = False
                shutil.rmtree(out_dir, ignore_errors=True)
    return ops, looseness, messages, correct


def main(argv=None):
    args = _parse(argv)
    workload, items = _setup(args)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()  # fail before measuring if a traced name is gone
        tracer.uninstall()
    out_root = ROOT / ".bench_out" / f"{workload.name}-{args.seed}-{args.trace}"
    shutil.rmtree(out_root, ignore_errors=True)
    try:
        ops, looseness, messages, correct = _measure(items, args.seconds, args.seed, out_root, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    for m in messages:
        print(f"check: {m}", file=sys.stderr)

    good = [op for op in ops if op["error"] is None]
    timed = [op for op in ops if op["result"] is not None]  # oracle failures ran to the end
    plain = [op["result"].seconds for op in timed if not op["traced"]]
    traced = [op["result"].seconds for op in timed if op["traced"]]
    out = {
        "ready": ready,
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "correct": correct,
        "study_s": plain,
        "looseness": list(looseness.values()),
        "peak_rss_mb": peak_rss_mb,
        "output_files": statistics.fmean([op["result"].output_files for op in timed]) if timed else 0.0,
        "output_bytes": statistics.fmean([op["result"].output_bytes for op in timed]) if timed else 0.0,
    }
    if tracer is not None:
        n_traced = sum(op["traced"] for op in ops)
        out["layers"] = {k: list(v) for k, v in layer_metrics(tracer.spans, n_traced).items()}
        out["traced_s"] = traced
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
