"""Planted faults: shows that every oracle check can fail.

    python3 reachbench/faults.py [--seed 1]

Runs one operation of each workload, confirms that the oracle passes on
the true outputs, then plants one small fault at a time (a bound shrunk, a
polygon vertex moved, a volume nudged, the true system perturbed) and
confirms that the matching check fails.  Prints one line per fault and
exits 1 if any fault goes unnoticed or a clean output fails.  Run it from
the root of a checkout; it writes only under .bench_out/.
"""

import argparse
import copy
import csv
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import datareach as dr  # noqa: E402

import oracle  # noqa: E402
from workloads import CMZ_COMBO, WORKLOADS  # noqa: E402

MARGIN = 1e-4


def _rng(seed):
    return np.random.default_rng([seed, 0xFA17])


def _perturbed(cfg, scale=1.0 + MARGIN):
    """True dynamics with every A and B scaled by `scale`."""
    return [(a * scale, b * scale, region) for a, b, region in oracle.true_dynamics(cfg)]


def _move_vertex(out_dir, combo, dims, step, toward_centre):
    """Copy out_dir and move vertex 0 of one polygon toward its centroid."""
    moved = f"{out_dir}-fault"
    shutil.rmtree(moved, ignore_errors=True)
    shutil.copytree(out_dir, moved)
    path = os.path.join(moved, "polygons", f"{combo}_{dims[0]}-{dims[1]}.csv")
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    body = [r for r in rows[1:] if int(r[0]) == step and int(r[1]) == 0]
    pts = np.array([[float(r[2]), float(r[3])] for r in body])
    centre = pts.mean(axis=0)
    v = pts[0] + toward_centre * (centre - pts[0]) / np.linalg.norm(centre - pts[0])
    body[0][2], body[0][3] = repr(float(v[0])), repr(float(v[1]))
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)
    return moved


def _scale_set(out_dir, combo, step, scale):
    """Copy out_dir and scale the generators of one set file."""
    moved = f"{out_dir}-fault"
    shutil.rmtree(moved, ignore_errors=True)
    shutil.copytree(out_dir, moved)
    path = os.path.join(moved, "sets", combo, f"step{step}.json")
    with open(path) as f:
        payload = json.load(f)
    s = payload["fragments"][0]["set"]
    s["G"] = (oracle.decode_array(s["G"]) * scale).tolist()
    with open(path, "w") as f:
        json.dump(payload, f)
    return moved


def lti_cmz_faults(cfg, report, out_dir, seed):
    h = cfg.horizon
    yield "clean outputs", None, oracle.check_lti_cmz(cfg, report, out_dir, _rng(seed))
    r = copy.deepcopy(report)
    r["supports"]["model"][h][0] -= MARGIN
    yield "reference support shrunk", "support", oracle.check_lti_cmz(cfg, r, out_dir, _rng(seed))
    r = copy.deepcopy(report)
    r["supports"][CMZ_COMBO][h][0] = report["supports"]["model"][h][0] - MARGIN
    yield "constrained support below the reference", "support", \
        oracle.check_lti_cmz(cfg, r, out_dir, _rng(seed))
    moved = _move_vertex(out_dir, "model", cfg.projection_dims[0], h, MARGIN)
    yield "reference polygon vertex moved inward", "polygon", \
        oracle.check_lti_cmz(cfg, report, moved, _rng(seed))
    yield "true [A B] scaled", "support", \
        oracle.check_lti_cmz(cfg, report, out_dir, _rng(seed), _perturbed(cfg))


def lti_volume_faults(cfg, report, out_dir, seed):
    yield "clean outputs", None, oracle.check_lti_volume(cfg, report, out_dir, _rng(seed))
    moved = _move_vertex(out_dir, "mz_pinv_designed", cfg.projection_dims[0], 3, MARGIN)
    yield "plain-set polygon vertex moved inward", "area", \
        oracle.check_lti_volume(cfg, report, moved, _rng(seed))
    moved = _scale_set(out_dir, "model", 3, 1.0 - MARGIN)
    yield "reference set generators shrunk", "outside the set", \
        oracle.check_lti_volume(cfg, report, moved, _rng(seed))
    r = copy.deepcopy(report)
    r["volume_table"][0]["volume"] *= 1.0 + 1e-6
    yield "reference volume nudged", "volume", oracle.check_lti_volume(cfg, r, out_dir, _rng(seed))
    yield "true [A B] scaled", "outside the set", \
        oracle.check_lti_volume(cfg, report, out_dir, _rng(seed), _perturbed(cfg))


def pwa_faults(cfg, report, out_dir, seed):
    yield "clean outputs", None, oracle.check_pwa(cfg, report, _rng(seed))
    for combo, step, side in (("model", 1, "high"), ("model", 2, "low")):
        r = copy.deepcopy(report)
        r["interval_hulls"][combo][step][side][0] += MARGIN if side == "low" else -MARGIN
        yield f"{combo} hull {side} bound at step {step} tightened", "hull", \
            oracle.check_pwa(cfg, r, _rng(seed))
    r = copy.deepcopy(report)
    r["fragment_counts"]["model"][2] = 5
    yield "fragment count above 2^k", "fragment", oracle.check_pwa(cfg, r, _rng(seed))
    yield "true [A B] scaled", "hull", oracle.check_pwa(cfg, report, _rng(seed), _perturbed(cfg))


def model_set_faults(cfg, outputs, out_dir, seed):
    yield "clean outputs", None, oracle.check_model_sets(cfg, outputs)
    yield "true [A B] scaled", "rebuilds", oracle.check_model_sets(cfg, outputs, _perturbed(cfg, 1 + 1e-6))
    o = copy.deepcopy(outputs)
    h, bundle = o.per_mode["designed"][2]["pinv"]
    h = h.copy()
    h[0, 0] += 1e-7
    o.per_mode["designed"][2]["pinv"] = (h, bundle)
    yield "right inverse entry nudged", "Phi H", oracle.check_model_sets(cfg, o)
    o = copy.deepcopy(outputs)
    trajs, xi_w, built = o.per_mode["random"]
    xi_w = np.array(xi_w)
    xi_w[0, 0] = -xi_w[0, 0]
    o.per_mode["random"] = (trajs, xi_w, built)
    yield "one realized noise factor flipped", "rebuilds", oracle.check_model_sets(cfg, o)
    # the row-norm check, on a regressor where the ADMM converges
    trajs = outputs.per_mode["designed"][0]
    phi = np.vstack([np.hstack([x[:, :-1] for x, _ in trajs]), np.hstack([u for _, u in trajs])])
    res = dr.row_norm_right_inverse(phi)
    yield "row-norm inverse, clean", None, oracle.check_row_norm(phi, res)
    res.h = res.h * (1.0 + 1e-6)
    yield "row-norm inverse scaled", "Phi H", oracle.check_row_norm(phi, res)


FAULTS = {"lti-cmz": lti_cmz_faults, "lti-volume": lti_volume_faults,
          "pwa-split": pwa_faults, "model-sets": model_set_faults}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    out_root = ROOT / ".bench_out" / "faults"
    shutil.rmtree(out_root, ignore_errors=True)
    unnoticed = 0
    try:
        for name, faults in FAULTS.items():
            workload = WORKLOADS[name]
            _, cfg, system = workload.items(args.seed)[-1]
            out_dir = str(out_root / name)
            res = workload.run(cfg, system, out_dir)
            for label, expect, fails in faults(cfg, res.outputs, out_dir, args.seed):
                if expect is None:
                    ok = not fails
                else:
                    ok = any(expect in m for m in fails)
                unnoticed += not ok
                shown = fails[0] if fails else "all checks pass"
                print(f"{'ok  ' if ok else 'MISS'} {name:10s} {label:42s} -> {shown}")
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    return 1 if unnoticed else 0


if __name__ == "__main__":
    sys.exit(main())
