"""The four benchmark workloads.

Each workload turns the run's seed into a list of items (one
ExperimentConfig each, built from a bundled config with
``dataclasses.replace``) and runs one operation per item and round.  The
library is driven only through its public entry points.  An operation
returns its wall time (the timed call only), a digest of everything it
produced (so repeats can be compared byte for byte), its looseness value,
and what the oracle needs to check it.
"""

import hashlib
import json
import os
import time
from dataclasses import dataclass, replace

import numpy as np

import datareach as dr
import oracle

SEED_MOD = 2**31
CMZ_COMBO = "cmz_pinv_designed"  # the variant whose looseness is reported


@dataclass
class OpResult:
    seconds: float
    digest: str
    looseness: float
    outputs: object          # what the oracle checks: report, paths, factors
    output_files: int = 0
    output_bytes: int = 0


def _tree_stats(out_dir):
    """(digest over every file but metadata.json, file count, bytes)."""
    h = hashlib.sha256()
    files, size = 0, 0
    for root, dirs, names in os.walk(out_dir):
        dirs.sort()
        for name in sorted(names):
            path = os.path.join(root, name)
            files += 1
            size += os.path.getsize(path)
            if name == "metadata.json" and root == str(out_dir):
                continue  # wall-clock fields
            h.update(os.path.relpath(path, out_dir).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest(), files, size


def _run_study(cfg, out_dir):
    runner = dr.run_lti_experiment if cfg.kind == "lti" else dr.run_pwa_experiment
    t0 = time.perf_counter()
    report = runner(cfg, out_dir=out_dir)
    seconds = time.perf_counter() - t0
    if report.get("status") != "ok":
        raise dr.HarnessError(f"study status {report.get('status')!r}")
    return seconds, report


class Workload:
    """A workload's items are (op, cfg, system) triples: op.run times one
    operation, op.check runs the oracle on its outputs."""

    name = ""
    seeds_per_round = 1

    def config(self, cfg_seed):
        raise NotImplementedError

    def items(self, seed):
        """The run's items, in round order; configs and true systems are
        built here, so both count as set-up."""
        cfgs = [self.config((seed * self.seeds_per_round + i) % SEED_MOD)
                for i in range(self.seeds_per_round)]
        return [(self, cfg, cfg.true_system()) for cfg in cfgs]

    def run(self, cfg, system, out_dir):
        raise NotImplementedError

    def check(self, cfg, outputs, out_dir, rng):
        raise NotImplementedError


class LtiCmz(Workload):
    """Designed inputs + pseudoinverse + constrained model set, plus the
    exact-model reference: the large support and polygon LPs."""

    name = "lti-cmz"
    seeds_per_round = 4

    def config(self, cfg_seed):
        return replace(dr.bundled_config("lti_5d"), input_modes=("designed",),
                       right_inverses=("pinv",), model_sets=("cmz",), horizon=1,
                       volume_step=None, compute_volumes=False, n_directions=32,
                       projection_dims=((1, 2),), rng_seed=cfg_seed)

    def run(self, cfg, system, out_dir):
        seconds, report = _run_study(cfg, out_dir)
        digest, files, size = _tree_stats(out_dir)
        # excess over the exact support, computed apart from the library so
        # a looser reference cannot make the constrained set look tighter
        a, b, _ = oracle.true_dynamics(cfg)[0]
        c, g = oracle.linear_reach(a, b, cfg, cfg.horizon)
        dirs = np.asarray(report["support_directions"])
        exact = dirs @ c + np.abs(dirs @ g).sum(axis=1)
        excess = np.asarray(report["supports"][CMZ_COMBO][-1]) - exact
        return OpResult(seconds, digest, float(excess.mean()), report, files, size)

    def check(self, cfg, outputs, out_dir, rng):
        return oracle.check_lti_cmz(cfg, outputs, out_dir, rng)


class PwaSplit(Workload):
    """Both input modes plus the reference, supports off, no output: guard
    splitting, emptiness LPs and interval-hull LPs."""

    name = "pwa-split"

    def config(self, cfg_seed):
        return replace(dr.bundled_config("pwa_2mode"), horizon=4, compute_supports=False,
                       pwa_variants=(("random", "pinv"), ("designed", "pinv")),
                       rng_seed=cfg_seed)

    def run(self, cfg, system, out_dir):
        seconds, report = _run_study(cfg, None)
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        looseness = sum(report["interval_hulls"][CMZ_COMBO][-1]["width"])
        return OpResult(seconds, digest, float(looseness), report)

    def check(self, cfg, outputs, out_dir, rng):
        return oracle.check_pwa(cfg, outputs, rng)


class LtiVolume(Workload):
    """`datareach volume-table` with the pseudoinverse only: plain model
    sets, supports off, exact volumes at step 4 of sets reduced to order 8
    (so the exact reference set is not reduced); no support LP."""

    name = "lti-volume"
    seeds_per_round = 3

    def config(self, cfg_seed):
        return replace(dr.bundled_config("lti_5d"), model_sets=("mz",), compute_supports=False,
                       right_inverses=("pinv",), max_order=8, volume_step=4,
                       rng_seed=cfg_seed)

    def run(self, cfg, system, out_dir):
        seconds, report = _run_study(cfg, out_dir)
        digest, files, size = _tree_stats(out_dir)
        ratio = {row["method"]: row["ratio"] for row in report["volume_table"]}
        n_x = len(report["config"]["x0"]["c"])
        looseness = float(ratio["mz_pinv_designed"] ** (1.0 / n_x))
        return OpResult(seconds, digest, looseness, report, files, size)

    def check(self, cfg, outputs, out_dir, rng):
        return oracle.check_lti_volume(cfg, outputs, out_dir, rng)


@dataclass
class ModelSetOutputs:
    per_mode: dict           # mode -> (trajectories, xi_w, {"pinv": (h, bundle)})


class ModelSets(Workload):
    """Data collection in both input modes, the pseudoinverse and the model
    sets, per config: input design and kernel constraints."""

    name = "model-sets"
    seeds_per_round = 16

    def config(self, cfg_seed):
        return replace(dr.bundled_config("lti_5d"), rng_seed=cfg_seed)

    def items(self, seed):
        cfg = self.config(FailingAdmm.rng_seed)
        return [(FailingAdmm(), cfg, cfg.true_system())] + super().items(seed)

    def run(self, cfg, system, out_dir):
        t0 = time.perf_counter()
        per_mode = {}
        for mode in ("random", "designed"):
            data, log = dr.collect_data(cfg, system, mode)
            res = dr.pinv_right_inverse(data.phi)
            bundle = dr.build_model_sets(data, cfg.w.G, res.h)
            per_mode[mode] = (log.trajectories, log.xi_w, {"pinv": (res.h, bundle)})
        seconds = time.perf_counter() - t0
        h = hashlib.sha256()
        for mode in ("random", "designed"):
            hm, bundle = per_mode[mode][2]["pinv"]
            for arr in (hm, bundle.cmz.C, bundle.cmz.generators, bundle.cmz.A, bundle.cmz.b):
                h.update(np.ascontiguousarray(arr).tobytes())
        gens = per_mode["designed"][2]["pinv"][1].mz.generators
        looseness = float(np.sqrt((gens * gens).sum(axis=(1, 2))).sum())
        return OpResult(seconds, h.hexdigest(), looseness, ModelSetOutputs(per_mode))

    def check(self, cfg, outputs, out_dir, rng):
        return oracle.check_model_sets(cfg, outputs)


class FailingAdmm:
    """The row-norm right inverse of one fixed designed-mode regressor, on
    which the ADMM stops at max_iter without converging.  It runs once per
    model-sets round whatever the seed, so it fails every time and the
    failed share of a run is exactly 1 / (1 + 16)."""

    rng_seed = 1746

    def run(self, cfg, system, out_dir):
        data, _ = dr.collect_data(cfg, system, "designed")
        t0 = time.perf_counter()
        res = dr.row_norm_right_inverse(data.phi)
        seconds = time.perf_counter() - t0
        return OpResult(seconds, hashlib.sha256(res.h.tobytes()).hexdigest(), None,
                        (data.phi, res))

    def check(self, cfg, outputs, out_dir, rng):
        return oracle.check_row_norm(*outputs)


WORKLOADS = {w.name: w for w in (LtiCmz(), PwaSplit(), LtiVolume(), ModelSets())}
