"""End-to-end acceptance gate for the bundled experiments.

One test per shipped guarantee, each printing a single PASS/FAIL line to
the terminal (bypassing capture) with the measured quantities, so a full
run reads as a scoreboard.  Tolerances and seed counts are part of each
guarantee and are asserted, not just reported.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from datareach.harness import bundled_config, collect_data, run_lti_experiment, \
    run_pwa_experiment, true_noise_coefficients
from datareach.inputdesign import delta_A, info_init, info_update
from datareach.modelset import build_model_sets
from datareach.rightinv import pinv_right_inverse, row_norm_right_inverse, row_norm_sum
from datareach.selfcheck import run_selfcheck

# minutes, not seconds: `pytest -m "not slow"` leaves these out of a quick loop
pytestmark = pytest.mark.slow


@pytest.fixture()
def verdict(capfd):
    def _verdict(ok, label, detail):
        with capfd.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}", flush=True)
        assert ok, f"{label}: {detail}"
    return _verdict


def test_soundness_all_variants_contain_1000_trajectories(verdict):
    t0 = time.perf_counter()
    cfg = replace(bundled_config("lti_5d"), n_check=1000,
                  compute_supports=False, compute_volumes=False)
    report = run_lti_experiment(cfg)
    elapsed = time.perf_counter() - t0
    checks = report["self_check"]
    worst = max(c["max_point_error"] for c in checks.values())
    ok = (report["status"] == "ok"
          and len(checks) == 9
          and all(c["trajectories"] == 1000 and c["ok"] for c in checks.values())
          and worst <= 1e-6
          and elapsed < 120.0)
    verdict(ok, "soundness",
            f"9 variants x 1000 trajectories x 7 steps, worst point error "
            f"{worst:.2e} (tol 1e-6), {elapsed:.1f}s (budget 120s)")


def test_row_norm_inverse_bounds_hold_on_random_and_experiment_regressors(verdict):
    rng = np.random.default_rng(20240811)
    phis = []
    for _ in range(100):
        d = int(rng.integers(2, 9))
        t = int(rng.integers(2 * d, 81))
        phis.append(rng.normal(size=(d, t)))
    cfg = bundled_config("lti_5d")
    system = cfg.true_system()
    for mode in cfg.input_modes:
        data, _ = collect_data(cfg, system, mode)
        phis.append(data.phi)
    worst_low, worst_high, worst_sum = -np.inf, -np.inf, -np.inf
    for phi in phis:
        assert np.linalg.matrix_rank(phi) == phi.shape[0]
        res = row_norm_right_inverse(phi)
        pinv = pinv_right_inverse(phi)
        pf = pinv.frobenius_norm
        gamma = res.row_norm_sum
        worst_low = max(worst_low, pf - gamma)
        worst_high = max(worst_high, gamma - np.sqrt(phi.shape[1]) * pf)
        worst_sum = max(worst_sum, res.row_norm_sum - row_norm_sum(pinv.h))
    ok = worst_low <= 1e-6 and worst_high <= 1e-6 and worst_sum <= 1e-7
    verdict(ok, "right-inverse bounds",
            f"102 regressors, worst slack lower {worst_low:.2e} / upper "
            f"{worst_high:.2e} (tol 1e-6), row-sum gap {worst_sum:.2e} (tol 1e-7)")


def test_model_size_proxy_chain_over_20_seeds(verdict):
    # a horizon-0 study stops after the fit; its report holds the chain
    cfg0 = replace(bundled_config("lti_5d"), horizon=0, volume_step=None,
                   compute_supports=False, compute_volumes=False)
    first = second = hyp_holds = implied = 0
    for seed in range(20):
        report = run_lti_experiment(replace(cfg0, rng_seed=seed))
        proxy, data = report["proxies"], report["data"]
        ok1 = proxy["row_norm_designed"] - proxy["pinv_designed"] <= 1e-7
        ok2 = proxy["pinv_designed"] - proxy["pinv_random"] <= 1e-7
        hyp = data["designed"]["trace_inverse"] <= data["random"]["trace_inverse"]
        first += ok1
        second += ok2
        if hyp:
            hyp_holds += 1
            implied += ok2
    ok = first == 20 and second >= 16 and implied == hyp_holds
    verdict(ok, "size proxy chain",
            f"row-norm<=pinv on {first}/20 seeds (need 20), designed<=random on "
            f"{second}/20 (need 16), trace hypothesis implied the chain on "
            f"{implied}/{hyp_holds} seeds it held")


def test_volume_ratios_match_reference_bands_on_10_seed_median(verdict):
    t0 = time.perf_counter()
    cfg0 = bundled_config("lti_5d")
    bands = {"mz_row_norm_designed": 17.1, "mz_pinv_designed": 42.1,
             "mz_pinv_random": 64.0}
    ratios = {k: [] for k in bands}
    for seed in range(10):
        cfg = replace(cfg0, rng_seed=seed, model_sets=("mz",), compute_supports=False)
        table = {r["method"]: r["ratio"] for r in run_lti_experiment(cfg)["volume_table"]}
        for k in ratios:
            ratios[k].append(table[k])
    elapsed = time.perf_counter() - t0
    med = {k: float(np.median(v)) for k, v in ratios.items()}
    in_band = all(0.5 * c <= med[k] <= 1.5 * c for k, c in bands.items())
    ordered = 1.0 < med["mz_row_norm_designed"] < med["mz_pinv_designed"] < med["mz_pinv_random"]
    ok = in_band and ordered and elapsed < 600.0
    verdict(ok, "volume table",
            f"median ratios designed-row-norm {med['mz_row_norm_designed']:.1f} "
            f"(band 8.6-25.7), designed-pinv {med['mz_pinv_designed']:.1f} "
            f"(band 21.1-63.2), random-pinv {med['mz_pinv_random']:.1f} (band 32-96), "
            f"ordering {'held' if ordered else 'broken'}, {elapsed:.0f}s (budget 600s)")


def test_constrained_model_tightens_plain_model_in_every_direction(verdict):
    report = run_lti_experiment(bundled_config("lti_5d"))
    pairs = report["orderings"]["cmz_le_mz"]
    worst = max(v["max_gap"] for v in pairs.values())
    n_dirs = len(report["support_directions"])
    ok = (report["status"] == "ok" and len(pairs) == 4 and n_dirs == 32
          and worst <= 1e-6 and all(v["ok"] for v in pairs.values()))
    verdict(ok, "constrained tightening",
            f"4 inverse/input pairs x {n_dirs} directions x 7 steps, worst "
            f"support excess {worst:.2e} (tol 1e-6)")


def test_rank_one_update_tracks_direct_inverse_and_trace_identity(verdict):
    rng = np.random.default_rng(7)
    state = info_init(8)
    worst_dec = 0.0
    for _ in range(200):
        s = rng.normal(size=8)
        predicted = delta_A(state, s[:5], s[5:])
        new = info_update(state, s)
        worst_dec = max(worst_dec, abs(state.trace_inverse - new.trace_inverse - predicted))
        state = new
    drift = float(np.linalg.norm(state.s_inv - np.linalg.inv(state.s_matrix), "fro"))
    ok = drift <= 1e-8 and worst_dec <= 1e-10
    verdict(ok, "rank-one updates",
            f"200 updates in dim 8, final inverse drift {drift:.2e} (tol 1e-8), "
            f"worst trace-decrease error {worst_dec:.2e} (tol 1e-10)")


def test_realized_noise_factors_satisfy_model_constraints_on_20_seeds(verdict):
    cfg0 = bundled_config("lti_5d")
    worst_inf, worst_res, worst_rec = -np.inf, -np.inf, -np.inf
    for seed in range(20):
        cfg = replace(cfg0, rng_seed=seed)
        system = cfg.true_system()
        truth = np.hstack(system.true_matrices()[0])
        for mode in cfg.input_modes:
            data, log = collect_data(cfg, system, mode)
            beta = true_noise_coefficients(log)
            for solver in (pinv_right_inverse, row_norm_right_inverse):
                cmz = build_model_sets(data, cfg.w.G, solver(data.phi).h).cmz
                worst_inf = max(worst_inf, float(np.max(np.abs(beta))))
                worst_res = max(worst_res, float(np.max(np.abs(cmz.A @ beta - cmz.b))))
                model = cmz.C + np.einsum("l,lnm->nm", beta, cmz.generators)
                worst_rec = max(worst_rec, float(np.max(np.abs(model - truth))))
    ok = worst_inf <= 1.0 + 1e-9 and worst_res <= 1e-9 and worst_rec <= 1e-7
    verdict(ok, "noise-factor consistency",
            f"20 seeds x 2 modes x 2 inverses, max |beta*| {worst_inf:.9f} "
            f"(tol 1+1e-9), constraint residual {worst_res:.2e} (tol 1e-9), "
            f"reconstruction error {worst_rec:.2e} (tol 1e-7)")


def test_pwa_reference_containment_and_designed_widths(verdict):
    cfg0 = bundled_config("pwa_2mode")
    full = run_pwa_experiment(cfg0)
    gaps = full["orderings"]["model_within"]
    worst = max(v["max_gap"] for v in gaps.values())
    contained = all(v["ok"] for v in gaps.values()) and worst <= 1e-6
    frag_ok = all(full["fragment_bound_ok"].values())
    widths_d, widths_r = [], []
    for seed in range(10):
        cfg = replace(cfg0, rng_seed=seed, compute_supports=False)
        rep = run_pwa_experiment(cfg)
        frag_ok &= all(rep["fragment_bound_ok"].values())
        hulls = rep["interval_hulls"]
        widths_d.append(hulls["cmz_row_norm_designed"][-1]["width"])
        widths_r.append(hulls["cmz_pinv_random"][-1]["width"])
    med_d = np.median(np.array(widths_d), axis=0)
    med_r = np.median(np.array(widths_r), axis=0)
    narrower = bool(np.all(med_d <= med_r))
    ok = full["status"] == "ok" and contained and frag_ok and narrower
    verdict(ok, "piecewise-affine study",
            f"reference within both variants over 32 directions x 11 steps "
            f"(worst excess {worst:.2e}), fragment bound 2^k held, median final "
            f"widths designed {np.round(med_d, 4).tolist()} <= random "
            f"{np.round(med_r, 4).tolist()}: {narrower}")


def test_set_operation_property_suite_passes_under_a_minute(verdict):
    report = run_selfcheck(0)
    names = ", ".join(c["name"] for c in report["checks"] if not c["ok"]) or "none"
    ok = report["ok"] and report["runtime_s"] < 60.0
    verdict(ok, "set-operation properties",
            f"{len(report['checks'])} randomized suites, failures: {names}, "
            f"{report['runtime_s']:.1f}s (budget 60s)")
