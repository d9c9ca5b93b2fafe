import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from datareach import harness, reach
from datareach.harness import (
    ExperimentConfig,
    HarnessError,
    bundled_config,
    collect_data,
    discretize,
    load_config,
    proxy_chain,
    run_lti_experiment,
    run_pwa_experiment,
    simulate_batch,
    true_noise_coefficients,
)
from datareach.modelset import build_model_sets, generator_norm_proxy
from datareach.reach import partition_data_by_mode
from datareach.rightinv import pinv_right_inverse, row_norm_right_inverse
from datareach.sets import contains_point, halfspace_intersection_with_plan, set_from_dict


def tiny_lti_config(**over):
    """A 2-state, 1-input experiment small enough for per-test runs."""
    base = dict(
        kind="lti",
        name="tiny",
        system={"type": "discrete",
                "a": [[0.6, 0.2], [-0.1, 0.5]],
                "b": [[1.0], [0.5]]},
        x0={"center": [1.0, -1.0], "generators": [[0.1, 0.0], [0.0, 0.1]]},
        w={"center": [0.0, 0.0], "generators": [[0.004, 0.0], [0.0, 0.004]]},
        u_data={"center": [2.0], "generators": [[3.0]]},
        u_prop={"center": [0.5], "generators": [[0.2]]},
        k_trajectories=3,
        t_steps=4,
        horizon=2,
        n_check=25,
        n_lp_spot=2,
        projection_dims=((1, 2),),
    )
    base.update(over)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# discretization


def test_discretize_matches_integral_oracle():
    # frozen from quadrature of expm(A s) B over [0, dt]
    a_d, b_d = discretize([[-1.0, -4.0], [4.0, -1.0]], [[1.0], [0.5]], 0.05)
    expect_a = np.array([[0.9322681668123085, -0.1889801131981281],
                         [0.1889801131981281, 0.9322681668123085]])
    expect_b = np.array([[0.04603992212964028], [0.02904549191427881]])
    assert np.allclose(a_d, expect_a, atol=1e-13)
    assert np.allclose(b_d, expect_b, atol=1e-13)


def test_discretize_singular_a():
    # double integrator: the input integral exists although A is singular
    a_d, b_d = discretize([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], 0.1)
    assert np.allclose(a_d, [[1.0, 0.1], [0.0, 1.0]], atol=1e-15)
    assert np.allclose(b_d, [[0.005], [0.1]], atol=1e-15)


def test_discretize_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        discretize(np.eye(3), np.ones((2, 1)), 0.1)


# ---------------------------------------------------------------------------
# configuration


def test_config_roundtrip_through_json():
    cfg = bundled_config("lti_5d")
    copy = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert copy.to_dict() == cfg.to_dict()


def test_config_rejects_unknown_keys():
    with pytest.raises(HarnessError, match="unknown config keys"):
        ExperimentConfig.from_dict({"schema_version": 1, "kind": "lti", "bogus": 1})


def test_config_rejects_bad_kind_and_sampling():
    with pytest.raises(HarnessError, match="kind"):
        tiny_lti_config(kind="nonlinear")
    with pytest.raises(HarnessError, match="x0_sampling"):
        tiny_lti_config(x0_sampling="corners")
    # volume_step used to be coerced with int(): 2.5 ran step 2, True step 1
    for bad in (7, -1, 2.5, True, "3"):
        with pytest.raises(HarnessError, match="volume_step"):
            tiny_lti_config(volume_step=bad)
    # each count below used to pass the config and fail deep inside a study
    for name, bad in (("k_trajectories", 0), ("t_steps", 0), ("n_check", 0),
                      ("n_directions", 0), ("fragment_cap", 0), ("n_lp_spot", -1),
                      ("horizon", -1), ("t_steps", 2.0), ("n_check", True)):
        with pytest.raises(HarnessError, match=name):
            tiny_lti_config(**{name: bad})
    cfg = tiny_lti_config(n_lp_spot=0, horizon=0, fragment_cap=1)
    assert (cfg.n_lp_spot, cfg.horizon, cfg.fragment_cap) == (0, 0, 1)


def test_config_rejects_unknown_variant_names_and_bad_max_order():
    # a misspelt right inverse used to run the row-norm ADMM under its name,
    # a misspelt model set propagated the cmz set, and a max_order below 1
    # reduced to order 1 or, not finite, failed deep inside a study
    for name, bad in (("input_modes", ("random", "desgined")),
                      ("right_inverses", ("pinvv",)),
                      ("model_sets", ("mzz",)),
                      ("pwa_variants", (("random", "pinvv"),)),
                      ("pwa_variants", (("openloop", "pinv"),))):
        with pytest.raises(HarnessError, match=name):
            tiny_lti_config(**{name: bad})
    for bad in (float("nan"), float("inf"), 0, -3, 0.5, True, "10"):
        with pytest.raises(HarnessError, match="max_order"):
            tiny_lti_config(max_order=bad)
    assert tiny_lti_config(max_order=1).max_order == 1


def test_config_rejects_bad_design_block():
    for design, field in (({"n_candidates": 0}, "n_candidates"),
                          ({"refine_iters": -3}, "refine_iters"),
                          ({"refine_step": float("nan")}, "refine_step"),
                          ({"refine_steps": 0.5}, "refine_steps")):
        with pytest.raises(HarnessError, match=field):
            tiny_lti_config(design=design)
    cfg = tiny_lti_config(design={"n_candidates": 7, "refine_step": 0.25})
    assert cfg.to_dict()["design"] == {"n_candidates": 7, "refine_iters": 50,
                                       "refine_step": 0.25, "rng_seed": 0}


def test_config_rejects_dimension_mismatch():
    cfg = tiny_lti_config(x0={"center": [0.0, 0.0, 0.0], "generators": np.eye(3).tolist()})
    with pytest.raises(HarnessError, match="x0"):
        cfg.true_system()


def test_linear_true_system_is_one_unguarded_mode():
    system = tiny_lti_config().true_system()
    assert system.pwa.n_modes == 1 and system.pwa.modes[0].region == []
    assert (system.n_x, system.n_u) == (2, 1)
    a, b = system.pwa.true_matrices()[0]
    assert np.array_equal(a, [[0.6, 0.2], [-0.1, 0.5]]) and np.array_equal(b, [[1.0], [0.5]])


def test_true_system_rejects_bad_discrete_shapes():
    cfg = tiny_lti_config(system={"type": "discrete", "a": [[0.6, 0.2], [-0.1, 0.5]],
                                  "b": [[1.0, 0.0, 2.0]]})
    with pytest.raises(HarnessError, match="mode 0"):
        cfg.true_system()


def test_true_system_rejects_bad_pwa_shapes():
    base = bundled_config("pwa_2mode")
    bad_b = json.loads(json.dumps(base.system))
    bad_b["modes"][1]["b"] = [[1.0, 0.0], [0.0, 1.0]]
    bad_a = json.loads(json.dumps(base.system))
    bad_a["modes"][1]["a"] = [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]]
    bad_normal = json.loads(json.dumps(base.system))
    bad_normal["modes"][0]["region"][0]["normal"] = [-1.0, 0.0, 0.0]
    no_modes = dict(base.system, modes=[])
    for system, match in ((bad_b, "mode 1"), (bad_a, "mode 1"), (bad_normal, "normal"),
                          (no_modes, "no modes")):
        with pytest.raises(HarnessError, match=match):
            replace(base, system=system).true_system()


def test_true_system_rejects_bad_projection_dims():
    # the 1-based [0, 1] used to pass and write the projection of states 2
    # and 1... as <combo>_0-1.csv
    # and a non-int index used to be coerced with int(): 1.5 and True read 1
    for dims in (((0, 1),), ((1, 1),), ((1, 3),), ((1, 2, 2),), ((2,),), ((1.5, 2),),
                 ((True, 2),), (("1", 2),)):
        with pytest.raises(HarnessError, match="projection_dims"):
            tiny_lti_config(projection_dims=dims).true_system()
        with pytest.raises(HarnessError, match="projection_dims"):
            run_lti_experiment(tiny_lti_config(projection_dims=dims))
    assert tiny_lti_config(projection_dims=((2, 1),)).true_system().n_x == 2


def test_bundled_configs_load():
    assert bundled_config("lti_5d").kind == "lti"
    assert bundled_config("pwa_2mode").kind == "pwa"
    with pytest.raises(HarnessError, match="no bundled config"):
        bundled_config("missing")


def test_load_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(tiny_lti_config().to_dict()))
    assert load_config(path).name == "tiny"


# ---------------------------------------------------------------------------
# simulation and collection


def test_simulate_batch_replays_from_recorded_factors():
    cfg = tiny_lti_config()
    system = cfg.true_system()
    rng = np.random.default_rng(5)
    states, xi0, xi_u, xi_w = simulate_batch(system, cfg.x0, cfg.u_prop, 3, 8, rng)
    assert states.shape == (8, 4, 2)
    for i in range(8):
        x = cfg.x0.c + cfg.x0.G @ xi0[i]
        assert np.allclose(states[i, 0], x)
        for k in range(3):
            u = cfg.u_prop.c + cfg.u_prop.G @ xi_u[k, i]
            w = cfg.w.c + cfg.w.G @ xi_w[k, i]
            x = system.step(x, u, w)
            assert np.allclose(states[i, k + 1], x, atol=1e-12)


def test_collect_data_shapes_and_rank():
    cfg = bundled_config("lti_5d")
    system = cfg.true_system()
    data, log = collect_data(cfg, system, "random")
    assert data.T == cfg.k_trajectories * cfg.t_steps == 60
    assert data.phi.shape == (8, 60)
    assert np.linalg.matrix_rank(data.phi) == 8
    assert log.xi_w.shape == (5, 60)
    assert len(log.trajectories) == cfg.k_trajectories


def test_self_check_counts_the_spot_checks_it_runs(monkeypatch):
    # a linear study has one fragment per step, so each spot check is one
    # membership LP; with no step after the initial set none runs
    calls = []

    def counting(z, x, tol=1e-9):
        calls.append(x)
        return contains_point(z, x, tol=tol)

    monkeypatch.setattr(harness, "contains_point", counting)
    for horizon, expect in ((0, 0), (2, 2)):
        calls.clear()
        cfg = tiny_lti_config(horizon=horizon, input_modes=("random",), right_inverses=("pinv",),
                              model_sets=("mz",), compute_supports=False, compute_volumes=False)
        checks = run_lti_experiment(cfg)["self_check"]
        assert [c["lp_spot_checks"] for c in checks.values()] == [expect] * 2
        assert len(calls) == 2 * expect


def test_collect_data_rejects_unknown_mode():
    cfg = tiny_lti_config()
    with pytest.raises(HarnessError, match="input mode"):
        collect_data(cfg, cfg.true_system(), "openloop")


def test_both_input_modes_share_trajectory_randomness():
    # same initial states and noise factors, different inputs: the modes
    # are compared on one realization of everything they do not control
    cfg = tiny_lti_config(k_trajectories=4)
    system = cfg.true_system()
    _, log_r = collect_data(cfg, system, "random")
    _, log_d = collect_data(cfg, system, "designed")
    assert np.array_equal(log_r.xi0, log_d.xi0)
    assert np.array_equal(log_r.xi_w, log_d.xi_w)
    inputs_r = np.hstack([u for _, u in log_r.trajectories])
    inputs_d = np.hstack([u for _, u in log_d.trajectories])
    assert not np.allclose(inputs_r, inputs_d)


def test_collect_data_seed_changes_draws():
    cfg = tiny_lti_config()
    system = cfg.true_system()
    _, log_a = collect_data(cfg, system, "random")
    _, log_b = collect_data(replace(cfg, rng_seed=99), system, "random")
    assert not np.array_equal(log_a.xi_w, log_b.xi_w)


def test_vertex_sampling_starts_at_corners():
    cfg = tiny_lti_config(x0_sampling="vertex", k_trajectories=6)
    system = cfg.true_system()
    _, log = collect_data(cfg, system, "random")
    assert np.all(np.abs(log.xi0) == 1.0)
    starts = np.stack([s[:, 0] for s, _ in log.trajectories])
    assert np.allclose(np.abs(starts - cfg.x0.c), 0.1)
    # the default stays strictly interior with probability one
    _, log_u = collect_data(tiny_lti_config(k_trajectories=6), system, "random")
    assert np.all(np.abs(log_u.xi0) < 1.0)
    # corners of the factor box need not satisfy constraint rows; zero rows
    # are no constraint
    x0 = {"center": [1.0, -1.0], "generators": [[0.1, 0.0], [0.0, 0.1]]}
    for a, b in (([[1.0, 0.0]], [0.0]), ([], [])):
        cfg = tiny_lti_config(x0_sampling="vertex", x0_data={**x0, "a": a, "b": b})
        if a:
            with pytest.raises(HarnessError, match="constraint rows"):
                collect_data(cfg, system, "random")
        else:
            assert np.all(np.abs(collect_data(cfg, system, "random")[1].xi0) == 1.0)


def test_designed_collection_reduces_trace_on_most_seeds():
    cfg0 = bundled_config("lti_5d")
    system = cfg0.true_system()
    wins = 0
    for seed in range(20):
        cfg = replace(cfg0, rng_seed=seed)
        _, log_r = collect_data(cfg, system, "random")
        _, log_d = collect_data(cfg, system, "designed")
        wins += log_d.trace_inverse < log_r.trace_inverse
    assert wins >= 16


def test_true_noise_coefficients_are_t_major():
    cfg = tiny_lti_config()
    _, log = collect_data(cfg, cfg.true_system(), "random")
    beta = true_noise_coefficients(log)
    p_w, t = log.xi_w.shape
    assert beta.shape == (p_w * t,)
    for col in (0, 3, t - 1):
        assert np.array_equal(beta[col * p_w : (col + 1) * p_w], log.xi_w[:, col])
    sub = true_noise_coefficients(log, columns=[2, 5])
    assert np.array_equal(sub, np.concatenate([log.xi_w[:, 2], log.xi_w[:, 5]]))


def test_linear_partition_is_the_whole_data_set():
    # the one-mode split the studies fit on is collect_data's data set, bit
    # for bit, with every column in collection order
    cfg = tiny_lti_config()
    system = cfg.true_system()
    data, log = collect_data(cfg, system, "designed")
    parts, indices = partition_data_by_mode(data, system.pwa)
    assert len(parts) == 1
    for name in ("x_plus", "x_minus", "u_minus"):
        assert np.array_equal(getattr(parts[0], name), getattr(data, name))
    assert np.array_equal(indices[0], np.arange(data.T))
    assert np.array_equal(true_noise_coefficients(log, indices[0]), true_noise_coefficients(log))


def test_study_collects_each_input_mode_once(monkeypatch):
    calls = []
    original = harness.collect_data

    def counted(cfg, system, mode, *args, **kwargs):
        calls.append(mode)
        return original(cfg, system, mode, *args, **kwargs)

    monkeypatch.setattr(harness, "collect_data", counted)
    cfg = tiny_pwa_config(pwa_variants=(("random", "pinv"), ("random", "row_norm")))
    report = run_pwa_experiment(cfg)
    assert report["combos"] == ["cmz_pinv_random", "cmz_row_norm_random", "model"]
    assert calls == ["random"]


def test_proxy_chain_matches_the_study():
    cfg = tiny_lti_config(compute_supports=False, compute_volumes=False)
    out = proxy_chain(cfg)
    report = run_lti_experiment(cfg)
    for mode in ("random", "designed"):
        for rinv in ("pinv", "row_norm"):
            assert out[mode][f"proxy_{rinv}"] == report["proxies"][f"{rinv}_{mode}"]
        assert out[mode]["trace_inverse"] == report["data"][mode]["trace_inverse"]
    with pytest.raises(HarnessError, match="linear"):
        proxy_chain(bundled_config("pwa_2mode"))


def test_proxy_chain_reports_gaps():
    out = proxy_chain(tiny_lti_config(k_trajectories=5))
    assert set(out) >= {"random", "designed", "gap_row_norm_vs_pinv", "gap_designed_vs_random"}
    # the row-norm inverse never loses to the pseudoinverse on its own data
    assert out["gap_row_norm_vs_pinv"] <= 1e-7


# ---------------------------------------------------------------------------
# experiments and emission


def test_lti_report_and_emission_layout(tmp_path):
    cfg = tiny_lti_config()
    report = run_lti_experiment(cfg, out_dir=tmp_path)
    assert report["status"] == "ok"
    assert (tmp_path / "report.json").is_file()
    assert (tmp_path / "metadata.json").is_file()
    assert (tmp_path / "volume_table.csv").is_file()
    for combo in report["combos"]:
        steps = sorted((tmp_path / "sets" / combo).glob("step*.json"))
        assert len(steps) == cfg.horizon + 1
        assert (tmp_path / "polygons" / f"{combo}_1-2.csv").is_file()
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["volume_table"] == report["volume_table"]


def test_lti_reports_are_byte_identical(tmp_path):
    cfg = tiny_lti_config()
    run_lti_experiment(cfg, out_dir=tmp_path / "a")
    run_lti_experiment(cfg, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "report.json").read_bytes() == \
        (tmp_path / "b" / "report.json").read_bytes()
    step = Path("sets") / "cmz_pinv_random" / "step2.json"
    assert (tmp_path / "a" / step).read_bytes() == (tmp_path / "b" / step).read_bytes()


def tiny_pwa_config(**over):
    return replace(bundled_config("pwa_2mode"), horizon=2, n_check=20, k_trajectories=8,
                   compute_supports=False, **over)


def test_pwa_reports_are_byte_identical(tmp_path):
    cfg = tiny_pwa_config()
    run_pwa_experiment(cfg, out_dir=tmp_path / "a")
    run_pwa_experiment(cfg, out_dir=tmp_path / "b")
    for name in ("report.json", "hull_widths.csv", Path("sets") / "cmz_pinv_random" / "step2.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_pwa_proxies_are_kept_per_variant():
    # two variants of one input mode: each keeps the proxies of its own
    # model sets, under its right-inverse entries
    variants = (("random", "pinv"), ("random", "row_norm"))
    cfg = tiny_pwa_config(pwa_variants=variants)
    report = run_pwa_experiment(cfg)
    system = cfg.true_system()
    data, _ = collect_data(cfg, system, "random")
    parts, _ = partition_data_by_mode(data, system.pwa)
    assert report["data"]["random"]["per_mode"] == [
        {"mode": q, "transitions": part.T} for q, part in enumerate(parts)]
    for _, rinv in variants:
        inverse = pinv_right_inverse if rinv == "pinv" else row_norm_right_inverse
        for q, part in enumerate(parts):
            mz = build_model_sets(part, cfg.w.G, inverse(part.phi).h).mz
            entry = report["right_inverses"][f"{rinv}_random_mode{q}"]
            assert entry["proxy"] == generator_norm_proxy(mz)
    assert (report["right_inverses"]["pinv_random_mode0"]["proxy"]
            != report["right_inverses"]["row_norm_random_mode0"]["proxy"])


def test_study_propagates_each_combo_once(monkeypatch):
    # the self-check certifies the sets the study propagated; it does not
    # propagate them again
    calls = []
    original = reach.propagate_pwa

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (reach, harness):
        monkeypatch.setattr(module, "propagate_pwa", counted)
    report = run_lti_experiment(tiny_lti_config(compute_supports=False))
    assert len(calls) == len(report["combos"])
    calls.clear()
    report = run_pwa_experiment(tiny_pwa_config())
    assert len(calls) == len(report["combos"])


def test_runtime_seconds_covers_emission(tmp_path, monkeypatch):
    emit_polygons = harness._emit_polygons
    finished = []

    def slow_emit_polygons(*args, **kwargs):
        if not finished:
            time.sleep(0.2)
        emit_polygons(*args, **kwargs)
        finished.append(time.perf_counter())

    monkeypatch.setattr(harness, "_emit_polygons", slow_emit_polygons)
    start = time.perf_counter()
    run_lti_experiment(tiny_lti_config(compute_supports=False), out_dir=tmp_path)
    runtime = json.loads((tmp_path / "metadata.json").read_text())["runtime_seconds"]
    assert runtime >= 0.2
    # the clock stops after the last polygon file is written
    assert runtime >= finished[-1] - start - 0.01


def test_metadata_times_each_study_phase(tmp_path, monkeypatch):
    slow_volume = harness.volume

    def slow(*args, **kwargs):
        time.sleep(0.05)
        return slow_volume(*args, **kwargs)

    monkeypatch.setattr(harness, "volume", slow)
    report = run_lti_experiment(tiny_lti_config(), out_dir=tmp_path / "lti")
    run_pwa_experiment(tiny_pwa_config(), out_dir=tmp_path / "pwa")
    phases = {
        "lti": {"collect", "propagate", "supports", "self_check", "volumes", "emit"},
        "pwa": {"collect", "propagate", "hulls", "supports", "self_check", "emit"},
    }
    for kind, names in phases.items():
        meta = json.loads((tmp_path / kind / "metadata.json").read_text())
        seconds = meta["phase_seconds"]
        assert set(seconds) == names
        assert all(s >= 0.0 for s in seconds.values())
        assert sum(seconds.values()) <= meta["runtime_seconds"]
        assert "phase_seconds" not in (tmp_path / kind / "report.json").read_text()
    lti = json.loads((tmp_path / "lti" / "metadata.json").read_text())["phase_seconds"]
    assert lti["volumes"] >= 0.05 * len(report["volume_table"])


def test_metadata_counts_lps_by_purpose(tmp_path):
    cfg = replace(tiny_pwa_config(), horizon=4)
    run_pwa_experiment(cfg, out_dir=tmp_path)
    lp = json.loads((tmp_path / "metadata.json").read_text())["lp"]
    assert set(lp) == {"support", "is_empty", "contains_point"}
    for tally in lp.values():
        assert set(tally) == {"calls", "objectives", "cold_starts", "simplex_iterations",
                              "seconds"}
        assert 0 <= tally["cold_starts"] <= tally["calls"] <= tally["objectives"]
    assert lp["support"]["simplex_iterations"] > 0
    assert "cold_starts" not in (tmp_path / "report.json").read_text()
    # every constrained fragment gets a hull, and a child starts from the
    # basis its parent holds when the child is built: the parent's own once
    # a guard-cut emptiness LP ran on it (each mode's region is one
    # halfspace here), else the one the parent inherited.  So a constrained
    # fragment pays one cold start, at its first guard-cut emptiness query
    # or at its hull, exactly when its parent held no basis
    modes = cfg.true_system().pwa.modes
    cold = constrained = 0
    for combo in (tmp_path / "sets").iterdir():
        held = []  # per fragment of the previous step
        for k in range(cfg.horizon + 1):
            now = []
            for frag in json.loads((combo / f"step{k}.json").read_text())["fragments"]:
                z = set_from_dict(frag["set"])
                inherited = k > 0 and held[frag["parent"]]
                cut = any(halfspace_intersection_with_plan(z, h.normal, h.offset)[1][0] == "cut"
                          for mode in modes for h in mode.region)
                constrained += z.num_constraints > 0
                cold += z.num_constraints > 0 and not inherited
                now.append(z.num_constraints > 0 and (inherited or cut))
            held = now
    assert constrained > cold > 0
    assert lp["support"]["cold_starts"] + lp["is_empty"]["cold_starts"] == cold


def test_metadata_records_set_sizes_per_step(tmp_path):
    # per combination and step, each fragment's constraint rows, their
    # nonzero coefficients and generator counts, in metadata.json alone
    for kind, run, cfg in (("lti", run_lti_experiment, tiny_lti_config(horizon=3)),
                           ("pwa", run_pwa_experiment, tiny_pwa_config())):
        report = run(cfg, out_dir=tmp_path / kind)
        sizes = json.loads((tmp_path / kind / "metadata.json").read_text())["set_sizes"]
        assert sorted(sizes) == sorted(report["combos"])
        for combo, block in sizes.items():
            assert set(block) == {"constraint_rows", "constraint_nnz", "generators"}
            for k, (rows, nnz, gens) in enumerate(zip(block["constraint_rows"],
                                                      block["constraint_nnz"],
                                                      block["generators"])):
                frags = json.loads((tmp_path / kind / "sets" / combo / f"step{k}.json")
                                   .read_text())["fragments"]
                assert len(rows) == len(nnz) == len(gens) == len(frags)
                for n_rows, n_nnz, n_gens, frag in zip(rows, nnz, gens, frags):
                    z = set_from_dict(frag["set"])
                    assert (n_rows, n_nnz, n_gens) == (z.num_constraints,
                                                       np.count_nonzero(z.A), z.num_generators)
            assert len(block["constraint_rows"]) == cfg.horizon + 1
            if combo.startswith("cmz"):
                # the model's rows enter once: the sets stop growing
                assert block["constraint_rows"][1][0] > 0
                if kind == "lti":
                    assert len({r for (r,) in block["constraint_rows"][1:]}) == 1
        assert "set_sizes" not in (tmp_path / kind / "report.json").read_text()
        assert "constraint_rows" not in (tmp_path / kind / "report.json").read_text()
        assert "constraint_nnz" not in (tmp_path / kind / "report.json").read_text()


def test_metadata_counts_designed_inputs(tmp_path):
    cfg = tiny_lti_config(compute_supports=False, compute_volumes=False)
    run_lti_experiment(cfg, out_dir=tmp_path / "both")
    design = json.loads((tmp_path / "both" / "metadata.json").read_text())["design"]
    assert design["calls"] == cfg.k_trajectories * cfg.t_steps
    assert 0 <= design["capped_calls"] <= design["calls"]
    assert 0 < design["refine_iterations"] <= design["calls"] * cfg.design.refine_iters
    assert design["seconds"] > 0.0
    assert "refine_iterations" not in (tmp_path / "both" / "report.json").read_text()
    run_lti_experiment(replace(cfg, input_modes=("random",)), out_dir=tmp_path / "random")
    design = json.loads((tmp_path / "random" / "metadata.json").read_text())["design"]
    assert design == {"calls": 0, "refine_iterations": 0, "capped_calls": 0, "seconds": 0}


def test_lti_seed_changes_report():
    base = run_lti_experiment(tiny_lti_config())
    other = run_lti_experiment(tiny_lti_config(rng_seed=7))
    assert base["data"]["random"]["sigma_min"] != other["data"]["random"]["sigma_min"]


def test_horizon_zero_every_set_is_x0(tmp_path):
    cfg = tiny_lti_config(horizon=0, compute_supports=False)
    report = run_lti_experiment(cfg, out_dir=tmp_path)
    assert report["status"] == "ok"
    for combo in report["combos"]:
        payload = json.loads((tmp_path / "sets" / combo / "step0.json").read_text())
        frag = payload["fragments"][0]["set"]
        assert np.allclose(frag["c"], cfg.x0.c)
        assert np.allclose(frag["G"], cfg.x0.G)
    ratios = [row["ratio"] for row in report["volume_table"]]
    assert np.allclose(ratios, 1.0)


def test_volume_step_selects_the_tabulated_step():
    full = run_lti_experiment(tiny_lti_config())
    early = run_lti_experiment(tiny_lti_config(volume_step=1))
    assert full["volume_step"] == 2 and early["volume_step"] == 1
    v_full = full["volume_table"][0]["volume"]
    v_early = early["volume_table"][0]["volume"]
    assert v_early < v_full


def flat_x0_config(**over):
    """tiny_lti_config with an x0 of zero volume (one generator in 2-D), its
    data still drawn from the full box, and the volume table at step 0."""
    return tiny_lti_config(x0={"center": [1.0, -1.0], "generators": [[0.1], [0.0]]},
                           x0_data=tiny_lti_config().x0, volume_step=0, **over)


def test_zero_reference_volume_raises_with_the_partial_report():
    with pytest.raises(HarnessError, match="volume 0 at step 0") as err:
        run_lti_experiment(flat_x0_config(compute_supports=False))
    report = err.value.report
    assert report["status"] == "zero_reference_volume" and report["volume_step"] == 0
    assert [row["volume"] for row in report["volume_table"]] == [0.0] * 5
    assert all("ratio" not in row for row in report["volume_table"])
    json.dumps(report)


def test_lti_rejects_pwa_config():
    cfg = bundled_config("pwa_2mode")
    with pytest.raises(HarnessError, match="kind"):
        run_lti_experiment(cfg)


def test_pwa_partition_indices_cover_all_columns():
    cfg = bundled_config("pwa_2mode")
    system = cfg.true_system()
    data, _ = collect_data(cfg, system, "random")
    parts, indices = partition_data_by_mode(data, system.pwa)
    assert sum(p.T for p in parts) == data.T
    assert sorted(np.concatenate(indices).tolist()) == list(range(data.T))
    for q, part in enumerate(parts):
        for col in range(part.T):
            assert system.pwa.classify(part.x_minus[:, col]) == q


def test_pwa_smoke_run_small():
    cfg = replace(bundled_config("pwa_2mode"), horizon=3, n_check=20,
                  compute_supports=False, k_trajectories=8)
    report = run_pwa_experiment(cfg)
    assert report["status"] == "ok"
    assert all(report["fragment_bound_ok"].values())
    widths = report["interval_hulls"]["model"][-1]["width"]
    assert len(widths) == 2
