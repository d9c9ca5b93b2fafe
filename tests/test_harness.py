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
from datareach.reach import partition_data_by_mode


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
    with pytest.raises(HarnessError, match="volume_step"):
        tiny_lti_config(volume_step=7)


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
    for dims in (((0, 1),), ((1, 1),), ((1, 3),), ((1, 2, 2),), ((2,),)):
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
    _, log_b = collect_data(cfg, system, "random", rng_seed=99)
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
    run_pwa_experiment(replace(tiny_pwa_config(), horizon=4), out_dir=tmp_path)
    lp = json.loads((tmp_path / "metadata.json").read_text())["lp"]
    assert set(lp) == {"support", "is_empty", "contains_point"}
    for tally in lp.values():
        assert set(tally) == {"calls", "objectives", "cold_starts", "simplex_iterations",
                              "seconds"}
        assert 0 <= tally["cold_starts"] <= tally["calls"] <= tally["objectives"]
    assert lp["support"]["simplex_iterations"] > 0
    assert "cold_starts" not in (tmp_path / "report.json").read_text()
    # every constrained fragment gets a hull, so each pays exactly one cold
    # start: at its first guard-cut emptiness query or at its hull
    constrained = 0
    for path in (tmp_path / "sets").rglob("step*.json"):
        for frag in json.loads(path.read_text())["fragments"]:
            constrained += frag["set"]["type"] == "constrained_zonotope" and bool(frag["set"]["b"])
    assert constrained > 0
    assert lp["support"]["cold_starts"] + lp["is_empty"]["cold_starts"] == constrained


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


def test_lti_rejects_pwa_config():
    cfg = bundled_config("pwa_2mode")
    with pytest.raises(HarnessError, match="kind"):
        run_lti_experiment(cfg)


def test_pwa_partition_indices_cover_all_columns():
    cfg = bundled_config("pwa_2mode")
    system = cfg.true_system()
    data, log = collect_data(cfg, system, "random")
    parts, indices = partition_data_by_mode(log.trajectories, system.pwa)
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
