"""The benchmark still finds and drives every library entry point it uses.

reachbench/tracing.py wraps named functions of the library from outside, so
renaming or deleting one of them (say propagate_lti) breaks the benchmark.
reachbench/workloads.py calls public entry points with fixed call shapes
(cfg.true_system(), collect_data(cfg, system, mode), pinv_right_inverse of
a bare matrix, ...), so a changed signature breaks it too.  These tests load
both files as they are, install the tracer and run one operation of each
workload through its oracle, so such a change fails here instead of in a
benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import datareach  # noqa: F401  (the tracer wraps the package's loaded modules)

BENCH = Path(__file__).resolve().parents[1] / "reachbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_traced_entry_point():
    tracing = _load("reachbench_tracing", BENCH / "tracing.py")
    homes = {mod: importlib.import_module(mod) for mod, *_ in tracing.TARGETS}
    originals = {(mod, attr): getattr(homes[mod], attr, None) for mod, attr, *_ in tracing.TARGETS}
    tracer = tracing.Tracer()
    try:
        tracer.install()  # raises TraceError when a target is gone
        for (mod, attr), original in originals.items():
            assert getattr(homes[mod], attr) is not original, f"{mod}.{attr} was not wrapped"
    finally:
        tracer.uninstall()
    for (mod, attr), original in originals.items():
        assert getattr(homes[mod], attr) is original, f"{mod}.{attr} was not restored"


@pytest.mark.parametrize("name", ["lti-cmz", "pwa-split", "lti-volume", "model-sets"])
def test_workload_runs_one_operation_its_oracle_passes(tmp_path, monkeypatch, name):
    # workloads.py imports the oracle as a top-level module
    monkeypatch.setitem(sys.modules, "oracle", _load("oracle", BENCH / "oracle.py"))
    workload = _load("reachbench_workloads", BENCH / "workloads.py").WORKLOADS[name]
    cfg = workload.config(1)
    out_dir = str(tmp_path / "op")
    result = workload.run(cfg, cfg.true_system(), out_dir)
    assert workload.check(cfg, result.outputs, out_dir, np.random.default_rng(1)) == []
