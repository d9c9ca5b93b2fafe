"""The benchmark's tracer still finds every library entry point it times.

reachbench/tracing.py wraps named functions of the library from outside, so
renaming or deleting one of them (say propagate_lti) breaks the benchmark.
This test loads that file as it is and installs its tracer, so such a rename
fails here instead of in a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import datareach  # noqa: F401  (the tracer wraps the package's loaded modules)

TRACING = Path(__file__).resolve().parents[1] / "reachbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("reachbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_traced_entry_point():
    tracing = _tracing()
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
