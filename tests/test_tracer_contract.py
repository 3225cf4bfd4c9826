"""The benchmark's tracer wraps program functions by name, where each layer
binds them; a renamed or deleted name must fail here, not only in a traced
benchmark run."""

import importlib
import importlib.util
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")
MODULES = ("cli", "diagnostics", "integrate", "scenario")


def load_tracer():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    modules = [importlib.import_module(f"stiefel_sync.{name}") for name in MODULES]
    owners = modules + [modules[MODULES.index("scenario")].Scenario]
    return {
        (id(owner), attr): id(value) for owner in owners for attr, value in vars(owner).items()
    }


def test_install_wraps_every_traced_name_and_uninstall_restores_them():
    tracer_module = load_tracer()
    before = bindings()
    tracer = tracer_module.Tracer()
    tracer_module.install(tracer)
    try:
        patched = {(owner, attr) for owner, attr, _ in tracer._patches}
        assert patched
        assert all(hasattr(getattr(owner, attr), "__wrapped__") for owner, attr in patched)
    finally:
        tracer.uninstall()
    assert bindings() == before
