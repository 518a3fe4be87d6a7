import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import instantform

MODULES = ["instantform"] + [
    f"instantform.{m.name}" for m in pkgutil.iter_modules(instantform.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """A deletion cannot leave a stale name in a module's __all__."""
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(mod, n)] == []


# the only results that depend on the metric sign convention
SIGN_DEPENDENT = {
    "instantform.minkowski.metric",
    "instantform.minkowski.minkowski_dot",
    "instantform.minkowski.is_lorentz",
    "instantform.foliation.induced_geometry",
    "instantform.foliation.GeometryAtPoint",
}


def test_only_sign_dependent_api_takes_sgn():
    """Convention-free functions, classes and public methods take no ``sgn``."""
    takers = set()
    for name in MODULES:
        mod = importlib.import_module(name)
        for export in getattr(mod, "__all__", []):
            obj = getattr(mod, export)
            if not callable(obj) or getattr(obj, "__module__", None) != name:
                continue
            fns = [obj]
            if inspect.isclass(obj):
                fns += [m for k, m in vars(obj).items()
                        if inspect.isfunction(m) and not k.startswith("_")]
            for fn in fns:
                if "sgn" in inspect.signature(fn).parameters:
                    takers.add(f"{name}.{fn.__qualname__}")
    assert takers == SIGN_DEPENDENT


def _scipy_modules_after(imports):
    """scipy modules loaded by a fresh interpreter after ``imports``."""
    code = (f"import json, sys; import {imports}; "
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(instantform.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=60)
    return set(json.loads(proc.stdout))


def test_kinematics_layers_import_no_scipy():
    """The package and its numpy-only layers load without scipy; the CLI loads
    no scipy solver until a spectrum runs."""
    assert _scipy_modules_after(
        "instantform, instantform.radar, instantform.collective, instantform.foliation") == set()
    loaded = _scipy_modules_after("instantform.cli")
    assert loaded & {"scipy.optimize", "scipy.sparse", "scipy.fft"} == set()
