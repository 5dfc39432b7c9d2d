"""Public surface: every exported name resolves, so no re-export goes stale."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cyclosense

MODULES = sorted(info.name for info in pkgutil.iter_modules(cyclosense.__path__))


def test_package_all_is_sorted_and_resolves():
    assert cyclosense.__all__ == sorted(cyclosense.__all__)
    assert len(set(cyclosense.__all__)) == len(cyclosense.__all__)
    for name in cyclosense.__all__:
        assert hasattr(cyclosense, name), name


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"cyclosense.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"cyclosense.{module}.{name}"


def test_import_leaves_numpy_random_unloaded():
    # numpy.random loads on first use; an import-time load would cost every command
    src = str(Path(cyclosense.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, cyclosense; print('numpy.random' in sys.modules, 'numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            check=True)
    assert result.stdout.split() == ["False", "True"]
