"""Public surface: every exported name resolves, so no re-export goes stale;
every layer the benchmark's tracer names imports; and fit and threshold load
none of the test extras."""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import cyclosense
from cyclosense import io

MODULES = sorted(info.name for info in pkgutil.iter_modules(cyclosense.__path__))


def traced_layers():
    """The LAYERS tuple of the benchmark's layer tracer, read from its source:
    the tracer imports each of them as cyclosense.<layer> before a traced run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYERS":
            return ast.literal_eval(node.value)
    raise LookupError(f"no LAYERS assignment in {path.name}")


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


@pytest.mark.parametrize("layer", traced_layers())
def test_every_traced_layer_imports(layer):
    importlib.import_module(f"cyclosense.{layer}")


def test_import_leaves_numpy_random_unloaded(pinned_python):
    # numpy.random loads on first use; an import-time load would cost every command
    code = "import sys, cyclosense; print('numpy.random' in sys.modules, 'numpy' in sys.modules)"
    assert pinned_python("-c", code).stdout.split() == ["False", "True"]


def test_import_leaves_the_process_pool_unloaded(pinned_python):
    # the pool loads when roc or collect starts one: loaded at import, it would
    # bring multiprocessing, socket and subprocess to every command
    code = "import sys, cyclosense, cyclosense.io; print('concurrent.futures' in sys.modules)"
    assert pinned_python("-c", code).stdout.split() == ["False"]


def test_fit_and_threshold_load_no_test_extra(pinned_python, tmp_path):
    # the package depends on numpy alone: scipy, hypothesis and pytest are test extras
    samples = io.write_profile_csv(tmp_path / "profile.csv", 2.0e6,
                                   np.random.default_rng(5).gumbel(0.09, 0.04, 200))
    fit = tmp_path / "fit"
    code = ("import sys; from cyclosense.cli import main; "
            f"codes = [main(['fit', '--samples', {str(samples)!r}, '--out', {str(fit)!r}]), "
            f"main(['threshold', '--pf', '0.01', '--fit', {str(fit / 'fit.json')!r}])]; "
            "print(codes, [m for m in ('scipy', 'hypothesis', 'pytest') if m in sys.modules])")
    assert pinned_python("-c", code).stdout.splitlines()[-1] == "[0, 0] []"
