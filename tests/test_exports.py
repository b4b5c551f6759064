import importlib
import pkgutil
from pathlib import Path
from types import ModuleType

import pytest

import hclassnum

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(hclassnum.__path__))

# names deleted from the public API, by the module that used to define them
REMOVED = {
    "hurwitz": ("HurwitzTable", "restricted_series"),
    "formulas": ("h_mod6", "h_mod8", "MOD6_BRANCHES", "MOD8_BRANCHES"),
    "eccount": ("TraceDistribution",),
    "forms": ("theta0", "theta_weighted"),
}


def test_package_exports_resolve():
    assert len(set(hclassnum.__all__)) == len(hclassnum.__all__)
    for name in hclassnum.__all__:
        assert hasattr(hclassnum, name), name


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_exports_resolve(module):
    mod = importlib.import_module(f"hclassnum.{module}")
    exported = getattr(mod, "__all__", None)
    assert exported is not None, module
    assert len(set(exported)) == len(exported), module
    for name in exported:
        assert hasattr(mod, name), (module, name)


def test_removed_names_stay_absent():
    # hclassnum.hurwitz is the submodule; the function is hurwitz.hurwitz
    assert isinstance(hclassnum.hurwitz, ModuleType)
    for module, names in REMOVED.items():
        mod = importlib.import_module(f"hclassnum.{module}")
        for name in names:
            assert not hasattr(hclassnum, name), name
            assert name not in hclassnum.__all__, name
            assert not hasattr(mod, name), (module, name)


def test_removed_series_methods_stay_absent():
    for name in ("truncate", "is_zero", "to_strings"):
        assert not hasattr(hclassnum.QSeries, name), name


# older setuptools call [tool.setuptools] in pyproject.toml a beta feature
@pytest.mark.filterwarnings("ignore::UserWarning")
def test_pyproject_reads_its_version_off_the_package():
    from setuptools.config.pyprojecttoml import read_configuration

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert read_configuration(pyproject)["project"]["version"] == hclassnum.__version__
