import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path
from types import ModuleType

import pytest

import hclassnum

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(hclassnum.__path__))

# names deleted from the public API, by the module that used to define them
REMOVED = {
    "hurwitz": ("HurwitzTable", "restricted_series"),
    "formulas": ("h_mod6", "h_mod8", "MOD6_BRANCHES", "MOD8_BRANCHES"),
    "eccount": ("TraceDistribution",),
    "forms": ("theta0", "theta_weighted"),
    "verify": ("IdentityReport",),
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


def _pyproject() -> dict:
    from setuptools.config.pyprojecttoml import read_configuration

    return read_configuration(ROOT / "pyproject.toml")


# older setuptools call [tool.setuptools] in pyproject.toml a beta feature
@pytest.mark.filterwarnings("ignore::UserWarning")
def test_pyproject_reads_its_version_off_the_package():
    assert _pyproject()["project"]["version"] == hclassnum.__version__


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_test_extras_name_every_module_the_tests_import():
    # top-level modules imported anywhere in the tests and the benchmark,
    # less the standard library, the package and the files beside them
    files = [f for d in ("tests", "perfbench") for f in (ROOT / d).rglob("*.py")]
    imported = set()
    for f in files:
        for node in ast.walk(ast.parse(f.read_text(), str(f))):
            if isinstance(node, ast.Import):
                imported.update(a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    imported -= set(sys.stdlib_module_names) | {"hclassnum"} | {f.stem for f in files}
    extras = _pyproject()["project"]["optional-dependencies"]["test"]
    declared = {re.match(r"[\w.-]+", req)[0].lower().replace("-", "_")
                for req in extras}
    assert imported == declared
