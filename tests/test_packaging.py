import ast
import importlib
import sys
from pathlib import Path

import pytest

import uavmec

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = ROOT / "src" / "uavmec"

# The runtime dependency rule: the standard library and numpy, nothing else.
ALLOWED_TOP_LEVEL = set(sys.stdlib_module_names) | {"numpy", "__future__"}


def test_every_console_script_target_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_every_exported_name_imports():
    assert len(set(uavmec.__all__)) == len(uavmec.__all__)
    namespace = {}
    exec("from uavmec import *", namespace)
    for name in uavmec.__all__:
        assert namespace[name] is getattr(uavmec, name), name


def test_package_imports_only_stdlib_and_numpy():
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in ALLOWED_TOP_LEVEL]
    assert outside == []
