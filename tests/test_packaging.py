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
# Loading a snapshot or checkpoint must never run code from the file.
UNPICKLERS = {"pickle", "_pickle", "shelve"}


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


def package_nodes():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def imported_modules():
    for filename, node in package_nodes():
        if isinstance(node, ast.Import):
            yield from ((filename, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield filename, node.module


def test_package_imports_only_stdlib_and_numpy():
    outside = [f"{filename}: {name}" for filename, name in imported_modules()
               if name.partition(".")[0] not in ALLOWED_TOP_LEVEL]
    assert outside == []


def test_package_never_unpickles():
    unpicklers = [f"{filename}: {name}" for filename, name in imported_modules()
                  if name.partition(".")[0] in UNPICKLERS]
    allow_pickle = [f"{filename}:{node.lineno}" for filename, node in package_nodes()
                    if isinstance(node, ast.keyword) and node.arg == "allow_pickle"
                    and not (isinstance(node.value, ast.Constant) and node.value.value is False)]
    assert unpicklers == [] and allow_pickle == []


def test_only_errors_converts_an_outside_array():
    """An outside array of numbers is converted by `errors.float_array` alone:
    no other `try` body in the package casts with `np.array` or `np.asarray`."""
    casts = [f"{filename}:{call.lineno}" for filename, node in package_nodes()
             if filename != "errors.py" and isinstance(node, ast.Try)
             for statement in node.body for call in ast.walk(statement)
             if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
             and call.func.attr in ("array", "asarray")
             and isinstance(call.func.value, ast.Name) and call.func.value.id == "np"]
    assert casts == []


# Names of the number types, builtin or numpy, as `isinstance` would be given them.
NUMBER_TYPES = {"int", "float", "complex", "bool", "Number", "Real", "Integral", "number",
                "integer", "signedinteger", "unsignedinteger", "floating", "bool_", "generic"}


def named_types(node):
    """The names in an `isinstance` type argument: a name, an attribute, a tuple of them."""
    if isinstance(node, ast.Tuple):
        return {name for element in node.elts for name in named_types(element)}
    if isinstance(node, ast.Name):
        return {node.id}
    return {node.attr} if isinstance(node, ast.Attribute) else set()


def test_only_errors_tests_the_type_of_a_number():
    """A number from outside is checked by the readers in `errors` alone: no
    other module tests `isinstance(x, <number type>)` or `x.__class__ is ...`."""
    tests = [f"{filename}:{node.lineno}" for filename, node in package_nodes()
             if filename != "errors.py" and (
                 (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "isinstance" and len(node.args) == 2
                  and named_types(node.args[1]) & NUMBER_TYPES)
                 or (isinstance(node, ast.Compare)
                     and any(isinstance(side, ast.Attribute) and side.attr == "__class__"
                             for side in (node.left, *node.comparators))))]
    assert tests == []


SCHEMA_VERSIONS = {"SCHEMA_VERSION", "CHECKPOINT_SCHEMA_VERSION"}


def test_only_check_number_reads_a_schema_version():
    """A saved file's schema_version is read by `errors.check_number` alone:
    neither version constant is an operand of a comparison in the package."""
    compares = [f"{filename}:{node.lineno}" for filename, node in package_nodes()
                if isinstance(node, ast.Compare) for side in (node.left, *node.comparators)
                if getattr(side, "id", getattr(side, "attr", None)) in SCHEMA_VERSIONS]
    assert compares == []


def owned_trees():
    """(file name, tree, owners) of every package module, where owners maps the
    id of each node inside a function to the function's qualified name (a
    method is named `Class.method`)."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owners = {}
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                owners.update((id(node), function.name) for node in ast.walk(function))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for function in cls.body:
                    if isinstance(function, ast.FunctionDef):
                        owners.update((id(node), f"{cls.name}.{function.name}")
                                      for node in ast.walk(function))
        yield path.name, tree, owners


def owned_attribute_uses(attr: str):
    """(file name, line, qualified name of the enclosing function or None) of
    every use of an attribute named `attr` in the package."""
    for filename, tree, owners in owned_trees():
        yield from ((filename, node.lineno, owners.get(id(node))) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == attr)


def test_only_model_stream_makes_a_generator():
    """Every random stream comes from `model.stream`, the one key table."""
    calls = [f"{filename}:{line}" for filename, line, owner in owned_attribute_uses("default_rng")
             if (filename, owner) != ("model.py", "stream")]
    assert calls == []


def test_only_learner_numeric_checks_test_finiteness():
    """An outside array is held to a finite range by `errors.check_array`:
    outside `errors`, only the learner's NumericError checks call `isfinite`."""
    allowed = {("learner.py", "check_finite_stacks"), ("learner.py", "train")}
    calls = [f"{filename}:{line}" for filename, line, owner in owned_attribute_uses("isfinite")
             if filename != "errors.py" and (filename, owner) not in allowed]
    assert calls == []


def callers(name: str):
    """(file name, qualified name of the enclosing function or None) of every
    call of `name` by its bare name in the package."""
    for filename, tree, owners in owned_trees():
        yield from ((filename, owners.get(id(node))) for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == name)


def test_only_scenario_init_builds_the_world():
    """`Scenario(config)` is the one constructor of the world: no other code in
    the package builds a `UserArrays` or `UavArrays` by name."""
    builders = {caller for name in ("UserArrays", "UavArrays") for caller in callers(name)}
    assert builders == {("model.py", "Scenario.__init__")}


def test_only_update_steps_the_agents():
    """`MaddpgTrainer.update` is the one warm-slot update: nothing else in the
    package samples the replay buffer or runs an agent's critic, actor or soft
    update."""
    uses = [f"{filename}:{line} in {owner}"
            for attr in ("sample", "critic_update", "actor_update", "soft_update_agent")
            for filename, line, owner in owned_attribute_uses(attr)
            if (filename, owner) != ("learner.py", "MaddpgTrainer.update")]
    assert uses == []


# Kept only because `bench/` looks them up; they go with `SlotContext`'s record
# branch, tests/test_kept_for_bench.py and this list, and no other code changes.
KEPT_FOR_BENCH = {"mlp_forward", "mlp_gradients", "build_scenario", "UserState", "UavState",
                  "Task"}


def test_package_calls_no_name_kept_for_the_benchmark():
    """No package code calls a name of KEPT_FOR_BENCH, bare or as an
    attribute, and `_Columns.from_rows` serves only `SlotContext`'s record
    lists: deleting them all changes no other code in the package."""
    calls = [f"{filename}:{node.lineno}" for filename, node in package_nodes()
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) in KEPT_FOR_BENCH]
    stackers = {(filename, owner) for filename, _, owner in owned_attribute_uses("from_rows")}
    assert calls == [] and stackers == {("delay.py", "SlotContext.__init__")}


def test_only_the_kept_module_names_a_kept_name():
    """No file in tests/ or tools/ but tests/test_kept_for_bench.py names a KEPT_FOR_BENCH
    name or `from_rows`, and `env` calls no `slot_dor` (bench/tracing.py patches it)."""
    kept = KEPT_FOR_BENCH | {"from_rows"}
    names = [f"{path.relative_to(ROOT)}:{node.lineno} {name}"
             for folder in ("tests", "tools") for path in sorted((ROOT / folder).glob("*.py"))
             if path.name != "test_kept_for_bench.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if (name := getattr(node, "id", getattr(node, "attr", getattr(node, "name", None))))
             in kept and isinstance(node, (ast.Name, ast.Attribute, ast.alias))]
    env_calls = [f"env.py:{node.lineno}" for filename, node in package_nodes()
                 if filename == "env.py" and isinstance(node, ast.Call)
                 and getattr(node.func, "id", getattr(node.func, "attr", None)) == "slot_dor"]
    assert not names, "\n".join(names)
    assert env_calls == []
