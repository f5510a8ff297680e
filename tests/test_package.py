"""The package's public surface."""

import ast
import inspect
import itertools
import subprocess
import sys
from pathlib import Path

import cmtype


def test_all_lists_exactly_the_public_names_bound_in_the_package():
    bound = {name for name, value in vars(cmtype).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert cmtype.__all__ == sorted(set(cmtype.__all__))
    assert set(cmtype.__all__) == bound


def test_every_definition_is_used_exported_or_traced():
    """Each function, method and class defined under src/cmtype is referenced
    under src/, is in cmtype.__all__, is a dunder, or is wrapped by the
    benchmark tracer (perfbench/tracer.py LAYERS, read here, not imported)."""
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "cmtype"
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    tracer = ast.parse((root / "perfbench" / "tracer.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in tracer.body
                  if isinstance(node, ast.Assign) and node.targets[0].id == "LAYERS")
    traced = {name for _, functions, classes in layers.values()
              for name in [*functions, *itertools.chain(*classes.values())]}
    kept = referenced | traced | set(cmtype.__all__)
    unused = [
        f"{filename}:{node.lineno} {node.name}"
        for filename, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in kept
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    assert unused == []


def test_no_ideal_is_built_past_its_constructor():
    """No code under src/cmtype calls object.__new__, so every ideal it makes
    has passed its constructor's checks (tests may still build invalid ones)."""
    package = Path(__file__).resolve().parents[1] / "src" / "cmtype"
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute) and node.func.attr == "__new__"
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "object"
    ]
    assert calls == []


def test_the_monomial_engine_keeps_no_process_wide_cache():
    """relideal applies no functools.cache or lru_cache: the companions of a
    semigroup live in its own slot, as long as it does."""
    path = Path(__file__).resolve().parents[1] / "src" / "cmtype" / "relideal.py"
    names = [
        f"relideal.py:{node.lineno} {name}"
        for node in ast.walk(ast.parse(path.read_text()))
        for name in [getattr(node, "attr", None) or getattr(node, "id", None)
                     or getattr(node, "name", None)]
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        and name in ("cache", "lru_cache")
    ]
    assert names == []


def test_no_result_has_a_serializer():
    """A result is built as the dict its --json document prints, so no
    to_dict is defined or assigned under src/cmtype."""
    package = Path(__file__).resolve().parents[1] / "src" / "cmtype"
    sites = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "to_dict"
        or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id == "to_dict"
        or isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and node.attr == "to_dict"
    ]
    assert sites == []


def test_each_test_helper_is_defined_once():
    """No two modules under tests/ define a top-level function or class of
    one name, pytest's test_ functions and Test classes aside: a helper that
    two test modules need lives once, in tests/helpers.py."""
    defined = {}
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            collected = "Test" if isinstance(node, ast.ClassDef) else "test_"
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith(collected)):
                defined.setdefault(node.name, []).append(path.name)
    assert {name: files for name, files in defined.items() if len(files) > 1} == {}


def test_the_cli_loads_no_heavy_standard_module():
    """A fresh ``python -S -E`` importing cmtype.cli loads none of these: each
    costs every command start-up time (``dataclasses`` pulls in ``inspect``,
    ``ast``, ``dis`` and ``tokenize``; ``verify`` pulls in ``random``)."""
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize", "random"]
    src = Path(__file__).resolve().parents[1] / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import cmtype.cli; "
            f"print(sorted(set({heavy!r}) & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-E", "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"
