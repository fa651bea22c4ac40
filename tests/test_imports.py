"""Guards over src/covtt as a whole: it stays standard-library only, its
import loads no module it does not need, and every function cache it keeps
has a finite size."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "covtt"


def test_src_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_cli_import_loads_no_heavy_module():
    """Every covtt command pays for importing covtt.cli.  These modules cost
    milliseconds to import and nothing in covtt needs them at import time;
    the real-line checker imports fractions when it runs."""
    probe = ("import json, sys; before = set(sys.modules); import covtt.cli; "
             "print(json.dumps(sorted(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    loaded = set(json.loads(out.stdout))
    assert "covtt.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "fractions"}), loaded


def test_every_lru_cache_is_bounded():
    """A cache without a maxsize would trade memory for speed silently."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"covtt.{path.stem}")
        scopes = [module] + [c for c in vars(module).values()
                             if inspect.isclass(c) and c.__module__ == module.__name__]
        for scope in scopes:
            for name, obj in vars(scope).items():
                if hasattr(obj, "cache_parameters"):
                    found[name] = obj.cache_parameters()["maxsize"]
    assert {"_decoded", "decode_set"} <= set(found)
    assert all(size is not None for size in found.values()), found


def test_every_traced_boundary_resolves():
    """perfbench/tracer.py patches these names from outside src/; renaming
    one would break the traced benchmark without failing any other test."""
    tracer = SRC.parent.parent / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text(encoding="utf-8"))
    boundaries = next(ast.literal_eval(node.value) for node in tree.body
                      if isinstance(node, ast.Assign)
                      and [t.id for t in node.targets] == ["BOUNDARIES"])
    assert boundaries
    # patched directly by Tracer.install, next to the boundaries
    names = [(mod, attr) for mod, attr, *_ in boundaries] + [
        ("realizability", "Model.__init__"), ("realizability", "Model.apply"),
        ("covers", "cont")]
    for mod, attr in names:
        obj = importlib.import_module(f"covtt.{mod}")
        for part in attr.split("."):
            assert hasattr(obj, part), (mod, attr)
            obj = getattr(obj, part)
        assert callable(obj), (mod, attr)


def test_every_test_helper_the_benchmark_reads_resolves():
    """perfbench/passes.py imports tests/test_acceptance.py and reads its
    private helpers; renaming one would break the benchmark without failing
    any other test."""
    passes = SRC.parent.parent / "perfbench" / "passes.py"
    tree = ast.parse(passes.read_text(encoding="utf-8"))
    alias = next(name.asname or name.name for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.module == "tests"
                 for name in node.names if name.name == "test_acceptance")
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == alias}
    assert {"_gen_set_code", "_oracle_set", "_wf_oracle"} <= used
    acc = importlib.import_module("test_acceptance")
    for name in used:
        assert callable(getattr(acc, name, None)), name


def test_every_public_helper_has_a_caller():
    """A public top-level def or class of src/covtt is named somewhere other
    than its own definition: in src/, tests/ or perfbench/.  A name counts
    where it is read, imported, or written as a string, as perfbench's
    boundary table writes the names it patches."""
    root = SRC.parent.parent
    defined, named = {}, set()
    for path in sorted([*root.glob("src/covtt/*.py"), *root.glob("tests/*.py"),
                        *root.glob("perfbench/*.py")]):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(stmt, "name", None)     # a def or a class
            if path.parent == SRC and owner and not owner.startswith("_"):
                defined[owner] = path.name
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.alias):
                    names = [node.name]
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names = node.value.split(".")
                else:
                    continue
                named.update(n for n in names if n != owner)
    assert defined
    unused = sorted((module, name) for name, module in defined.items()
                    if name not in named)
    assert unused == []
