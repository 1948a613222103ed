"""The benchmark's hold on the library: ``perfbench/runner.py`` counts calls
of functions it names when it is imported, so a rename or a wrapper of one
of them must fail here, not only when the benchmark runs."""

import ast
import importlib.util
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "detpowers"


def test_profiled_calls_are_plain_library_functions():
    pytest.importorskip("numpy")
    spec = importlib.util.spec_from_file_location(
        "perfbench_runner", ROOT / "perfbench" / "runner.py")
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    assert Path(runner.PACKAGE_DIR).resolve() == PACKAGE
    assert runner.PROFILED_CALLS
    for (layer, metric), fn in runner.PROFILED_CALLS.items():
        assert type(fn) is types.FunctionType, (layer, metric, fn)
        source = Path(fn.__code__.co_filename).resolve()
        assert source.parent == PACKAGE, (layer, metric, source)


def test_profiled_call_names_resolve_without_numpy():
    # the same hold, read from the source, so it also holds where numpy
    # (which runner.py imports) is missing and the test above skips
    tree = ast.parse((ROOT / "perfbench" / "runner.py").read_text())
    modules = {alias.asname or alias.name: f"{node.module}.{alias.name}"
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and node.module == "detpowers" for alias in node.names}
    table, = [node.value for node in ast.walk(tree)
              if isinstance(node, ast.Assign)
              and [ast.unparse(t) for t in node.targets] == ["PROFILED_CALLS"]]
    names = [ast.unparse(value) for value in table.values]
    assert names
    for name in names:
        head, *attrs = name.split(".")
        fn = importlib.import_module(modules[head])
        for attr in attrs:
            fn = getattr(fn, attr)
        assert type(fn) is types.FunctionType, name
        source = Path(fn.__code__.co_filename).resolve()
        assert source.parent == PACKAGE, (name, source)
