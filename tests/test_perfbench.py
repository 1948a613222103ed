"""The benchmark's hold on the library: ``perfbench/runner.py`` counts calls
of functions it names when it is imported, so a rename or a wrapper of one
of them must fail here, not only when the benchmark runs."""

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
