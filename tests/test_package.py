import ast
from pathlib import Path

import detpowers

SRC_DIR = Path(detpowers.__file__).parent

# module.name -> why it stays although no code in the package loads it
KEPT = {
    "cli.parse_decomposition":
        "the JSON reader a decompose report round-trips through (ROADMAP "
        "item 5 wires it into a command)",
    "multipoly.expand_power":
        "perfbench/runner.PROFILED_CALLS names it (ROADMAP item 14)",
}


def top_level_definitions():
    """Every top-level function and class of the package, as module.name."""
    for path in sorted(SRC_DIR.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                yield f"{path.stem}.{node.name}", node.name


def loaded_names():
    """Every name the package's code reads, bare or as an attribute."""
    names = set()
    for path in SRC_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                names.add(node.attr)
    return names


class TestNoUnusedDefinitions:
    def test_every_definition_is_loaded_or_exported(self):
        loaded, exported = loaded_names(), set(detpowers.__all__)
        unused = {qualified for qualified, name in top_level_definitions()
                  if name not in loaded and name not in exported}
        assert unused == set(KEPT)

    def test_the_walk_sees_every_module(self):
        modules = {qualified.split(".")[0]
                   for qualified, _ in top_level_definitions()}
        assert modules == {path.stem for path in SRC_DIR.glob("*.py")
                           if path.stem != "__init__"}


def test_the_engines_keep_their_own_phase_reads():
    # expansion and streaming read their own unit phases, so a fault in the
    # structure layers' phase-code view cannot reach a verdict of theirs
    tree = ast.parse((SRC_DIR / "verify.py").read_text())
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name)}
    names |= {alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not names & {"phase_codes", "_unit_code"}
