"""Every name a module of the package or a test file imports is used there,
and every public function and class of the package has a caller outside the
tests."""

import ast
import pathlib

import pytest

import microdispatch

PACKAGE = pathlib.Path(microdispatch.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
TEST_FILES = sorted(pathlib.Path(__file__).parent.glob("*.py"))
PERFBENCH = sorted((pathlib.Path(__file__).parent.parent / "perfbench").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_the_checker_flags_an_unused_import():
    source = "import json\nimport os\nfrom math import pi, tau\nprint(os.sep, tau)\n"
    assert unused_imports(source) == ["json", "pi"]


@pytest.mark.parametrize("path", MODULES + TEST_FILES,
                         ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced(defining: list[str], others: list[str]) -> list[str]:
    """The public top-level functions and classes of the `defining` sources
    that no source, `others` included, names outside their own definition."""
    trees = [ast.parse(source) for source in defining + others]
    used = set()
    for tree in trees:
        for statement in tree.body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(statement)
                     if isinstance(node, (ast.Name, ast.Attribute))}
            if isinstance(statement, DEFINITIONS):
                names.discard(statement.name)
            used |= names
    return [statement.name for tree in trees[:len(defining)] for statement in tree.body
            if isinstance(statement, DEFINITIONS)
            and not statement.name.startswith("_") and statement.name not in used]


def test_the_checker_flags_a_definition_nothing_else_names():
    module = ("def alone(n):\n    return alone(n - 1)\n\n"
              "def called():\n    pass\n\nclass Read:\n    pass\n\n"
              "def _private():\n    pass\n")
    caller = "import module\nmodule.called()\nprint(module.Read)\n"
    assert unreferenced([module], [caller]) == ["alone"]


def test_every_public_definition_has_a_caller_outside_the_tests():
    assert PERFBENCH, "the benchmark's modules are not next to the tests"
    missing = unreferenced([path.read_text() for path in MODULES],
                           [path.read_text() for path in PERFBENCH])
    assert not missing, f"reached only by tests: {missing}"
