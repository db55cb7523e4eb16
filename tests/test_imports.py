"""Every name a module of the package or a test file imports is used there,
and every top-level function, class and UPPER_CASE constant of the package,
public or private, has a user outside the tests."""

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


def defined_names(statement) -> list[str]:
    """What a top-level statement defines that must be used: a function or
    class, or UPPER_CASE constants."""
    if isinstance(statement, DEFINITIONS):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]


def unreferenced(defining: list[str], others: list[str]) -> list[str]:
    """The top-level functions, classes and UPPER_CASE constants of the
    `defining` sources that no source, `others` included, names outside
    their own definition."""
    trees = [ast.parse(source) for source in defining + others]
    used = set()
    for tree in trees:
        for statement in tree.body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(statement)
                     if isinstance(node, (ast.Name, ast.Attribute))}
            used |= names - set(defined_names(statement))
    return [name for tree in trees[:len(defining)] for statement in tree.body
            for name in defined_names(statement) if name not in used]


def test_the_checker_flags_a_definition_nothing_else_names():
    module = ("LIMIT = 3\n_SCALE: float = 2.0\n_USED = 1\nlowercase = 0\n\n"
              "def alone(n):\n    return alone(n - 1)\n\n"
              "def called():\n    return _USED\n\nclass Read:\n    pass\n\n"
              "def _private():\n    pass\n\nclass _Helper:\n    pass\n\n"
              "def _helped():\n    return _Helper()\n")
    caller = "import module\nmodule.called()\nprint(module.Read, module._helped)\n"
    assert unreferenced([module], [caller]) == ["LIMIT", "_SCALE", "alone", "_private"]


@pytest.fixture(scope="module")
def unused_in_package():
    assert PERFBENCH, "the benchmark's modules are not next to the tests"
    return unreferenced([path.read_text() for path in MODULES],
                        [path.read_text() for path in PERFBENCH])


def test_every_public_definition_has_a_caller_outside_the_tests(unused_in_package):
    missing = [name for name in unused_in_package if not name.startswith("_")]
    assert not missing, f"reached only by tests: {missing}"


def test_every_private_definition_has_a_caller(unused_in_package):
    missing = [name for name in unused_in_package if name.startswith("_")]
    assert not missing, f"never used: {missing}"
