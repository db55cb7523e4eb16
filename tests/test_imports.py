"""Every name a module of the package or a test file imports is used there."""

import ast
import pathlib

import pytest

import microdispatch

PACKAGE = pathlib.Path(microdispatch.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
TEST_FILES = sorted(pathlib.Path(__file__).parent.glob("*.py"))


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
