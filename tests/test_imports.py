"""No module of the package or of the tests imports a name it never uses,
and every module, the benchmark's too, parses as Python 3.10.

No linter is a dependency, so this is the unused-import check: every name an
import binds must be read somewhere in its module, or be listed in the
module's ``__all__``. The grammar check holds the sources to the
``requires-python`` floor of ``pyproject.toml``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "affinecaps").glob("*.py"), *(ROOT / "tests").glob("*.py")])
SOURCES = sorted([*MODULES, *(ROOT / "perfbench").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names the module's imports bind and the module never reads, in order."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             or isinstance(node, ast.ImportFrom) and node.module != "__future__"
             for alias in node.names if alias.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(set(bound) - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = ("from itertools import combinations, permutations\n"
              "import numpy as np\nimport os.path\n__all__ = ['np']\n"
              "list(combinations(os.path.sep, 2))\n")
    assert unused_imports(source) == ["permutations"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_the_grammar_check_refuses_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
