"""The README's list of re-exported names against the names the package binds."""

import ast
import re
from pathlib import Path

import fattree_design

ROOT = Path(__file__).resolve().parent.parent
MARKER = "The package itself re-exports the public API:"


def readme_names():
    """Every `name` in the bullet list that follows the README's re-export sentence."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    bullets = text[text.index(MARKER):].split("\n\n")[1]
    assert all(line.startswith(("* ", "  ")) for line in bullets.splitlines())
    return re.findall(r"`(\w+)`", bullets)


def bound_names():
    """The names that fattree_design/__init__.py imports or assigns, less __version__."""
    tree = ast.parse(Path(fattree_design.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets)
    return names - {"__version__"}


def test_readme_lists_exactly_the_package_exports():
    listed = readme_names()
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert sorted(listed) == sorted(bound_names())
    assert all(hasattr(fattree_design, name) for name in listed)
