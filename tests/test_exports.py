"""Every public name of the package is reached by a route.

A name re-exported from ``pstlab/__init__.py`` must either be imported by the
acceptance tests or be named by the package's own code outside its own
definition, ``__init__.py`` and import statements. Names are read as NAME
tokens, so a mention in a docstring or a comment does not count.
"""

import ast
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pstlab"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def acceptance_imports():
    tree = ast.parse(ACCEPTANCE.read_text())
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pstlab"
        for alias in node.names
    }


def skipped_lines(tree):
    """Line span of every import, and of every top-level definition keyed by the name it defines."""
    imports, definitions = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imports.update(range(node.lineno, node.end_lineno + 1))
    for node in tree.body:
        span = range(node.lineno, node.end_lineno + 1)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            definitions.setdefault(node.name, set()).update(span)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    definitions.setdefault(target.id, set()).update(span)
    return imports, definitions


def names_used_in_package():
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        imports, definitions = skipped_lines(ast.parse(path.read_text()))
        with tokenize.open(path) as source:
            for token in tokenize.generate_tokens(source.readline):
                line = token.start[0]
                if token.type != tokenize.NAME or line in imports or line in definitions.get(token.string, ()):
                    continue
                used.add(token.string)
    return used


def test_every_export_is_reached_by_a_route():
    exported = exported_names()
    # the audit reads the whole public list, not an empty one
    assert len(exported) == len(set(exported)) > 50
    reached = acceptance_imports() | names_used_in_package()
    assert [name for name in exported if name not in reached] == []
