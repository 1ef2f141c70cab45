#!/usr/bin/env python3
"""Count code lines: non-blank, non-comment, non-docstring.

This is the "ast+tokenize" count the CHANGES log reports for every
refactor PR, as one command so the number is reproducible::

    python3 tools/code_lines.py src               # total + per-package
    python3 tools/code_lines.py src/repro/protocols   # total + per-file

A line counts when it carries at least one token that is not a comment
or layout (``tokenize``), unless it belongs to a docstring -- the
leading string-expression statement of a module, class or function
(``ast``).  Standard library only.
"""

from __future__ import annotations

import ast
import io
import os
import pathlib
import sys
import tokenize
from typing import Dict, Set

_LAYOUT = frozenset((
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
))


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Code lines of one module's source text."""
    code: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def count_tree(root: pathlib.Path) -> Dict[pathlib.Path, int]:
    """Code lines of every ``*.py`` under ``root`` (or of ``root``
    itself), keyed by path."""
    paths = [root] if root.is_file() else sorted(root.rglob("*.py"))
    return {path: count_code_lines(path.read_text()) for path in paths}


def main(argv) -> int:
    for arg in argv or ["src"]:
        root = pathlib.Path(arg)
        counts = count_tree(root)
        print(f"{sum(counts.values()):7d}  {root}")
        packages: Dict[pathlib.Path, int] = {}
        for path, lines in counts.items():
            package = path.parent
            packages[package] = packages.get(package, 0) + lines
        # A tree of packages lists its packages, one package its files.
        breakdown = packages if len(packages) > 1 else counts
        if root.is_dir():
            for path in sorted(breakdown):
                print(f"{breakdown[path]:7d}    {path}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BrokenPipeError:
        # The reader stopped early (``| head -1``): it has what it wanted.
        # Point stdout at devnull so the exit-time flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
