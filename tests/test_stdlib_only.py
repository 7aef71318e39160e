"""The package is pure standard library: every absolute import names a stdlib module."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).parents[1] / "src" / "crossmaps").glob("*.py"))


def absolute_imports(tree: ast.AST) -> list[str]:
    names: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"core", "formats", "transform", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = [name for name in absolute_imports(tree) if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
