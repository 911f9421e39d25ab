"""The lattice and semigroup layers read only the (m, r) profile."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kummercodes

PACKAGE = Path(kummercodes.__file__).resolve().parent
FIELD_LEVEL = {"curve", "gf", "agcode"}


def package_imports(source: str) -> set:
    """Package modules the source imports anywhere, `if TYPE_CHECKING:` blocks included."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("kummercodes."))
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                path = node.module.split(".") if node.module else []
            elif node.module and node.module.split(".")[0] == "kummercodes":
                path = node.module.split(".")[1:]
            else:
                continue
            found.update(path[:1] or [alias.name for alias in node.names])
    return found


def test_package_imports_sees_every_form():
    source = "\n".join([
        "import math",
        "from typing import TYPE_CHECKING",
        "from .rrlattice import Divisor",
        "import kummercodes.gf",
        "from kummercodes import agcode",
        "from . import verify",
        "if TYPE_CHECKING:",
        "    from .curve import KummerCurve",
    ])
    assert package_imports(source) == {"rrlattice", "gf", "agcode", "verify", "curve"}


def test_weierstrass_imports_no_field_level_module():
    source = (PACKAGE / "weierstrass.py").read_text(encoding="utf-8")
    assert package_imports(source) & FIELD_LEVEL == set()


def test_rrlattice_imports_nothing_from_the_package():
    assert package_imports((PACKAGE / "rrlattice.py").read_text(encoding="utf-8")) == set()


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    """The value classes are NamedTuples, so a fresh interpreter (without
    site, whose .pth files vary by install) imports neither module."""
    code = "import sys, kummercodes.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), check=True)
    assert proc.stdout.strip() == "[]"
