"""Source-level checks: the lattice and semigroup layers read only the
(m, r) profile, agcode leaves the pure-gap and floor bounds to weierstrass
and reads no characteristic, every exception class the package defines is
caught, and the CLI writes its output along one path."""

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


def _name(node) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def test_every_exception_class_is_caught_in_src():
    """A class whose base ends in Error or Exception is named in some except
    clause, alone or in a tuple: uncaught types are plain ValueError instead."""
    defined, caught = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                if any(_name(base).endswith(("Error", "Exception")) for base in node.bases):
                    defined.add(node.name)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(_name(t) for t in types)
    assert {"ConfigError", "GcdViolationError"} <= defined <= caught


def test_cli_output_goes_through_main():
    """main makes the one _emit call, and no other function in cli (no command
    above all) names print, sys.stdout or sys.stderr: _emit writes, main reports."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def emit_calls(node):
        return sum(isinstance(n, ast.Call) and _name(n.func) == "_emit" for n in ast.walk(node))

    assert emit_calls(tree) == emit_calls(functions["main"]) == 1
    assert any(name.startswith("cmd_") for name in functions)
    for name, node in functions.items():
        if name not in ("main", "_emit"):
            named = {_name(n) for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}
            assert not named & {"print", "stdout", "stderr"}, name


def test_weierstrass_imports_no_field_level_module():
    source = (PACKAGE / "weierstrass.py").read_text(encoding="utf-8")
    assert package_imports(source) & FIELD_LEVEL == set()


def test_agcode_imports_nothing_from_weierstrass():
    """Every designed-distance formula past Goppa's lives in the profile layer."""
    source = (PACKAGE / "agcode.py").read_text(encoding="utf-8")
    assert "weierstrass" not in package_imports(source)


def test_agcode_reads_no_characteristic():
    """The exact-distance search is one kernel for every p: agcode reads no
    `.p` attribute, so nothing in it branches on the characteristic."""
    tree = ast.parse((PACKAGE / "agcode.py").read_text(encoding="utf-8"))
    assert not [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "p"]


def test_ceil_div_is_named_only_in_member_conditions():
    """_member_conditions is the one closed form of membership: no other
    code in weierstrass may call (or alias) ceil_div to copy the formula."""
    tree = ast.parse((PACKAGE / "weierstrass.py").read_text(encoding="utf-8"))

    def uses(node):
        return sum(_name(n) == "ceil_div" for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))

    member = [n for n in ast.walk(tree)
              if isinstance(n, ast.FunctionDef) and n.name == "_member_conditions"]
    assert len(member) == 1
    assert uses(tree) == uses(member[0]) > 0


def test_rrlattice_imports_nothing_from_the_package():
    assert package_imports((PACKAGE / "rrlattice.py").read_text(encoding="utf-8")) == set()


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    """The value classes are NamedTuples, so a fresh interpreter (without
    site, whose .pth files vary by install) imports neither module."""
    code = "import sys, kummercodes.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), check=True)
    assert proc.stdout.strip() == "[]"
