"""Source-level checks: the lattice and semigroup layers read only the
(m, r) profile, agcode leaves the pure-gap and floor bounds to weierstrass
and reads no characteristic, every search refuses over its budget through
rrlattice.check_budget alone, row reduction sits off the start-up path, every
exception class the package defines is caught, cli.main catches exactly
ConfigError and ValueError and src raises nothing else, every function in src is
named in src or demos (test_every_function_in_src_is_named_in_src_or_demos),
the CLI writes its output along one path, nothing relies on interpreter
teardown, no module imports cli, importing cli registers every other module
unrun, and a CLI job runs only the package modules its command calls."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import kummercodes

PACKAGE = Path(kummercodes.__file__).resolve().parent
DEMOS = PACKAGE.parent.parent / "demos"
FIELD_LEVEL = {"curve", "gf", "matrix", "agcode"}
CALLED_LATE = {"agcode", "commands", "verify", "weierstrass"}  # run only by jobs that call them
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def package_imports(source: str) -> set:
    """Package modules the source imports anywhere, `if TYPE_CHECKING:` blocks
    included; a name imported from the package root (`from . import ConfigError`)
    counts as __init__."""
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
            found.update(path[:1] or [alias.name if alias.name in MODULES else "__init__"
                                      for alias in node.names])
    return found


def test_package_imports_sees_every_form():
    source = "\n".join([
        "import math",
        "from typing import TYPE_CHECKING",
        "from .rrlattice import Divisor",
        "import kummercodes.gf",
        "from kummercodes import agcode",
        "from . import verify",
        "from . import ConfigError",
        "if TYPE_CHECKING:",
        "    from .curve import KummerCurve",
    ])
    assert package_imports(source) == {"rrlattice", "gf", "agcode", "verify", "curve",
                                       "__init__"}


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


def _raises(tree):
    """(innermost enclosing function or None, raise statement) for each raise in tree."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise):
                found.append((function, child))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else function)

    visit(tree, None)
    return found


def test_cli_catches_exactly_the_two_error_types_that_src_raises():
    """cli.main maps ConfigError to exit 2 and ValueError to exit 1 and catches
    nothing else, so every raise in src raises one of them or GcdViolationError,
    a ValueError.  Two kinds of raise are exempt, and main catches neither: the
    AssertionError of the dimension law that build_cl and build_comega check, an
    internal invariant, and the AttributeError of a module __getattr__, which
    attribute lookup requires."""
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    main = next(n for n in cli.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    (outer,) = [n for n in main.body if isinstance(n, ast.Try)]
    assert [_name(handler.type) for handler in outer.handlers] == ["ConfigError", "ValueError"]
    allowed = {"ConfigError", "ValueError", "GcdViolationError"}
    exempt, raised = Counter(), Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for function, node in _raises(ast.parse(path.read_text(encoding="utf-8"))):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            kind = _name(exc) if exc is not None else "bare raise"
            if kind in allowed:
                raised[kind] += 1
            else:
                exempt[path.stem, function, kind] += 1
    assert set(raised) == allowed and sum(raised.values()) > 50
    assert exempt == {("agcode", "_check_dimension", "AssertionError"): 1,
                      **{(module, "__getattr__", "AttributeError"): 1
                         for module in ("__init__", "cli", "gf")}}


def _names(*nodes):
    """(ast.Name ids and import aliases, ast.Attribute attrs) in the nodes, counted."""
    names, attributes = Counter(), Counter()
    for n in (n for node in nodes for n in ast.walk(node)):
        if isinstance(n, ast.Attribute):
            attributes[n.attr] += 1
        elif isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.alias):
            names[n.name.rpartition(".")[2]] += 1
    return names, attributes


def test_every_function_in_src_is_named_in_src_or_demos():
    """Code that only tests call is deleted.  Every top-level function and
    every method of a top-level class in src (dunders exempt) is named by some
    node of src or demos outside its own body: a function by an ast.Name, an
    ast.Attribute or an import alias, a method by an ast.Attribute alone, so
    neither `operator.sub` nor a local `log = F._log` keeps FiniteField.sub or
    .log alive.  A method is matched by its attribute name only, so a dead
    method that shares its name with a live attribute, such as the field
    GapBox.places, goes unseen: the check is a ratchet, not a proof."""
    src, demos = ([ast.parse(path.read_text(encoding="utf-8")) for path in sorted(d.glob("*.py"))]
                  for d in (PACKAGE, DEMOS))
    assert src and demos
    names, attributes = _names(*src, *demos)
    defined = []  # (qualname, name, node, whether an ast.Name may name it)
    for tree in src:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((node.name, node.name, node, True))
            elif isinstance(node, ast.ClassDef):
                defined.extend((f"{node.name}.{f.name}", f.name, f, False) for f in node.body
                               if isinstance(f, ast.FunctionDef))
    unnamed = []
    for qualname, name, node, by_name in defined:
        own_names, own_attributes = _names(node)
        uses = attributes[name] - own_attributes[name]
        if by_name:
            uses += names[name] - own_names[name]
        if not uses and not (name.startswith("__") and name.endswith("__")):
            unnamed.append(qualname)
    assert len(defined) > 100
    assert unnamed == []


def test_cli_output_goes_through_main():
    """cli's main makes the one _emit call; no other function in cli names
    print, sys.stdout or sys.stderr, and commands, where every cmd_ function
    lives, names none of them nor _emit anywhere: _emit writes, main reports."""
    trees = {name: ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
             for name in ("cli", "commands")}
    functions = {name: {node.name: node for node in tree.body
                        if isinstance(node, ast.FunctionDef)} for name, tree in trees.items()}

    def named(node):
        return {_name(n) for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}

    def emit_calls(node):
        return sum(isinstance(n, ast.Call) and _name(n.func) == "_emit" for n in ast.walk(node))

    assert emit_calls(trees["cli"]) == emit_calls(functions["cli"]["main"]) == 1
    assert sum(name.startswith("cmd_") for name in functions["commands"]) == 10
    assert not any(name.startswith("cmd_") for name in functions["cli"])
    assert not named(trees["commands"]) & {"print", "stdout", "stderr", "_emit"}
    for name, node in functions["cli"].items():
        if name not in ("main", "_emit"):
            assert not named(node) & {"print", "stdout", "stderr"}, name


def test_nothing_in_src_relies_on_interpreter_teardown():
    """cli.run ends the process by os._exit once main has flushed, so no atexit
    handler, weakref finalizer or __del__ would run: no module imports atexit
    or weakref, no class defines __del__, and only cli.run names os._exit."""
    imported, deleters, exits = set(), [], Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
            elif isinstance(node, ast.FunctionDef) and node.name == "__del__":
                deleters.append(path.stem)
        for node in tree.body:
            uses = sum(counts["_exit"] for counts in _names(node))
            if uses:
                exits[path.stem, getattr(node, "name", None)] += uses
    assert not imported & {"atexit", "weakref"} and deleters == []
    assert exits == {("cli", "run"): 1}


def test_no_module_imports_cli():
    """`python -m kummercodes.cli` runs cli as __main__: a module that imported
    kummercodes.cli would run a second cli, with a ConfigError of its own that
    main's except clause does not catch.  cli's and commands' shared names
    live in the package root."""
    imports = {path.stem: package_imports(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py"))}
    assert {"cli", "commands"} <= set(imports)
    assert [name for name, found in imports.items() if "cli" in found] == []
    assert "__init__" in imports["cli"] & imports["commands"]


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


SEARCHES = [("rrlattice", "residue_classes"), ("rrlattice", "omega_enumerate"),
            ("weierstrass", "one_point_gaps"),
            ("weierstrass", "pure_gaps"), ("weierstrass", "box_search"),
            ("agcode", "brute_force_distance")]


def test_every_search_refuses_over_budget_through_check_budget():
    """Exactly one raise in src builds an `exceed budget` message, the one in
    rrlattice.check_budget, and each of the six searches calls that helper."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    sites = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and node.exc is not None
             and any(isinstance(sub, ast.Constant) and "exceed budget" in str(sub.value)
                     for sub in ast.walk(node.exc))]
    functions = {(module, node.name): node for module, tree in trees.items()
                 for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert len(sites) == 1
    assert any(node is sites[0] for node in ast.walk(functions["rrlattice", "check_budget"]))
    for search in SEARCHES:
        assert "check_budget" in {_name(node.func) for node in ast.walk(functions[search])
                                  if isinstance(node, ast.Call)}, search


def test_rrlattice_imports_nothing_from_the_package():
    assert package_imports((PACKAGE / "rrlattice.py").read_text(encoding="utf-8")) == set()


def test_matrix_imports_only_gf_from_the_package():
    assert package_imports((PACKAGE / "matrix.py").read_text(encoding="utf-8")) == {"gf"}


def test_only_agcode_imports_matrix():
    """cli, the modules every config job runs (commands, curve, gf, rrlattice)
    and verify name no matrix, so only a command that reduces a matrix
    compiles it; gf's lazy hook is checked below."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem not in ("agcode", "gf", "matrix"):
            assert "matrix" not in package_imports(path.read_text(encoding="utf-8")), path.stem


def test_matrix_adds_no_entry_by_the_field():
    """rref is one packed loop for every p: matrix names neither an addition
    table of the field nor its scalar add, so no per-entry path can return
    beside the packed one."""
    tree = ast.parse((PACKAGE / "matrix.py").read_text(encoding="utf-8"))
    attributes = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert not {"_add_table", "add"} & attributes and "_add_table" not in names


def test_gf_imports_the_package_only_inside_its_getattr():
    """gf is the field alone: its one package import is the lazy `matrix`
    inside its module __getattr__, which runs only when gf is asked for
    Matrix."""
    tree = ast.parse((PACKAGE / "gf.py").read_text(encoding="utf-8"))
    hook = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "__getattr__"]

    def imports_of_the_package(node):
        return [n for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))
                and package_imports(ast.unparse(n))]

    assert len(hook) == 1
    assert imports_of_the_package(tree) == imports_of_the_package(hook[0])
    assert package_imports(ast.unparse(hook[0])) == {"matrix"}


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    """The value classes are NamedTuples, packed rows are struct cells,
    row reduction is the lazy matrix module's, the command line is parsed
    by hand and only load_config imports configparser, so a fresh
    interpreter (without site, whose .pth files vary by install) imports
    none of dataclasses, inspect, array, struct, argparse, getopt, gettext,
    locale and configparser."""
    code = ("import sys, kummercodes.cli; print(sorted({'dataclasses', 'inspect', 'array', "
            "'struct', '_struct', 'argparse', 'getopt', 'gettext', 'locale', 'configparser'} "
            "& set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), check=True)
    assert proc.stdout.strip() == "[]"


def _imported_from(node: ast.ImportFrom):
    """The package module whose names the `from ... import` binds; None when
    it binds modules (`from . import agcode`) or imports from outside."""
    parts = (node.module or "").split(".")
    if not node.level:
        if parts[0] != "kummercodes":
            return None
        parts = parts[1:]
    return parts[0] if parts and parts[0] else None


def test_cli_and_verify_import_late_modules_only_as_modules():
    """cli calls commands and verify, and commands and verify call agcode and
    weierstrass, through the module (`agcode.build_cl(...)`), so a lazy
    module runs only when a call reaches it; verify's EXAMPLES table, built of
    GapBox and PlaceTuple at import, is the one exception.  cli imports no
    other module of the package, so importing it runs cli alone."""
    allowed = {("verify", "weierstrass"): {"GapBox", "PlaceTuple"}}
    late = {"cli": {"commands", "verify"}, "commands": {"agcode", "weierstrass"},
            "verify": {"agcode", "weierstrass"}}
    bound = {}
    for name, called in late.items():
        source = (PACKAGE / f"{name}.py").read_text(encoding="utf-8")
        assert package_imports(source) & CALLED_LATE == called, name
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and _imported_from(node) in CALLED_LATE:
                bound.setdefault((name, _imported_from(node)), set()).update(
                    alias.name for alias in node.names)
    assert bound == allowed
    assert package_imports((PACKAGE / "cli.py").read_text(encoding="utf-8")) == {
        "__init__", "commands", "verify"}


RAN_MODULES = """
import sys, types
import kummercodes.cli

def ran():
    # A lazy module that has not run is still a _LazyModule; type() reads no attribute.
    return sorted(name.split(".", 1)[1] for name, module in sys.modules.items()
                  if name.startswith("kummercodes.") and type(module) is types.ModuleType)

before = ran()
code = kummercodes.cli.main(sys.argv[1:])
print(code, ",".join(before), ",".join(ran()), file=sys.stderr)
"""

TINY_JOB = """
[field]
p = 2
e = 2
modulus = 1,1,1

[curve]
m = 3
lambda = 1
f = 0,1,1

[job]
divisor = 0,0,3
places = P1,P2
bound = 6
code = l
"""


CONFIG_JOB = {"commands", "curve", "gf", "rrlattice"}  # run by every config command


@pytest.mark.parametrize("command,extra", [
    ("places", CONFIG_JOB),
    ("box-search", CONFIG_JOB | {"weierstrass"}),
    ("check-distance", CONFIG_JOB | {"agcode", "matrix"}),
    ("verify-example 3", {"verify", "weierstrass", "curve", "gf", "rrlattice"}),
    ("--help", set()),
])
def test_a_job_runs_only_the_modules_its_command_calls(tmp_path, command, extra):
    """`import kummercodes.cli` runs cli alone; each job adds only the
    modules it calls: a config command runs commands, curve, gf and
    rrlattice, and only check-distance, which reduces its generator matrix,
    runs matrix; verify-example 3 runs what verify calls before the curve is
    rejected, without commands, and --help runs nothing more (fresh
    interpreter without site)."""
    config = tmp_path / "job.ini"
    config.write_text(TINY_JOB)
    argv = command.split()
    if not command.startswith(("verify-example", "--")):
        argv += ["--config", str(config)]
    proc = subprocess.run([sys.executable, "-S", "-c", RAN_MODULES, *argv],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    code, before, after = proc.stderr.splitlines()[-1].split()
    status = "1" if command == "verify-example 3" else "0"
    assert (code, before, set(after.split(","))) == (status, "cli", {"cli"} | extra)


REGISTERED = """
import sys, types, kummercodes.cli
print(sorted((name.split(".", 1)[1], type(module) is types.ModuleType)
             for name, module in sys.modules.items() if name.startswith("kummercodes.")))
"""


def test_import_of_cli_registers_every_module_unrun():
    """perfbench/traced_job.py finds the layers it wraps in sys.modules right
    after `import kummercodes.cli`, so the package root must register every
    module but cli there, as a lazy module that has not run (fresh
    interpreter without site)."""
    proc = subprocess.run([sys.executable, "-S", "-c", REGISTERED], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    expected = [(name, name == "cli") for name in sorted(MODULES - {"__init__"})]
    assert proc.stdout.strip() == repr(expected)


LOADS_CONFIGPARSER = """
import contextlib, io, sys, types, kummercodes.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = kummercodes.cli.main(sys.argv[1:])
print(type(sys.modules["kummercodes.commands"]) is types.ModuleType, file=sys.stderr)
print(code, "configparser" in sys.modules, file=sys.stderr)
"""


@pytest.mark.parametrize("command,expected", [(["verify-example", "3"], "1 False"),
                                              (["curve-info", "--config", "JOB"], "0 True"),
                                              (["--help"], "0 False")])
def test_only_a_job_that_reads_a_config_loads_configparser(tmp_path, command, expected):
    """configparser is loaded, and the commands module run, by the jobs that
    read a config and by no other: neither by verify-example nor by --help."""
    config = tmp_path / "job.ini"
    config.write_text(TINY_JOB)
    argv = [str(config) if arg == "JOB" else arg for arg in command]
    proc = subprocess.run([sys.executable, "-S", "-c", LOADS_CONFIGPARSER, *argv],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    ran_commands, last = proc.stderr.splitlines()[-2:]
    assert (ran_commands, last) == (expected.split()[1], expected)


# The package's exports at the time its submodules became lazy, by home module
# (Matrix moved from gf to matrix later).
EXPORTS = {
    "gf": ["FiniteField"],
    "matrix": ["Matrix"],
    "curve": ["KummerCurve", "Place", "find_roots"],
    "rrlattice": ["Divisor", "LatticePoint", "RamificationData", "dimension", "omega_enumerate",
                  "monomial_divisor"],
    "weierstrass": ["PlaceTuple", "GapBox", "semigroup_member", "pure_gap", "pure_gaps",
                    "one_point_gaps", "box_search", "floor_divisor", "pure_gap_box_bound",
                    "floor_pair_bound"],
    "agcode": ["LinearCode", "build_cl", "build_comega", "brute_force_distance",
               "evaluation_places"],
}


def test_package_exports_resolve_to_their_home_objects():
    assert sorted(kummercodes.__all__) == sorted(sum(EXPORTS.values(), []))
    assert len(kummercodes.__all__) == 26
    star = {}
    exec("from kummercodes import *", star)
    for home, names in EXPORTS.items():
        module = importlib.import_module(f"kummercodes.{home}")
        for name in names:
            assert getattr(kummercodes, name) is getattr(module, name) is star[name], name
    from kummercodes import FiniteField
    assert FiniteField is importlib.import_module("kummercodes.gf").FiniteField
    with pytest.raises(AttributeError, match="no_such_name"):
        kummercodes.no_such_name
