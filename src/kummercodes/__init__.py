"""Multi-point algebraic-geometric codes over Kummer extensions y^m = f(x)^lambda.

The submodules are lazy (importlib.util.LazyLoader): each runs on the first
access to one of its attributes, so a CLI job runs only the modules its
command calls.  The exports below resolve through their home modules.
ConfigError and _int live here, for cli, commands and config to share: under
`python -m kummercodes.cli` the running cli is __main__, and a module that
imported kummercodes.cli would run a second cli with its own ConfigError.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

# export -> home module
_EXPORTS = {
    "FiniteField": "gf", "Matrix": "matrix", "KummerCurve": "curve", "Place": "curve",
    "find_roots": "curve", "Divisor": "rrlattice", "LatticePoint": "rrlattice",
    "RamificationData": "rrlattice", "dimension": "rrlattice",
    "omega_enumerate": "rrlattice", "monomial_divisor": "rrlattice",
    "PlaceTuple": "weierstrass", "GapBox": "weierstrass", "semigroup_member": "weierstrass",
    "pure_gap": "weierstrass", "pure_gaps": "weierstrass", "one_point_gaps": "weierstrass",
    "box_search": "weierstrass", "floor_divisor": "weierstrass",
    "pure_gap_box_bound": "weierstrass", "floor_pair_bound": "weierstrass",
    "LinearCode": "agcode", "build_cl": "agcode", "build_comega": "agcode",
    "brute_force_distance": "agcode", "evaluation_places": "agcode",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


class ConfigError(ValueError):
    pass


def _int(text: str, where: str = "") -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"{where}not an integer: {text.strip()!r}") from exc


def _lazy(name: str):
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# Every module but cli, which `python -m kummercodes.cli` runs as __main__.
agcode, commands, config, curve, gf, matrix, rrlattice, verify, weierstrass = map(_lazy, (
    "agcode", "commands", "config", "curve", "gf", "matrix", "rrlattice", "verify",
    "weierstrass"))


def __getattr__(name: str):
    home = _EXPORTS.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[home], name)
