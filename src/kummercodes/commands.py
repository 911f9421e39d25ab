"""The ten commands that run on a job config.

The subcommand picks the command, which maps the curve of the config that
`config` reads and the job's values to its output lines and notes.  All
output is plain UTF-8 text or CSV with no timestamps, so identical configs
produce byte-identical output.  cli parses the command line, writes the
output and picks the exit code; this module never imports cli (see
ConfigError in the package root).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Optional, Sequence, Tuple

from . import ConfigError, agcode, config, weierstrass  # lazy: each runs when a command calls it
from .curve import KummerCurve
from .rrlattice import Divisor, check_budget, dimension, monomial_divisor, omega_enumerate

Output = Tuple[Iterable[str], Sequence[str]]  # (lines of the output, notes on it)


def parse_divisor(curve: KummerCurve, text: Optional[str]) -> Divisor:
    if text is None:
        raise ConfigError("this command needs divisor=s1,...,sr,t in [job]")
    coeffs = config._ints(text)
    if len(coeffs) != curve.r + 1:
        raise ConfigError(
            f"divisor needs {curve.r + 1} coefficients (s1..s{curve.r}, t), got {len(coeffs)}")
    return Divisor(tuple(coeffs[:-1]), coeffs[-1])


def parse_places(curve: KummerCurve, text: Optional[str]) -> weierstrass.PlaceTuple:
    if text is None:
        raise ConfigError("this command needs places=P1,...,Pl[,Pinf] in [job]")
    names = [tok.strip() for tok in text.split(",")]
    if not any(names):
        raise ConfigError("places= names no place")
    if "" in names:  # before the position check: in `Pinf,` P_inf is the last place named
        raise ConfigError("places must be P1,P2,...,Pl[,Pinf]; got ''")
    include_inf, l = False, 0
    for idx, name in enumerate(names):
        if name.lower() in ("pinf", "infinity"):
            if idx != len(names) - 1:
                raise ConfigError("Pinf must come last in places=")
            include_inf = True
        elif name.upper() == f"P{idx + 1}":
            l += 1
        else:
            raise ConfigError(f"places must be P1,P2,...,Pl[,Pinf]; got {name!r}")
    if l > curve.r:
        raise ConfigError(f"places= names {l} finite places, curve has r={curve.r}")
    return weierstrass.PlaceTuple(l, include_inf)


def cmd_curve_info(curve: KummerCurve, job: config.Job) -> Output:
    values = [("m", curve.m), ("lambda", curve.lam), ("r", curve.r), ("genus", curve.g),
              ("places", curve.num_places()), ("A", curve.A), ("B", curve.B),
              ("a", curve.a), ("b", curve.b)]
    return [f"{name} {value}\n" for name, value in values], ()


def cmd_places(curve: KummerCurve, job: config.Job) -> Output:
    """P_inf and P_1..P_r, as iter_places orders them, then one chunk of lines
    per x-fibre of affine points.  fibres() yields one tuple per coset of ys, so
    each coset's "y\n" texts are made once and each fibre is one join."""
    def fibres():
        texts = {}
        for x0, ys in curve.fibres():
            ends = texts.get(ys)
            if ends is None:
                ends = texts[ys] = [f"{y}\n" for y in ys]
            prefix = f"affine,0,{x0},"
            yield prefix + prefix.join(ends)

    ramified = map("ramified,{},0,0\n".format, range(1, curve.r + 1))
    return chain(["kind,mu,x,y\ninfinity,0,0,0\n"], ramified, fibres()), ()


def cmd_rr_basis(curve: KummerCurve, job: config.Job) -> Output:
    G = parse_divisor(curve, job("divisor"))
    return [f"{' '.join(map(str, (pt.i,) + pt.j))} | {-monomial_divisor(curve, pt)}\n"
            for pt in omega_enumerate(curve, G)], ()


def cmd_dim(curve: KummerCurve, job: config.Job) -> Output:
    return [f"{dimension(curve, parse_divisor(curve, job('divisor')))}\n"], ()


def cmd_semigroup(curve: KummerCurve, job: config.Job) -> Output:
    places = parse_places(curve, job("places"))
    text = job("coords")
    if text is None:
        raise ConfigError("this command needs coords=c1,...,ck in [job]")
    coords = config._ints(text)
    if len(coords) != places.arity():
        raise ConfigError(f"coords= needs one value per place in places= "
                          f"({places.arity()}), got {len(coords)}")
    return ["true\n" if weierstrass.semigroup_member(curve, places, coords) else "false\n"], ()


def _search(curve: KummerCurve, job: config.Job,
            command: str) -> Tuple[weierstrass.PlaceTuple, int, int]:
    places = parse_places(curve, job("places"))
    bound = config._number(job, "bound", None)
    if bound is None:
        raise ConfigError(f"{command} needs --bound or bound= in [job]")
    if bound < 1:
        raise ConfigError(f"bound must be >= 1, got {bound}")
    return places, bound, config._budget(job)


def cmd_pure_gaps(curve: KummerCurve, job: config.Job) -> Output:
    gaps = weierstrass.pure_gaps(curve, *_search(curve, job, "pure-gaps"))
    return [",".join(map(str, pt)) + "\n" for pt in gaps], ()


def cmd_box_search(curve: KummerCurve, job: config.Job) -> Output:
    result = weierstrass.box_search(curve, *_search(curve, job, "box-search"))
    if result is None:
        return ["no pure gaps\n"], ()
    box, G = result
    return [f"base {' '.join(map(str, box.base))}\n",
            f"widths {' '.join(map(str, box.widths))}\n",
            f"G {G}\n",
            f"bound {weierstrass.pure_gap_box_bound(curve, box)}\n"], ()


def cmd_floor(curve: KummerCurve, job: config.Job) -> Output:
    return [f"{weierstrass.floor_divisor(curve, parse_divisor(curve, job('divisor')))}\n"], ()


def _build_code(curve: KummerCurve, job: config.Job, budget: Optional[int] = None):
    """The code the job names and its evaluation-set selection.  The set is counted,
    not listed, for every check before the build: n's range, code=, and, given a
    distance search's budget, its q^k - 1 words where dimension_law fixes k, with
    brute_force_distance's message; then evaluation_places refuses its own
    listing over budget before it makes a place."""
    G = parse_divisor(curve, job("divisor"))
    n, seed = config._number(job, "n", None), config._number(job, "seed", None)
    if seed is not None and n is None:
        raise ConfigError("seed selects n places and needs n= in [job]")
    size = agcode.evaluation_size(curve, G, n)
    kind = (job("code") or "omega").lower()
    build = {"l": agcode.build_cl, "omega": agcode.build_comega}.get(kind)
    if build is None:
        raise ConfigError(f"code= must be 'l' or 'omega', got {kind!r}")
    k = None if budget is None else agcode.dimension_law(curve, G, size, kind == "omega")
    if k is not None:
        q = curve.field.q
        check_budget(q ** k - 1, "codewords", budget, shown=f"{q}^{k} - 1")
    code = build(curve, G, agcode.evaluation_places(curve, G, n=n, seed=seed))
    selection = "all" if n is None else ("drop-highest" if seed is None else f"seed={seed}")
    return code, selection


def cmd_build_code(curve: KummerCurve, job: config.Job) -> Output:
    code, selection = _build_code(curve, job)
    return code.export(), [f"selection {selection} n={code.n}\n",
                           *(f"bound {name} {value}\n" for name, value in code.bounds)]


def cmd_check_distance(curve: KummerCurve, job: config.Job) -> Output:
    budget = config._budget(job)
    d = agcode.brute_force_distance(_build_code(curve, job, budget)[0], budget)
    return [("undefined" if d is None else str(d)) + "\n"], ()


COMMANDS = {
    "curve-info": cmd_curve_info,
    "places": cmd_places,
    "rr-basis": cmd_rr_basis,
    "dim": cmd_dim,
    "semigroup": cmd_semigroup,
    "pure-gaps": cmd_pure_gaps,
    "box-search": cmd_box_search,
    "floor": cmd_floor,
    "build-code": cmd_build_code,
    "check-distance": cmd_check_distance,
}


def run_job(args: Dict[str, object]) -> Output:
    """The output of the command args["command"] on the config file args["config"]."""
    sections = config.load_config(args["config"])
    return COMMANDS[args["command"]](config.build_curve(sections),
                                     config.job_reader(args, sections))
