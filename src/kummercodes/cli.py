"""Command-line front end.

A job is described by a flat INI config with [field], [curve] and [job]
sections; the subcommand picks the operation, which returns its output
lines for `main` to write and to end with an exit code.  All output is
plain UTF-8 text or CSV with no timestamps, so identical configs produce
byte-identical output.
"""

from __future__ import annotations

import os
import sys
from itertools import chain
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import agcode, verify, weierstrass  # lazy: each runs when a command first calls it
from .curve import KummerCurve, find_roots
from .gf import FiniteField
from .rrlattice import DEFAULT_BUDGET, Divisor, dimension, monomial_divisor, omega_enumerate


class ConfigError(ValueError):
    pass


def _int(text: str, where: str = "") -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"{where}not an integer: {text.strip()!r}") from exc


def _ints(text: str) -> List[int]:
    text = text.strip()
    if not text:
        return []
    return [_int(tok) for tok in text.split(",")]


Config = Dict[str, Dict[str, str]]  # section -> key -> value


def load_config(path: str) -> Config:
    """The sections of the INI file as plain dicts, [DEFAULT] keys merged in and
    every value interpolated here, so a malformed file or value is refused at
    load.  Only the jobs that read a config import configparser."""
    from configparser import ConfigParser, Error
    cp = ConfigParser()
    try:
        if not cp.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config file {path}")
        return {name: dict(cp.items(name)) for name in cp.sections()}
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from exc
    except Error as exc:  # its messages span lines; a config error is one line
        raise ConfigError(" ".join(line.strip() for line in str(exc).splitlines())) from exc


def build_field(config: Config) -> FiniteField:
    if "field" not in config:
        raise ConfigError("missing [field] section")
    sec = config["field"]
    try:
        p, e, modulus = _int(sec["p"]), _int(sec["e"]), _ints(sec["modulus"])
    except KeyError as exc:
        raise ConfigError(f"[field] missing key {exc}") from exc
    return FiniteField(p, e, modulus)


def build_curve(config: Config) -> KummerCurve:
    field = build_field(config)
    if "curve" not in config:
        raise ConfigError("missing [curve] section")
    sec = config["curve"]
    try:
        m = _int(sec["m"])
        lam = _int(sec["lambda"])
    except KeyError as exc:
        raise ConfigError(f"[curve] missing key {exc}") from exc
    if "roots" in sec and "f" in sec:
        raise ConfigError("[curve] takes roots= or f=, not both")
    if "roots" in sec:
        roots: Sequence[int] = _ints(sec["roots"])
    elif "f" in sec:
        roots = find_roots(field, _ints(sec["f"]))
    else:
        raise ConfigError("[curve] needs either roots= or f=")
    return KummerCurve(field, m, lam, roots)


Job = Callable[[str], Optional[str]]
Output = Tuple[Iterable[str], Sequence[str]]  # (lines of the output, notes on it)


def job_reader(args: Dict[str, object], config: Config) -> Job:
    """The job's values: --key when given (0 included), else key= from [job], else None."""
    section = config.get("job", {})

    def read(key: str) -> Optional[str]:
        flag = args.get(key)
        return section.get(key) if flag is None else str(flag)
    return read


def _number(job: Job, key: str, default: Optional[int]) -> Optional[int]:
    text = job(key)
    return _int(text) if text else default  # an empty key= means the default


def _budget(job: Job) -> int:
    budget = _number(job, "budget", DEFAULT_BUDGET)
    if budget < 0:
        raise ConfigError(f"budget must be >= 0, got {budget}")
    return budget


def parse_divisor(curve: KummerCurve, text: Optional[str]) -> Divisor:
    if text is None:
        raise ConfigError("this command needs divisor=s1,...,sr,t in [job]")
    coeffs = _ints(text)
    if len(coeffs) != curve.r + 1:
        raise ConfigError(
            f"divisor needs {curve.r + 1} coefficients (s1..s{curve.r}, t), got {len(coeffs)}")
    return Divisor(tuple(coeffs[:-1]), coeffs[-1])


def parse_places(curve: KummerCurve, text: Optional[str]) -> weierstrass.PlaceTuple:
    if text is None:
        raise ConfigError("this command needs places=P1,...,Pl[,Pinf] in [job]")
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
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
    if not names:
        raise ConfigError("places= names no place")
    if l > curve.r:
        raise ConfigError(f"places= names {l} finite places, curve has r={curve.r}")
    return weierstrass.PlaceTuple(l, include_inf)


def _emit(out: Optional[str], lines: Iterable[str], notes: Sequence[str]) -> None:
    """Write the lines, as they come, to the file out or to stdout, about 64 KiB at
    a time (unbuffered stdout makes a system call of each write); then the notes,
    to stdout after a file and to stderr otherwise.  Every check that can refuse
    the job runs first, so a refused job writes nothing."""
    def write(fh, chunks: Iterable[str]) -> None:
        batch, size = [], 0
        for chunk in chunks:
            batch.append(chunk)
            size += len(chunk)
            if size >= 1 << 16:
                fh.write("".join(batch))
                batch, size = [], 0
        fh.write("".join(batch))

    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                write(fh, lines)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc.strerror or exc}") from exc
    try:
        write(sys.stdout, notes if out else lines)
        sys.stdout.flush()
    except OSError as exc:  # a closed pipe or a full disk
        raise ConfigError(f"cannot write stdout: {exc.strerror or exc}") from exc
    if not out:
        sys.stderr.write("".join(notes))


def cmd_curve_info(curve: KummerCurve, job: Job) -> Output:
    values = [("m", curve.m), ("lambda", curve.lam), ("r", curve.r), ("genus", curve.g),
              ("places", curve.num_places()), ("A", curve.A), ("B", curve.B),
              ("a", curve.a), ("b", curve.b)]
    return [f"{name} {value}\n" for name, value in values], ()


def cmd_places(curve: KummerCurve, job: Job) -> Output:
    """P_inf and P_1..P_r, as iter_places orders them, then one chunk of lines
    per x-fibre of affine points."""
    ends = [f"{v}\n" for v in range(curve.field.q)]
    ramified = map("ramified,{},0,0\n".format, range(1, curve.r + 1))
    fibres = ("".join(map(f"affine,0,{x0},".__add__, map(ends.__getitem__, ys)))
              for x0, ys in curve.fibres())
    return chain(["kind,mu,x,y\ninfinity,0,0,0\n"], ramified, fibres), ()


def cmd_rr_basis(curve: KummerCurve, job: Job) -> Output:
    G = parse_divisor(curve, job("divisor"))
    return [f"{' '.join(map(str, (pt.i,) + pt.j))} | {-monomial_divisor(curve, pt)}\n"
            for pt in omega_enumerate(curve, G)], ()


def cmd_dim(curve: KummerCurve, job: Job) -> Output:
    return [f"{dimension(curve, parse_divisor(curve, job('divisor')))}\n"], ()


def cmd_semigroup(curve: KummerCurve, job: Job) -> Output:
    places = parse_places(curve, job("places"))
    text = job("coords")
    if text is None:
        raise ConfigError("this command needs coords=c1,...,ck in [job]")
    coords = _ints(text)
    if len(coords) != places.arity():
        raise ConfigError(f"coords= needs one value per place in places= "
                          f"({places.arity()}), got {len(coords)}")
    return ["true\n" if weierstrass.semigroup_member(curve, places, coords) else "false\n"], ()


def _search(curve: KummerCurve, job: Job,
            command: str) -> Tuple[weierstrass.PlaceTuple, int, int]:
    places = parse_places(curve, job("places"))
    bound = _number(job, "bound", None)
    if bound is None:
        raise ConfigError(f"{command} needs --bound or bound= in [job]")
    if bound < 1:
        raise ConfigError(f"bound must be >= 1, got {bound}")
    return places, bound, _budget(job)


def cmd_pure_gaps(curve: KummerCurve, job: Job) -> Output:
    gaps = weierstrass.pure_gaps(curve, *_search(curve, job, "pure-gaps"))
    return [",".join(map(str, pt)) + "\n" for pt in gaps], ()


def cmd_box_search(curve: KummerCurve, job: Job) -> Output:
    result = weierstrass.box_search(curve, *_search(curve, job, "box-search"))
    if result is None:
        return ["no pure gaps\n"], ()
    box, G = result
    return [f"base {' '.join(map(str, box.base))}\n",
            f"widths {' '.join(map(str, box.widths))}\n",
            f"G {G}\n",
            f"bound {weierstrass.pure_gap_box_bound(curve, box)}\n"], ()


def cmd_floor(curve: KummerCurve, job: Job) -> Output:
    return [f"{weierstrass.floor_divisor(curve, parse_divisor(curve, job('divisor')))}\n"], ()


def _build_code(curve: KummerCurve, job: Job):
    G = parse_divisor(curve, job("divisor"))
    n, seed = _number(job, "n", None), _number(job, "seed", None)
    if seed is not None and n is None:
        raise ConfigError("seed selects n places and needs n= in [job]")
    D = agcode.evaluation_places(curve, G, n=n, seed=seed)
    kind = (job("code") or "omega").lower()
    build = {"l": agcode.build_cl, "omega": agcode.build_comega}.get(kind)
    if build is None:
        raise ConfigError(f"code= must be 'l' or 'omega', got {kind!r}")
    code = build(curve, G, D)
    selection = "all" if n is None else ("drop-highest" if seed is None else f"seed={seed}")
    return code, selection


def cmd_build_code(curve: KummerCurve, job: Job) -> Output:
    code, selection = _build_code(curve, job)
    return code.export(), [f"selection {selection} n={code.n}\n",
                           *(f"bound {name} {value}\n" for name, value in code.bounds)]


def cmd_check_distance(curve: KummerCurve, job: Job) -> Output:
    budget = _budget(job)
    d = agcode.brute_force_distance(_build_code(curve, job)[0], budget)
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


# min-max of verify.EXAMPLES, written out so that parsing does not run verify
EXAMPLE_RANGE = "1-4"
FLAGS = ("config", "out", "budget", "seed", "bound")  # each takes one value
INT_FLAGS = ("budget", "seed", "bound")
_CHOICES = ", ".join(sorted(COMMANDS) + ["verify-example"])

HELP = f"""\
usage: kummer-codes [-h] [--config CONFIG] [--out OUT] [--budget BUDGET]
                    [--seed SEED] [--bound BOUND]
                    {{box-search,build-code,check-distance,curve-info,dim,floor,places,pure-gaps,rr-basis,semigroup,verify-example}}
                    [example]

Multi-point algebraic-geometric codes over Kummer extensions

positional arguments:
  {{box-search,build-code,check-distance,curve-info,dim,floor,places,pure-gaps,rr-basis,semigroup,verify-example}}
  example               example number for verify-example ({EXAMPLE_RANGE})

options:
  -h, --help            show this help message and exit
  --config CONFIG       path to the job config file
  --out OUT             write primary output to this file
  --budget BUDGET       work budget for exhaustive searches
  --seed SEED           seed for evaluation-place selection
  --bound BOUND         coordinate bound for gap searches
"""


def _is_option(arg: str) -> bool:
    return arg.startswith("-") and arg != "-" and not arg[1:].isdigit()


def parse_args(argv: Sequence[str]) -> Optional[Dict[str, object]]:
    """COMMAND [N] with --flag VALUE or --flag=VALUE anywhere, read left to right
    into {"command", "example", flag: value}; None at -h or --help.  Flag names
    are exact, and N and the integer flags are integers here."""
    args: Dict[str, object] = {}
    rest = iter(argv)
    for arg in rest:
        if arg in ("-h", "--help"):
            return None
        if _is_option(arg):
            name, eq, value = arg.partition("=")
            if not name.startswith("--") or name[2:] not in FLAGS:
                raise ConfigError(f"unrecognized option {arg!r}")
            if not eq:
                value = next(rest, None)
                if value is None or _is_option(value):
                    raise ConfigError(f"argument {name}: expected one value")
            args[name[2:]] = _int(value, f"argument {name}: ") if name[2:] in INT_FLAGS else value
        elif "command" not in args:
            if arg not in COMMANDS and arg != "verify-example":
                raise ConfigError(f"invalid command {arg!r} (choose from {_CHOICES})")
            args["command"] = arg
        elif "example" not in args:
            args["example"] = _int(arg, "argument example: ")
        else:
            raise ConfigError(f"unrecognized argument {arg!r}")
    if "command" not in args:
        raise ConfigError(f"missing command (choose from {_CHOICES})")
    args.setdefault("example", None)
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line and return its exit code, with both streams
    flushed; after a failed write to stdout its leftovers may stay in the
    buffer, for `run` to drop."""
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            args, ok, output = {}, True, ([HELP], ())
        elif args["command"] == "verify-example":
            if args["example"] not in verify.EXAMPLES:
                raise ConfigError(f"verify-example needs a number in {EXAMPLE_RANGE}")
            ok, lines = verify.verify_example(args["example"])
            output = [line + "\n" for line in lines], ()
        elif args["example"] is not None:
            raise ConfigError(f"{args['command']} takes no example number, got {args['example']}")
        elif not args.get("config"):
            raise ConfigError("this command needs --config")
        else:
            config = load_config(args["config"])
            ok, output = True, COMMANDS[args["command"]](build_curve(config),
                                                         job_reader(args, config))
        _emit(args.get("out"), *output)
        return 0 if ok else 1
    except (ConfigError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except OSError:  # stdout after the failed write that main reported
                pass


def run() -> None:
    """The process's one exit: main's code, without the interpreter's teardown
    (module clean-up and the final collection), since main has flushed."""
    os._exit(main())


if __name__ == "__main__":  # pragma: no cover
    run()
