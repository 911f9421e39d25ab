"""Command-line front end.

A job is described by a flat INI config with [field], [curve] and [job]
sections; the subcommand picks the operation.  All output is plain
UTF-8 text or CSV with no timestamps, so identical configs produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from configparser import ConfigParser
from itertools import chain
from typing import Iterable, List, Optional, Sequence, Union

from . import verify
from .agcode import (brute_force_distance, build_cl, build_comega,
                     designed_distance, evaluation_places)
from .curve import KummerCurve, find_roots
from .gf import FiniteField
from .rrlattice import Divisor, dimension, monomial_divisor, omega_enumerate
from .weierstrass import (DEFAULT_BUDGET, PlaceTuple, box_search, floor_divisor, pure_gaps,
                          semigroup_member)


class ConfigError(ValueError):
    pass


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"not an integer: {text.strip()!r}") from exc


def _ints(text: str) -> List[int]:
    text = text.strip()
    if not text:
        return []
    return [_int(tok) for tok in text.split(",")]


def load_config(path: str) -> ConfigParser:
    cp = ConfigParser()
    try:
        read = cp.read(path, encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    return cp


def build_field(cp: ConfigParser) -> FiniteField:
    if "field" not in cp:
        raise ConfigError("missing [field] section")
    sec = cp["field"]
    try:
        p, e, modulus = _int(sec["p"]), _int(sec["e"]), _ints(sec["modulus"])
    except KeyError as exc:
        raise ConfigError(f"[field] missing key {exc}") from exc
    return FiniteField(p, e, modulus)


def build_curve(cp: ConfigParser) -> KummerCurve:
    field = build_field(cp)
    if "curve" not in cp:
        raise ConfigError("missing [curve] section")
    sec = cp["curve"]
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


def job_value(cp: ConfigParser, key: str) -> Optional[str]:
    if "job" in cp and key in cp["job"]:
        return cp["job"][key]
    return None


def _job_int(args, cp: ConfigParser, key: str, default: Optional[int]) -> Optional[int]:
    """--key when given (0 included), else key= in [job], else default."""
    flag = getattr(args, key)
    if flag is not None:
        return flag
    text = job_value(cp, key)
    return _int(text) if text else default


def _budget(args, cp: ConfigParser) -> int:
    budget = _job_int(args, cp, "budget", DEFAULT_BUDGET)
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


def parse_places(curve: KummerCurve, text: Optional[str]) -> PlaceTuple:
    if text is None:
        raise ConfigError("this command needs places=P1,...,Pl[,Pinf] in [job]")
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    include_inf = False
    l = 0
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
    return PlaceTuple(l, include_inf)


def _emit(out: Optional[str], chunks: Union[str, Iterable[str]]) -> None:
    """Write the text, or its chunks as they come, to stdout or to the file out,
    about 64 KiB at a time (unbuffered stdout makes a system call of each write).
    Every check that can refuse the job runs first, so a refused job writes nothing."""
    def write(fh) -> None:
        batch, size = [], 0
        for chunk in [chunks] if isinstance(chunks, str) else chunks:
            batch.append(chunk)
            size += len(chunk)
            if size >= 1 << 16:
                fh.write("".join(batch))
                batch, size = [], 0
        fh.write("".join(batch))

    if not out:
        write(sys.stdout)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            write(fh)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror or exc}") from exc


def cmd_curve_info(curve: KummerCurve, args, cp) -> int:
    lines = [
        f"m {curve.m}",
        f"lambda {curve.lam}",
        f"r {curve.r}",
        f"genus {curve.g}",
        f"places {curve.num_places()}",
        f"A {curve.A}",
        f"B {curve.B}",
        f"a {curve.a}",
        f"b {curve.b}",
        "",
    ]
    _emit(args.out, "\n".join(lines))
    return 0


def cmd_places(curve: KummerCurve, args, cp) -> int:
    text = [str(v) for v in range(curve.field.q)]
    rows = (f"affine,0,{text[p.x]},{text[p.y]}\n" if p.kind_rank == 2  # nearly all: no kind lookup
            else f"{p.kind},{p.mu},{p.x},{p.y}\n" for p in curve.iter_places())
    _emit(args.out, chain(["kind,mu,x,y\n"], rows))
    return 0


def cmd_rr_basis(curve: KummerCurve, args, cp) -> int:
    G = parse_divisor(curve, job_value(cp, "divisor"))
    rows = []
    for pt in omega_enumerate(curve, G):
        left = " ".join(str(v) for v in (pt.i,) + pt.j)
        rows.append(f"{left} | {-monomial_divisor(curve, pt)}")
    _emit(args.out, "\n".join([*rows, ""]))  # "" for an empty basis
    return 0


def cmd_dim(curve: KummerCurve, args, cp) -> int:
    G = parse_divisor(curve, job_value(cp, "divisor"))
    _emit(args.out, f"{dimension(curve, G)}\n")
    return 0


def cmd_semigroup(curve: KummerCurve, args, cp) -> int:
    places = parse_places(curve, job_value(cp, "places"))
    text = job_value(cp, "coords")
    if text is None:
        raise ConfigError("this command needs coords=c1,...,ck in [job]")
    coords = _ints(text)
    if len(coords) != places.arity():
        raise ConfigError(f"coords= needs one value per place in places= "
                          f"({places.arity()}), got {len(coords)}")
    member = semigroup_member(curve, places, coords)
    _emit(args.out, ("true" if member else "false") + "\n")
    return 0


def cmd_pure_gaps(curve: KummerCurve, args, cp) -> int:
    places = parse_places(curve, job_value(cp, "places"))
    bound = _job_int(args, cp, "bound", 0)
    if bound < 1:
        raise ConfigError("pure-gaps needs --bound or bound= in [job]")
    budget = _budget(args, cp)
    rows = [",".join(str(v) for v in pt) for pt in pure_gaps(curve, places, bound, budget)]
    _emit(args.out, "\n".join([*rows, ""]))
    return 0


def cmd_box_search(curve: KummerCurve, args, cp) -> int:
    places = parse_places(curve, job_value(cp, "places"))
    bound = _job_int(args, cp, "bound", 0)
    if bound < 1:
        raise ConfigError("box-search needs --bound or bound= in [job]")
    budget = _budget(args, cp)
    result = box_search(curve, places, bound, budget)
    if result is None:
        _emit(args.out, "no pure gaps\n")
        return 0
    box, G = result
    text = (f"base {' '.join(map(str, box.base))}\n"
            f"widths {' '.join(map(str, box.widths))}\n"
            f"G {G}\n"
            f"bound {designed_distance(curve, G, 'pure_gap_box', box=box)}\n")
    _emit(args.out, text)
    return 0


def cmd_floor(curve: KummerCurve, args, cp) -> int:
    H = parse_divisor(curve, job_value(cp, "divisor"))
    _emit(args.out, f"{floor_divisor(curve, H)}\n")
    return 0


def _build_code(curve, args, cp):
    G = parse_divisor(curve, job_value(cp, "divisor"))
    n_text = job_value(cp, "n")
    n = _int(n_text) if n_text else None
    seed = _job_int(args, cp, "seed", None)
    if seed is not None and n is None:
        raise ConfigError("seed selects n places and needs n= in [job]")
    D = evaluation_places(curve, G, n=n, seed=seed)
    kind = (job_value(cp, "code") or "omega").lower()
    if kind == "l":
        code = build_cl(curve, G, D)
    elif kind == "omega":
        code = build_comega(curve, G, D)
    else:
        raise ConfigError(f"code= must be 'l' or 'omega', got {kind!r}")
    selection = "all" if n is None else ("drop-highest" if seed is None else f"seed={seed}")
    return G, D, code, selection


def cmd_build_code(curve: KummerCurve, args, cp) -> int:
    G, D, code, selection = _build_code(curve, args, cp)
    _emit(args.out, code.export())
    dest = sys.stdout if args.out else sys.stderr
    dest.write(f"selection {selection} n={code.n}\n")
    for name, value in code.bounds:
        dest.write(f"bound {name} {value}\n")
    return 0


def cmd_check_distance(curve: KummerCurve, args, cp) -> int:
    budget = _budget(args, cp)
    _, _, code, _ = _build_code(curve, args, cp)
    d = brute_force_distance(code, budget)
    _emit(args.out, ("undefined" if d is None else str(d)) + "\n")
    return 0


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


def _example_range() -> str:
    return f"{min(verify.EXAMPLES)}-{max(verify.EXAMPLES)}"


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kummer-codes",
        description="Multi-point algebraic-geometric codes over Kummer extensions")
    ap.add_argument("command", choices=sorted(COMMANDS) + ["verify-example"])
    ap.add_argument("example", nargs="?", type=int,
                    help=f"example number for verify-example ({_example_range()})")
    ap.add_argument("--config", help="path to the job config file")
    ap.add_argument("--out", help="write primary output to this file")
    ap.add_argument("--budget", type=int, help="work budget for exhaustive searches")
    ap.add_argument("--seed", type=int, help="seed for evaluation-place selection")
    ap.add_argument("--bound", type=int, help="coordinate bound for gap searches")
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    verify_job = args.command == "verify-example"
    if verify_job and args.example not in verify.EXAMPLES:
        print(f"verify-example needs a number in {_example_range()}", file=sys.stderr)
        return 2
    if not verify_job and not args.config:
        print("this command needs --config", file=sys.stderr)
        return 2
    if verify_job:  # outside the try: it reads no config, so its errors are internal
        ok, lines = verify.verify_example(args.example)
    try:
        if verify_job:
            _emit(args.out, "\n".join([*lines, ""]))
            return 0 if ok else 1
        cp = load_config(args.config)
        return COMMANDS[args.command](build_curve(cp), args, cp)
    except (ConfigError, KeyError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
