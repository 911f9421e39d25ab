"""Command-line front end: the process layer.

`parse_args` reads the command line and `main` runs it: `verify-example`
through `verify`, `--help` here, and the ten config commands through the
lazy `commands` module, which runs the command on the job config that
`config` reads and returns the output lines and notes for `main` to write
(`_emit`) and to end with an exit code.  So `verify-example` and `--help`
run neither `commands` nor `config`.
"""

from __future__ import annotations

import os
import sys
from typing import Dict, Iterable, Optional, Sequence

from . import ConfigError, _int, commands, config, verify  # lazy: each runs when called


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


# sorted: the keys of commands.COMMANDS, then verify-example, and min-max of
# verify.EXAMPLES, written out so that parsing runs neither module
COMMAND_NAMES = ("box-search", "build-code", "check-distance", "curve-info", "dim", "floor",
                 "places", "pure-gaps", "rr-basis", "semigroup", "verify-example")
EXAMPLE_RANGE = "1-4"
FLAGS = ("config", "out", "budget", "seed", "bound")  # each takes one value
INT_FLAGS = ("budget", "seed", "bound")
_CHOICES = ", ".join(COMMAND_NAMES)
_BRACES = "{" + ",".join(COMMAND_NAMES) + "}"

HELP = f"""\
usage: kummer-codes [-h] [--config CONFIG] [--out OUT] [--budget BUDGET]
                    [--seed SEED] [--bound BOUND]
                    {_BRACES}
                    [example]

Multi-point algebraic-geometric codes over Kummer extensions

positional arguments:
  {_BRACES}
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
            if arg not in COMMAND_NAMES:
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
            ok, output = True, commands.run_job(args)
        _emit(args.get("out"), *output)
        return 0 if ok else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except OSError:  # stdout after the failed write that main reported
                pass


def __getattr__(name: str):
    """config's load_config and build_curve, which perfbench/setup_probe.py
    calls through cli; reading them runs config, not commands."""
    if name in ("load_config", "build_curve"):
        return getattr(config, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run() -> None:
    """The process's one exit: main's code, without the interpreter's teardown
    (module clean-up and the final collection), since main has flushed."""
    os._exit(main())


if __name__ == "__main__":  # pragma: no cover
    run()
