"""The job config: a flat INI file with [field], [curve] and [job] sections.

load_config reads it by configparser's default rules, without importing
configparser; build_field and build_curve make the field and the curve of
[field] and [curve], and job_reader the values of [job] under the command
line's flags.  Every config job runs this module, and so does set-up
(perfbench/setup_probe.py, through cli), which never runs commands.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import ConfigError, _int
from .curve import KummerCurve, find_roots
from .gf import FiniteField
from .rrlattice import DEFAULT_BUDGET


def _ints(text: str) -> List[int]:
    text = text.strip()
    if not text:
        return []
    return [_int(tok) for tok in text.split(",")]


Config = Dict[str, Dict[str, str]]  # section -> key -> value


def load_config(path: str) -> Config:
    """The sections of the INI file as plain dicts, [DEFAULT] keys merged in and
    every value interpolated here, so a malformed file or value is refused at
    load, with configparser's message on one line."""
    try:
        with open(path, encoding="utf-8") as lines:
            defaults, sections = _read(lines, path)
    except OSError:
        raise ConfigError(f"cannot read config file {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from exc
    config = {}
    for name, section in sections.items():
        values = {**defaults, **section}
        config[name] = {key: _interpolate(name, key, values, value)
                        for key, value in values.items()}
    return config


def _read(lines: Iterable[str], path: str) -> Tuple[Dict[str, str], Config]:
    """The [DEFAULT] keys and the sections, each value its lines joined, read
    as ConfigParser() reads: a header is `[name]` up to the line's last `]`,
    whatever follows; a line whose first non-space is # or ; is a comment; an
    option splits at its first = or :, its key lower-cased and stripped; a
    line indented deeper than its key's line continues the value, and so
    does a blank line, though not at the value's end."""
    defaults: Dict[str, List[str]] = {}
    sections: Dict[str, Dict[str, List[str]]] = {}
    seen = set()  # the (section, key) pairs read so far, [DEFAULT]'s included
    errors = []
    name = values = key = None
    indent = 0
    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        if not text or text[0] in "#;":
            if not text and key:
                values[key].append("")
            continue
        level = len(line) - len(line.lstrip())
        if key and level > indent:
            values[key].append(text)
            continue
        indent = level
        close = text.rfind("]")
        if text[0] == "[" and close > 1:
            name, key = text[1:close], None
            if name in sections:
                raise ConfigError(f"While reading from {path!r} [line {lineno:2d}]: "
                                  f"section {name!r} already exists")
            if name == "DEFAULT":
                values = defaults
            else:
                values = sections[name] = {}
        elif values is None:
            raise ConfigError(f"File contains no section headers. file: {path!r}, "
                              f"line: {lineno} {line!r}")
        else:
            split = min((text.find(c) for c in "=:" if c in text), default=-1)
            if split <= 0:  # no delimiter, or no key: the line is reported at the end
                errors.append(f" [line {lineno:2d}]: {line!r}")
                if split < 0:
                    continue
            key = text[:split].rstrip().lower()
            if (name, key) in seen:
                raise ConfigError(f"While reading from {path!r} [line {lineno:2d}]: "
                                  f"option {key!r} in section {name!r} already exists")
            seen.add((name, key))
            values[key] = [text[split + 1:].strip()]
    if errors:
        raise ConfigError(f"Source contains parsing errors: {path!r}" + "".join(errors))

    def joined(section):
        return {key: "\n".join(value).rstrip() for key, value in section.items()}

    return joined(defaults), {name: joined(section) for name, section in sections.items()}


def _interpolate(name: str, key: str, values: Dict[str, str], text: str, depth: int = 1) -> str:
    """text, a value of [name] read for key, with each %(other)s replaced by that
    key's value, itself interpolated, and %% by %: configparser's
    BasicInterpolation, 10 levels deep at most."""
    if depth > 10:
        raise ConfigError(f"Recursion limit exceeded in value substitution: option {key!r} "
                          f"in section {name!r} contains an interpolation key which cannot "
                          f"be substituted in 10 steps. Raw value: {values[key]!r}")
    out = []
    while text:
        p = text.find("%")
        if p < 0:
            out.append(text)
            break
        out.append(text[:p])
        text = text[p:]
        if text[1:2] == "%":
            out.append("%")
            text = text[2:]
        elif text[1:2] == "(":
            end = text.find(")", 2)
            if end < 3 or text[end + 1:end + 2] != "s":
                raise ConfigError(f"bad interpolation variable reference {text!r}")
            other = text[2:end].lower()
            text = text[end + 2:]
            if other not in values:
                raise ConfigError(f"Bad value substitution: option {key!r} in section {name!r} "
                                  f"contains an interpolation key {other!r} which is not a valid "
                                  f"option name. Raw value: {values[key]!r}")
            value = values[other]
            out.append(_interpolate(name, key, values, value, depth + 1) if "%" in value
                       else value)
        else:
            raise ConfigError(f"'%' must be followed by '%' or '(', found: {text!r}")
    return "".join(out)


def _key(config: Config, section: str, key: str) -> str:
    """The value of key= in [section]; a config error when the section or key is missing."""
    if section not in config:
        raise ConfigError(f"missing [{section}] section")
    value = config[section].get(key)
    if value is None:
        raise ConfigError(f"[{section}] missing key {key!r}")
    return value


def build_field(config: Config) -> FiniteField:
    p = _int(_key(config, "field", "p"))
    e = _int(_key(config, "field", "e"))
    return FiniteField(p, e, _ints(_key(config, "field", "modulus")))


def build_curve(config: Config) -> KummerCurve:
    field = build_field(config)
    m = _int(_key(config, "curve", "m"))
    lam = _int(_key(config, "curve", "lambda"))
    sec = config["curve"]
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


def job_reader(args: Dict[str, object], config: Config) -> Job:
    """The job's values: --key when given (0 included), else key= from [job], else None."""
    given = {key: str(value) for key, value in args.items() if value is not None}
    return {**config.get("job", {}), **given}.get


def _number(job: Job, key: str, default: Optional[int]) -> Optional[int]:
    text = job(key)
    return _int(text) if text else default  # an empty key= means the default


def _budget(job: Job) -> int:
    budget = _number(job, "budget", DEFAULT_BUDGET)
    if budget < 0:
        raise ConfigError(f"budget must be >= 0, got {budget}")
    return budget
