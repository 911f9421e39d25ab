"""config.load_config against configparser, its oracle: for every file, the
same sections, keys and values in the same order, or a ConfigError with the
same one-line text."""

from __future__ import annotations

import configparser
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kummercodes import ConfigError
from kummercodes.config import load_config

ROOT = Path(__file__).resolve().parent.parent


def configparser_load(path: str):
    """The job config as ConfigParser() reads it, each refusal a ConfigError
    whose configparser message is joined into one line."""
    cp = configparser.ConfigParser()
    try:
        if not cp.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config file {path}")
        return {name: dict(cp.items(name)) for name in cp.sections()}
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(" ".join(line.strip() for line in str(exc).splitlines())) from exc


def outcome(load, path):
    """The sections as lists of (key, value), in order, or the refusal text."""
    try:
        return [(name, list(section.items())) for name, section in load(str(path)).items()]
    except ConfigError as exc:
        return str(exc)


HEADERS = ["[DEFAULT]", "[default]", "[]", "[a]b]", "[x] trailing", "[job]", " [job]"]
OPTIONS = ["key = value", "Key: 2", "k=v=w", "k2 : a:b", "= 5", ": 6", "no delimiter",
           "ref = %(key)s", "up = %(KEY)s and %(k)s", "pct = 50%%", "lone = 5%",
           "gone = %(nokey)s", "self = %(self)s", "open = %(key", "empty = %()s"]
CONTINUATIONS = [" more", "\tmore", "\fmore", "  [job]", "   = 7", "  ref2 = %(ref)s"]
BLANKS = ["", "  ", "# comment", "; comment", "  # indented comment"]
LINE_ENDS = ["\n", "\r\n", "\r"]
INVALID = [b"\xff", b"\xc3", b"\xed\xa0\x80"]  # a bad start byte, a cut sequence, a surrogate


@st.composite
def ini_files(draw):
    first = draw(st.sampled_from(HEADERS + ["key = value"]))  # most files start with a header
    rest = draw(st.lists(st.sampled_from(HEADERS + OPTIONS + CONTINUATIONS + BLANKS), max_size=7))
    data = "".join(text + draw(st.sampled_from(LINE_ENDS)) for text in [first, *rest])
    data = data.encode("utf-8")
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(INVALID)) + data[at:]
    return data


def chain(n: int) -> bytes:
    """k0 names k1, and so on to kn = end: k0 is n levels deep."""
    keys = "".join(f"k{i} = %(k{i + 1})s\n" for i in range(n))
    return f"[a]\n{keys}k{n} = end\n".encode("utf-8")


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ini_files())
@example(chain(10))  # as deep as configparser goes
@example(chain(11))
@example(b"[a]\n  x = 1\n  y = 2\n")  # y is as deep as x, so it is no continuation
@example(b"[a]\nx =\n  more\n")  # the value starts with an empty line
@example(b"[a]\nx = %()s\n")
@example(b"[a]\nkey = v\nup = %(KEY)s\n")  # the key named is lower-cased
@example(b"[a]\nx = %(y)s\ny = 1\n")
@example(b"[DEFAULT]\nk = 1\n[a]\nk = 2\nj = %(k)s\n[DEFAULT]\nm = 3\n")
@example(b"[a]\nx = 1\n\n  two\n\n# c\n  three\n\n")
@example(b"[a]\nx = 1\n[a]\n")
@example(b"[DEFAULT]\nx = 1\n[DEFAULT]\nx = 2\n")
@example(b"x = 1\n")
@example(b"[a]\n= 1\nnothing\n= 2\n")
@example(b"[a]\nself = %(self)s\n")
@example(b"[DEFAULT]\nbad = 5%\n")
def test_load_config_matches_configparser(tmp_path, data):
    path = tmp_path / "job.ini"
    path.write_bytes(data)
    assert outcome(load_config, path) == outcome(configparser_load, path)


def test_a_decode_error_past_the_first_chunk_matches_configparser(tmp_path):
    # Both read the file line by line, so the decoder reports the same chunk position.
    path = tmp_path / "job.ini"
    path.write_bytes(b"[a]\nx = " + b"y" * 10000 + b"\xff\n")
    expected = outcome(configparser_load, path)
    assert expected.startswith(f"config file {path} is not UTF-8: 'utf-8' codec can't decode")
    assert outcome(load_config, path) == expected


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_an_unreadable_path_cannot_be_read(tmp_path, kind):
    path = tmp_path / "job.ini"
    if kind == "directory":
        path.mkdir()
    expected = f"cannot read config file {path}"
    assert outcome(load_config, path) == outcome(configparser_load, path) == expected


def test_the_benchmark_and_readme_configs_load_as_configparser_reads_them(tmp_path):
    paths = sorted((ROOT / "perfbench" / "workloads").glob("*.ini"))
    assert len(paths) == 4
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```ini\n(.*?)^```$", readme, re.M | re.S)
    paths.append(tmp_path / "readme.ini")
    paths[-1].write_text(block, encoding="utf-8")
    for path in paths:
        sections = outcome(load_config, path)
        assert isinstance(sections, list) and sections, path
        assert sections == outcome(configparser_load, path), path
