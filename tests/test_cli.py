"""End-to-end checks of the command-line front end."""

from __future__ import annotations

import configparser
import hashlib
import importlib
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kummercodes import ConfigError, cli, commands, verify
from kummercodes.cli import EXAMPLE_RANGE, FLAGS, HELP, main, parse_args
from kummercodes.commands import COMMANDS, build_curve, job_reader, load_config
from kummercodes.curve import KummerCurve
from kummercodes.gf import FiniteField
from kummercodes.rrlattice import RamificationData
from kummercodes.weierstrass import PlaceTuple
from test_curve import brute_force_places, count_made_places

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads"

HERM_CFG = """
[field]
p = 2
e = 2
modulus = 1,1,1

[curve]
m = 3
lambda = 1
f = 0,1,1

[job]
divisor = {divisor}
places = {places}
coords = {coords}
bound = {bound}
"""


def write_cfg(tmp_path, divisor="0,0,3", places="P1,P2", coords="1,1", bound="6"):
    path = tmp_path / "job.ini"
    path.write_text(HERM_CFG.format(divisor=divisor, places=places,
                                    coords=coords, bound=bound))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_curve_info(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code, out, _ = run_cli(capsys, "curve-info", "--config", cfg)
    assert code == 0
    got = dict(line.split() for line in out.splitlines())
    assert got["genus"] == "1"
    assert got["places"] == "9"
    assert got["r"] == "2"


def test_places_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code, out, _ = run_cli(capsys, "places", "--config", cfg)
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "kind,mu,x,y"
    assert len(lines) == 10
    assert lines[1].startswith("infinity")


def test_dim_zero_divisor(tmp_path, capsys):
    cfg = write_cfg(tmp_path, divisor="0,0,0")
    code, out, _ = run_cli(capsys, "dim", "--config", cfg)
    assert code == 0
    assert out.strip() == "1"


def test_rr_basis_format(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code, out, _ = run_cli(capsys, "rr-basis", "--config", cfg)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3  # ell(3 P_inf) = 3
    for line in lines:
        left, right = line.split(" | ")
        i, *js = (int(v) for v in left.split())
        orders = [int(v) for v in right.split()]
        assert orders[0] == -i
        assert orders[-1] == 2 * i + 3 * sum(int(v) for v in js)

    # ell(-P_inf) = 0: no rows, so no output at all, as pure-gaps with no hits
    code, out, _ = run_cli(capsys, "rr-basis", "--config", write_cfg(tmp_path, divisor="0,0,-1"))
    assert (code, out) == (0, "")


def test_semigroup_and_pure_gaps(tmp_path, capsys):
    cfg = write_cfg(tmp_path, places="P1", coords="1")
    code, out, _ = run_cli(capsys, "semigroup", "--config", cfg)
    assert code == 0 and out.strip() == "false"  # 1 is the gap at P1 (g=1)

    code, out, _ = run_cli(capsys, "pure-gaps", "--config", cfg)
    assert code == 0
    assert out.splitlines() == ["1"]

    # At P1, P2 the only candidate, (1, 1), is no pure gap: empty output.
    cfg = write_cfg(tmp_path, places="P1,P2")
    for cmd, expected in (("pure-gaps", ""), ("box-search", "no pure gaps\n")):
        assert run_cli(capsys, cmd, "--config", cfg) == (0, expected, "")


def test_floor_output(tmp_path, capsys):
    cfg = write_cfg(tmp_path, divisor="1,0,0")
    code, out, _ = run_cli(capsys, "floor", "--config", cfg)
    assert code == 0
    assert out.strip() == "0 0 0"  # 1 is a gap at P1, so the floor drops it


def test_build_code_export(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out_path = tmp_path / "code.txt"
    code, out, _ = run_cli(capsys, "build-code", "--config", cfg,
                           "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    n, k, q = (int(v) for v in lines[0].split())
    assert (n, k, q) == (8, 5, 4)
    assert len(lines) == 1 + k
    assert "selection all" in out
    assert "bound goppa_omega 3" in out


def test_out_file_equals_stdout_and_is_written_as_made(tmp_path, capsys):
    # The 32,769 rows of places.ini go to the file as they are made: a listing
    # built whole in memory peaked at about 6.4 MB of Python allocations.
    for cmd, cfg in (("places", WORKLOADS / "places.ini"),
                     ("build-code", WORKLOADS / "construct.ini")):
        code, expected, _ = run_cli(capsys, cmd, "--config", str(cfg))
        target = tmp_path / f"{cmd}.txt"
        assert run_cli(capsys, cmd, "--config", str(cfg), "--out", str(target))[0] == code == 0
        assert target.read_bytes() == expected.encode("utf-8")
    tracemalloc.start()
    try:
        code = main(["places", "--config", str(WORKLOADS / "places.ini"),
                     "--out", str(tmp_path / "traced.txt")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 2 << 20, peak


def test_refused_build_code_creates_no_out_file(tmp_path, capsys):
    cfg = tmp_path / "job.ini"
    cfg.write_text(HERM_CFG.format(divisor="0,0,3", places="P1", coords="1", bound="6")
                   + "n = 9\n")
    target = tmp_path / "code.txt"
    code, out, err = run_cli(capsys, "build-code", "--config", str(cfg), "--out", str(target))
    assert (code, out, err) == (1, "", "error: asked for n=9 places; 0 to 8 are available\n")
    assert not target.exists()


def test_build_code_with_n_makes_only_the_first_n_places():
    # construct.ini keeps 384 of its curve's 4,113 places: the place stream
    # makes those 384 and P_inf, the one place in supp(G), and stops there.
    config = load_config(str(WORKLOADS / "construct.ini"))
    curve = build_curve(config)
    made = count_made_places(curve)
    lines, notes = COMMANDS["build-code"](curve, config["job"].get)
    assert sum(1 for _ in lines) == 1 + 313
    assert notes[0] == "selection drop-highest n=384\n"
    assert made[0] <= 384 + 1


def test_empty_code_has_no_designed_bound(tmp_path, capsys):
    # With n = 0 both codes are [0, 0]: deg G > 2g - 2 must not attach
    # goppa_omega to a code with no nonzero codeword.
    for kind in ("l", "omega"):
        cfg = write_cfg(tmp_path)
        with open(cfg, "a", encoding="utf-8") as fh:
            fh.write(f"n = 0\ncode = {kind}\n")
        code, out, err = run_cli(capsys, "build-code", "--config", cfg)
        assert code == 0
        assert out == "0 0 4\n"
        assert err == "selection drop-highest n=0\n"


def test_check_distance(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code, out, _ = run_cli(capsys, "check-distance", "--config", cfg)
    assert code == 0
    assert out.strip() == "3"


def test_config_errors_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "dim", "--config", str(tmp_path / "missing.ini"))
    assert code == 2
    assert "config error" in err

    bad = tmp_path / "bad.ini"
    bad.write_text("[field]\np = 2\n")
    code, _, err = run_cli(capsys, "dim", "--config", bad.as_posix())
    assert code == 2

    assert run_cli(capsys, "dim") == (2, "", "config error: this command needs --config\n")

    # Only verify-example takes the example number: anywhere else it is refused.
    stray = run_cli(capsys, "dim", "3", "--config", str(WORKLOADS / "gaps.ini"))
    assert stray == (2, "", "config error: dim takes no example number, got 3\n")

    not_int = tmp_path / "not_int.ini"
    not_int.write_text(HERM_CFG.replace("p = 2", "p = abc").format(
        divisor="0,0,3", places="P1", coords="1", bound="6"))
    code, _, err = run_cli(capsys, "dim", "--config", not_int.as_posix())
    assert code == 2
    assert "config error" in err and "abc" in err

    unclosed = tmp_path / "unclosed.ini"
    unclosed.write_text("[field\np = 2\n")
    code, _, err = run_cli(capsys, "dim", "--config", unclosed.as_posix())
    assert code == 2
    assert "config error" in err

    latin1 = tmp_path / "latin1.ini"
    latin1.write_bytes(HERM_CFG.format(divisor="0,0,3", places="P1", coords="1",
                                       bound="6").encode("utf-8") + b"; caf\xe9\n")
    code, out, err = run_cli(capsys, "dim", "--config", latin1.as_posix())
    assert code == 2 and out == ""
    assert err.startswith("config error:") and "UTF-8" in err and err.count("\n") == 1

    bad_bound = tmp_path / "bad_bound.ini"
    bad_bound.write_text(HERM_CFG.format(divisor="0,0,3", places="P1", coords="1", bound="x"))
    code, _, err = run_cli(capsys, "pure-gaps", "--config", bad_bound.as_posix())
    assert code == 2
    assert "config error" in err

    # roots= and f= both define the curve, so together they are refused.
    both = tmp_path / "both.ini"
    both.write_text(HERM_CFG.replace("f = 0,1,1", "f = 0,1,1\nroots = 0").format(
        divisor="0,0,3", places="P1", coords="1", bound="6"))
    code, out, err = run_cli(capsys, "curve-info", "--config", both.as_posix())
    assert (code, out) == (2, "")
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "roots=" in err and "f=" in err

    # A missing section or key, and a malformed job value, each give one line.
    herm = HERM_CFG.format(divisor="0,0,3", places="P1", coords="1", bound="6")
    refused = [
        ("curve-info", herm[:herm.index("[curve]")], "missing [curve] section"),
        ("curve-info", herm[herm.index("[curve]"):], "missing [field] section"),
        ("curve-info", herm.replace("m = 3\n", ""), "[curve] missing key 'm'"),
        ("curve-info", herm.replace("f = 0,1,1\n", ""), "needs either roots= or f="),
        ("dim", herm.replace("divisor = 0,0,3\n", ""), "needs divisor="),
        ("dim", herm.replace("divisor = 0,0,3", "divisor = 0,3"), "got 2"),
        ("semigroup", herm.replace("places = P1\n", ""), "needs places="),
        ("semigroup", herm.replace("places = P1", "places = Pinf,P1"), "Pinf must come last"),
        ("semigroup", herm.replace("places = P1", "places = P2"), "got 'P2'"),
        ("semigroup", herm.replace("places = P1", "places ="), "places= names no place"),
        ("semigroup", herm.replace("places = P1", "places = ,"), "places= names no place"),
        ("semigroup", herm.replace("places = P1", "places = P1,P2,").replace(
            "coords = 1", "coords = 1,1"), "places must be P1,P2,...,Pl[,Pinf]; got ''"),
        ("semigroup", herm.replace("places = P1", "places = P1,,P2").replace(
            "coords = 1", "coords = 1,1"), "places must be P1,P2,...,Pl[,Pinf]; got ''"),
        ("semigroup", herm.replace("places = P1", "places = Pinf,"),
         "places must be P1,P2,...,Pl[,Pinf]; got ''"),
        ("semigroup", herm.replace("places = P1", "places = P1,P2,P3"),
         "places= names 3 finite places, curve has r=2"),
        ("pure-gaps", herm.replace("places = P1", "places = P1,P2,P3,Pinf"),
         "places= names 3 finite places, curve has r=2"),
        ("semigroup", herm.replace("coords = 1\n", ""), "this command needs coords="),
        ("semigroup", herm.replace("coords = 1", "coords ="),
         "coords= needs one value per place in places= (1), got 0"),
        ("semigroup", herm.replace("coords = 1", "coords = 1,1"),
         "coords= needs one value per place in places= (1), got 2"),
        ("build-code", herm + "code = x\n", "code= must be 'l' or 'omega', got 'x'"),
        ("curve-info", "[field\np = 2\n", "File contains no section headers. file: "),
        ("curve-info", herm + "zz\n", "Source contains parsing errors: "),
        ("pure-gaps", herm + "budget = -1\n", "budget must be >= 0, got -1"),
        ("box-search", herm + "budget = -1\n", "budget must be >= 0, got -1"),
        ("check-distance", herm + "budget = -1\n", "budget must be >= 0, got -1"),
    ]
    for cmd, text, message in refused:
        path = tmp_path / "refused.ini"
        path.write_text(text)
        code, out, err = run_cli(capsys, cmd, "--config", path.as_posix())
        assert (code, out) == (2, ""), message
        assert err.startswith("config error:") and message in err and err.count("\n") == 1

    # A negative --budget is refused before any search, not reported as over budget.
    for cmd, name in (("pure-gaps", "gaps"), ("box-search", "gaps"),
                      ("check-distance", "distance")):
        code, out, err = run_cli(capsys, cmd, "--config", str(WORKLOADS / f"{name}.ini"),
                                 "--budget", "-1")
        assert (code, out, err) == (2, "", "config error: budget must be >= 0, got -1\n"), cmd

    # A seed picks n places, so without n= it is refused, not ignored.
    seed_only = write_cfg(tmp_path, divisor="0,0,5")
    with open(seed_only, "a", encoding="utf-8") as fh:
        fh.write("seed = 3\n")
    for cmd, extra in (("build-code", ()), ("check-distance", ()),
                       ("build-code", ("--seed", "3"))):
        code, out, err = run_cli(capsys, cmd, "--config", seed_only, *extra)
        assert (code, out) == (2, "")
        assert err.startswith("config error:") and "n=" in err and err.count("\n") == 1


PLACE_NAMES = ["P1", "P2", "P3", "P4", "p2", " P1 ", "Pinf", "infinity", "", "P9", "x"]
INFINITY = ("pinf", "infinity")


@settings(max_examples=300, deadline=None)
@given(tokens=st.lists(st.sampled_from(PLACE_NAMES), min_size=1, max_size=6),
       r=st.integers(1, 4))
@example(tokens=["Pinf", ""], r=2)
def test_parse_places_accepts_exactly_p1_to_pl_then_pinf(tokens, r):
    # Accepted exactly when the names read P1..Pl, then at most one Pinf, with
    # l <= r.  A refusal is one line; a name it quotes, or a Pinf it says must
    # come last, is out of place.
    names = [tok.strip() for tok in tokens]
    include_inf = names[-1].lower() in INFINITY
    l = len(names) - include_inf
    valid = l <= r and all(name.upper() == f"P{i}" for i, name in enumerate(names[:l], 1))

    def out_of_place(i, name):
        return name.upper() != f"P{i + 1}" and not (name.lower() in INFINITY
                                                     and i == len(names) - 1)

    try:
        places = commands.parse_places(RamificationData(5, r), ",".join(tokens))
    except ConfigError as exc:
        message = str(exc)
        assert not valid and "\n" not in message, message
        for quoted in re.findall(r"'([^']*)'", message):
            assert any(name == quoted and out_of_place(i, name)
                       for i, name in enumerate(names)), message
        if message.startswith("Pinf must come last"):
            first = min(i for i, name in enumerate(names) if name.lower() in INFINITY)
            assert any(names[first + 1:]), message  # a place is named after it
    else:
        assert valid and places == PlaceTuple(l, include_inf)


CHOICES = ", ".join(sorted(COMMANDS) + ["verify-example"])

# One row per way a command line can be malformed: each is refused before any
# config is read, with one line on stderr and nothing on stdout.
USAGE_ERRORS = [
    ("unknown-command", ["bogus"],
     f"invalid command 'bogus' (choose from {CHOICES})"),
    ("missing-command", [], f"missing command (choose from {CHOICES})"),
    ("missing-command-flags-only", ["--budget", "3"], f"missing command (choose from {CHOICES})"),
    ("unknown-flag", ["dim", "--foo", "1"], "unrecognized option '--foo'"),
    ("abbreviated-flag", ["dim", "--conf", "job.ini"], "unrecognized option '--conf'"),
    ("single-dash-flag", ["dim", "-x"], "unrecognized option '-x'"),
    ("flag-without-value", ["dim", "--config"], "argument --config: expected one value"),
    ("flag-before-flag", ["dim", "--out", "--budget", "1"], "argument --out: expected one value"),
    ("budget-not-int", ["dim", "--budget", "x"], "argument --budget: not an integer: 'x'"),
    ("seed-not-int", ["build-code", "--seed=1.5"], "argument --seed: not an integer: '1.5'"),
    ("bound-not-int", ["pure-gaps", "--bound", ""], "argument --bound: not an integer: ''"),
    ("example-not-int", ["verify-example", "x"], "argument example: not an integer: 'x'"),
    ("extra-positional", ["verify-example", "1", "2"], "unrecognized argument '2'"),
]


@pytest.mark.parametrize("argv,message", [row[1:] for row in USAGE_ERRORS],
                         ids=[row[0] for row in USAGE_ERRORS])
def test_usage_errors_are_one_config_error_line(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"config error: {message}\n")


def test_flags_take_a_value_either_way(tmp_path, capsys):
    # --key=VALUE equals --key VALUE; the last of a repeated flag wins, and a
    # negative number is a value, not a flag.
    cfg = write_cfg(tmp_path, places="P1")
    expected = run_cli(capsys, "pure-gaps", "--config", cfg, "--bound", "6")
    assert expected == (0, "1\n", "")
    for argv in (["pure-gaps", f"--config={cfg}", "--bound=6"],
                 ["--bound", "-3", "--bound", "6", "pure-gaps", "--config", cfg]):
        assert run_cli(capsys, *argv) == expected
    assert parse_args(["dim", "--budget", "-1", "--seed=007"]) == {
        "command": "dim", "example": None, "budget": -1, "seed": 7}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_command_line_exits_0_1_or_2(tmp_path, monkeypatch, capsys, data):
    # Draws from the grammar, stray words, malformed values and help included;
    # a bare --out takes the next word as its file, so the job runs in tmp_path.
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path)
    paths = st.sampled_from([cfg, str(tmp_path / "out.txt"), str(tmp_path / "no" / "x"), ""])
    numbers = st.sampled_from(["0", "1", "3", "6", "19", "-1", "x", "", "2.5"])

    def flag(name):
        value = paths if name in ("config", "out") else numbers
        return st.one_of(value.map(lambda v: [f"--{name}", v]),
                         value.map(lambda v: [f"--{name}={v}"]),
                         st.just([f"--{name}"]))

    word = st.sampled_from(sorted(COMMANDS) + ["verify-example", "bogus", "1", "3", "7", "-1",
                                               "x", "-", "--", "-h", "--help", "--conf"])
    flags = st.sampled_from(FLAGS).flatmap(flag)
    tokens = st.one_of(flags, flags, word.map(lambda w: [w]))
    head = st.sampled_from([[], ["verify-example"], ["verify-example", "3"]]
                           + [[c] for c in sorted(COMMANDS)])
    config = st.sampled_from([[], ["--config", cfg]])
    argv = data.draw(head) + data.draw(config) + sum(data.draw(st.lists(tokens, max_size=3)), [])
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("config error:") and err.count("\n") == 1, err


def test_help_lists_every_command_and_flag():
    # The help text is written out; it must name what parse_args accepts, and only that.
    choices = re.findall(r"\{([^}]*)\}", HELP)
    assert choices == [",".join(sorted(COMMANDS) + ["verify-example"])] * 2
    assert f"({EXAMPLE_RANGE})" in HELP
    named = set(re.findall(r"(?<![\w-])--?[a-z]+", HELP))
    assert named == {"-h", "--help"} | {f"--{name}" for name in FLAGS}
    for name in FLAGS:
        value = "1" if name in ("budget", "seed", "bound") else "a"
        assert parse_args(["dim", f"--{name}", value])[name] == (1 if value == "1" else "a")
        for short in range(1, len(name)):  # no abbreviations
            with pytest.raises(ValueError, match="unrecognized option"):
                parse_args(["dim", f"--{name[:short]}", value])
    assert parse_args(["dim", "-h"]) is parse_args(["--help", "bogus"]) is None
    for name in ("--example", "--command", "--verbose"):
        with pytest.raises(ValueError, match="unrecognized option"):
            parse_args(["dim", name, "1"])


def test_config_values_are_interpolated_at_load(tmp_path, capsys):
    # %(x)s resolves from [DEFAULT]; a malformed % is one config error line,
    # in a key the job reads and, since every value is read at load, in one
    # that no command reads (note=).
    herm = HERM_CFG.format(divisor="0,0,3", places="P1", coords="1", bound="6")
    path = tmp_path / "job.ini"
    path.write_text("[DEFAULT]\nx = 2\n" + herm.replace("p = 2", "p = %(x)s"))
    assert run_cli(capsys, "dim", "--config", str(path)) == (0, "3\n", "")
    for text in (herm.replace("divisor = 0,0,3", "divisor = 0,0,3%"), herm + "note = 50%\n"):
        path.write_text(text)
        assert run_cli(capsys, "dim", "--config", str(path)) == (
            2, "", "config error: '%' must be followed by '%' or '(', found: '%'\n")
    path.write_text(herm + "note = 50%%\n")
    assert run_cli(capsys, "dim", "--config", str(path)) == (0, "3\n", "")
    assert load_config(str(path))["job"]["note"] == "50%"


def test_readme_job_config_runs(tmp_path, capsys):
    # configparser keeps an inline `; ...` as part of the value, so each comment
    # of the README's example config stands on a line of its own.
    readme = (WORKLOADS.parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) == 1
    path = tmp_path / "job.ini"
    path.write_text(blocks[0])
    for command in ("curve-info", "box-search"):
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert (code, err) == (0, "") and out, command
    # The [124, 106] C_Omega has too many codewords to search; the README's
    # variant, the [125, 3] C_L at G = 6 P_inf, meets n - deg G.
    assert run_cli(capsys, "check-distance", "--config", str(path)) == (
        1, "", "error: 25^106 - 1 codewords exceed budget 16777216\n")
    lines = [line for line in blocks[0].splitlines() if not line.startswith(("n = ", "seed = "))]
    variant = "\n".join(lines).replace("code = omega", "code = l").replace(
        "divisor = 26,1,0,0,0,0", "divisor = 0,0,0,0,0,6")
    path.write_text(variant + "\n")
    assert run_cli(capsys, "check-distance", "--config", str(path)) == (0, "119\n", "")


GENUS_0_GF65521 = "\n".join([
    "[field]", "p = 65521", "e = 1", "modulus = 65518,1",
    "[curve]", "m = 2", "lambda = 1", "f = 0,1",
    "[job]", "divisor = 0,30", ""])


def test_check_distance_refuses_before_the_build(tmp_path, capsys, monkeypatch):
    # deg G = 30 < n = 65521, so k is ell(G) = 31 for C_L and n - 31 for C_Omega:
    # the codewords are counted and refused before evaluation and row reduction.
    def no_rref(self):
        raise AssertionError("rref ran")

    monkeypatch.setattr("kummercodes.matrix.Matrix.rref", no_rref)
    path = tmp_path / "job.ini"
    for code, k in (("l", 31), ("omega", 65490)):
        path.write_text(GENUS_0_GF65521 + f"code = {code}\n")
        assert run_cli(capsys, "check-distance", "--config", str(path)) == (
            1, "", f"error: 65521^{k} - 1 codewords exceed budget 16777216\n")


def test_curve_from_roots_matches_curve_from_f(tmp_path, capsys):
    # roots = 0,1 names the roots of f = x^2 + x, so every output is the same.
    by_f = write_cfg(tmp_path)
    by_roots = tmp_path / "roots.ini"
    by_roots.write_text(Path(by_f).read_text().replace("f = 0,1,1", "roots = 0,1"))
    for cmd in ("curve-info", "places", "build-code"):
        expected = run_cli(capsys, cmd, "--config", by_f)
        assert expected[0] == 0 and expected[1]
        assert run_cli(capsys, cmd, "--config", by_roots.as_posix()) == expected


def test_unwritable_out_is_a_config_error(tmp_path, capsys):
    # --out into a missing directory, or onto a directory, exits 2 with one line.
    cfg = write_cfg(tmp_path)
    jobs = [(cmd, "--config", cfg) for cmd in sorted(COMMANDS)] + [("verify-example", "4")]
    for target in (tmp_path / "missing" / "x.txt", tmp_path):
        for job in jobs:
            code, out, err = run_cli(capsys, *job, "--out", str(target))
            assert code == 2 and out == ""
            assert err.startswith(f"config error: cannot write {target}: ")
            assert err.count("\n") == 1


def test_math_errors_exit_1(tmp_path, capsys):
    gcd_bad = tmp_path / "gcd.ini"
    gcd_bad.write_text("\n".join([
        "[field]", "p = 5", "e = 2", "modulus = 2,0,1",
        "[curve]", "m = 6", "lambda = 4", "f = 0,4,0,0,0,1", ""]))
    code, _, err = run_cli(capsys, "curve-info", "--config", gcd_bad.as_posix())
    assert code == 1
    assert "gcd" in err

    huge_p = tmp_path / "huge_p.ini"
    huge_p.write_text("\n".join([
        "[field]", "p = 1000000000000000003", "e = 1", "modulus = 0,1",
        "[curve]", "m = 2", "lambda = 1", "roots = 0", ""]))
    code, _, err = run_cli(capsys, "curve-info", "--config", huge_p.as_posix())
    assert code == 1
    assert "exceeds supported range" in err

    huge_e = tmp_path / "huge_e.ini"
    huge_e.write_text("\n".join([
        "[field]", "p = 2", "e = 20000", "modulus = " + ",".join(["1"] + ["0"] * 19999 + ["1"]),
        "[curve]", "m = 3", "lambda = 1", "roots = 0,1", ""]))
    code, _, err = run_cli(capsys, "curve-info", "--config", huge_e.as_posix())
    assert code == 1
    assert "p^e = 2^20000 exceeds supported range 2^16" in err

    # Each check of the field and curve gives one error line, not a traceback.
    herm = HERM_CFG.format(divisor="0,0,3", places="P1", coords="1", bound="6")
    field = "p = 2\ne = 2\nmodulus = 1,1,1"
    gf5 = herm.replace(field, "p = 5\ne = 1\nmodulus = 0,1")
    gf9 = herm.replace(field, "p = 3\ne = 2\nmodulus = 1,0,1")
    gf16 = herm.replace(field, "p = 2\ne = 4\nmodulus = 1,1,0,0,1")
    refused = [
        (herm.replace("modulus = 1,1,1", "modulus = 1,0,1"),
         "modulus [1, 0, 1] is reducible over GF(2)"),
        (herm.replace("p = 2", "p = 4"), "p=4 is not prime"),
        (herm.replace("f = 0,1,1", "f = 0,1,2"), "f must be monic"),
        (gf5.replace("f = 0,1,1", "f = 2,0,1"), "f has 0 distinct rational roots but degree 2"),
        (herm.replace("f = 0,1,1", "roots = 1,1"), "roots of f must be pairwise distinct"),
        (gf9.replace("f = 0,1,1", "roots = 1"), "characteristic 3 divides m=3"),
        (gf16.replace("f = 0,1,1", "f = -1,1"), "-1 is not an element code of GF(16)"),
        (gf16.replace("f = 0,1,1", "f = 0,99,0,0,1"), "99 is not an element code of GF(16)"),
    ]
    for text, message in refused:
        path = tmp_path / "math.ini"
        path.write_text(text)
        assert run_cli(capsys, "curve-info", "--config", path.as_posix()) == (
            1, "", f"error: {message}\n")

    # A negative evaluation-set size is refused, not read as a slice end.
    neg_n = write_cfg(tmp_path)
    with open(neg_n, "a", encoding="utf-8") as fh:
        fh.write("n = -1\n")
    for extra in ((), ("--seed", "5")):
        for cmd in ("build-code", "check-distance"):
            code, out, err = run_cli(capsys, cmd, "--config", neg_n, *extra)
            assert code == 1 and out == ""
            assert "n=-1" in err


def test_zero_flags_are_not_ignored(tmp_path, capsys):
    # An explicit 0 wins over the config value and the default.
    cfg = write_cfg(tmp_path, places="P1")
    for cmd in ("pure-gaps", "box-search"):
        for bound in ("0", "-3"):
            code, out, err = run_cli(capsys, cmd, "--config", cfg, "--bound", bound)
            assert (code, out, err) == (2, "", f"config error: bound must be >= 1, got {bound}\n")
    for cmd in ("check-distance", "pure-gaps", "box-search"):
        code, out, err = run_cli(capsys, cmd, "--config", cfg, "--budget", "0")
        assert code == 1 and out == ""
        assert "exceed budget 0" in err


HUGE_M_CFG = "\n".join([
    "[field]", "p = 5", "e = 2", "modulus = 2,0,1",
    "[curve]", "m = 1000000007", "lambda = 1", "f = 0,1,0,0,0,1",
    "[job]", "places = P1,P2", "bound = 100000000", "budget = 1000", ""])
HERM_JOB = HERM_CFG.format(divisor="0,0,3", places="P1", coords="1", bound="6")
SEED_2_BUILD = (0, "4 1 4\n3 2 1 0\n", "selection seed=2 n=4\nbound goppa_omega 3\n")

# One row per value the job reader merges: the [job] keys set over the base
# config and the flags given.  A non-zero --key beats key=, key= beats the
# default, and an empty key= means the default.  (exit, stdout, stderr) is exact.
PRECEDENCE = [
    ("bound-flag", "pure-gaps", HERM_JOB, {"bound": "0"}, ("--bound", "6"), (0, "1\n", "")),
    ("bound-key", "pure-gaps", HERM_JOB, {"bound": "6"}, (), (0, "1\n", "")),
    ("bound-empty", "pure-gaps", HERM_JOB, {"bound": ""}, (),
     (2, "", "config error: pure-gaps needs --bound or bound= in [job]\n")),
    ("budget-flag", "pure-gaps", HERM_JOB, {"budget": "0"}, ("--budget", "1"), (0, "1\n", "")),
    ("budget-key", "pure-gaps", HERM_JOB, {"budget": "0"}, (),
     (1, "", "error: 1 candidate tuples exceed budget 0\n")),
    ("budget-empty", "pure-gaps", HUGE_M_CFG, {"budget": ""}, (),
     (1, "", "error: 10000000000000000 candidate tuples exceed budget 16777216\n")),
    ("seed-flag", "build-code", HERM_JOB, {"n": "4", "seed": "1"}, ("--seed", "2"), SEED_2_BUILD),
    ("seed-flag-alone", "build-code", HERM_JOB, {"n": "4"}, ("--seed", "2"), SEED_2_BUILD),
    ("seed-key", "build-code", HERM_JOB, {"n": "4", "seed": "2"}, (), SEED_2_BUILD),
    ("seed-empty", "build-code", HERM_JOB, {"n": "4", "seed": ""}, (),
     (0, "4 1 4\n2 1 2 1\n", "selection drop-highest n=4\nbound goppa_omega 3\n")),
]


@pytest.mark.parametrize("command,base,keys,flags,expected", [row[1:] for row in PRECEDENCE],
                         ids=[row[0] for row in PRECEDENCE])
def test_flag_beats_key_beats_default(tmp_path, capsys, command, base, keys, flags, expected):
    cp = configparser.ConfigParser()
    cp.read_string(base)
    cp["job"].update(keys)
    path = tmp_path / "job.ini"
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)
    assert run_cli(capsys, command, "--config", str(path), *flags) == expected


def test_gap_searches_refuse_over_budget(tmp_path, capsys):
    # gaps.ini tests 10^4 candidate tuples: one 10-gap axis per place.
    cfg = str(WORKLOADS / "gaps.ini")
    for cmd in ("pure-gaps", "box-search"):
        code, out, err = run_cli(capsys, cmd, "--config", cfg, "--budget", "1")
        assert code == 1 and out == ""
        assert "10000 candidate tuples exceed budget 1" in err
    text = (WORKLOADS / "gaps.ini").read_text() + "budget = 9999\n"
    path = tmp_path / "gaps_budget.ini"
    path.write_text(text)
    code, _, err = run_cli(capsys, "box-search", "--config", str(path))
    assert code == 1 and "exceed budget 9999" in err


def test_gap_axis_scan_refuses_over_budget(tmp_path, capsys):
    # m = 10^9 + 7 puts g near 2 * 10^9, so bound = 10^8 allows up to 10^8 gaps
    # per axis and 10^16 pairs: refused before either one-point scan of 10^8
    # tests, in well under a second.  With a budget above 10^16 the one-point
    # scan refuses itself before it starts.
    path = tmp_path / "huge_m.ini"
    path.write_text(HUGE_M_CFG)
    refusals = [((), "10000000000000000 candidate tuples exceed budget 1000"),
                (("--budget", str(10 ** 17)),
                 "100000000 one-point gap candidates exceed budget 16777216")]
    for cmd in ("pure-gaps", "box-search"):
        for flags, message in refusals:
            start = time.perf_counter()
            code, out, err = run_cli(capsys, cmd, "--config", str(path), *flags)
            assert time.perf_counter() - start < 1.0
            assert (code, out) == (1, "")
            assert err == f"error: {message}\n"


def test_lattice_scan_refuses_over_budget(tmp_path, capsys):
    # deg G = 10^9: listing the basis would make its ell(G) = 10^9 points, refused
    # before any is made; ell and the floor are read off the residue classes.
    cfg = write_cfg(tmp_path, divisor="0,0,1000000000")
    assert run_cli(capsys, "rr-basis", "--config", cfg) == (
        1, "", "error: 1000000000 basis monomials exceed budget 16777216\n")
    # Riemann-Roch: deg G > 2g - 2 gives ell(G) = deg G + 1 - g, and deg G >= 2g
    # leaves L(G) without base points, so G is its own floor.
    g = RamificationData(3, 2).g
    assert run_cli(capsys, "dim", "--config", cfg) == (0, f"{10 ** 9 + 1 - g}\n", "")
    assert run_cli(capsys, "floor", "--config", cfg) == (0, "0 0 1000000000\n", "")

    # y^(10^9 + 1) = x(x + 1) over GF(4): the m residue classes would take
    # 2 * (10^9 + 1) ceilings, refused before the first in well under a second
    # by every job that reads them, whatever --budget says.
    huge_m = tmp_path / "huge_m.ini"
    huge_m.write_text("\n".join([
        "[field]", "p = 2", "e = 2", "modulus = 1,1,1",
        "[curve]", "m = 1000000001", "lambda = 1", "roots = 0,1",
        "[job]", "divisor = 0,0,10", ""]))
    for cmd in ("dim", "floor", "rr-basis", "build-code", "check-distance"):
        start = time.perf_counter()
        assert run_cli(capsys, cmd, "--config", str(huge_m), "--budget", str(10 ** 17)) == (
            1, "", "error: 2000000002 residue-class terms exceed budget 16777216\n"), cmd
        assert time.perf_counter() - start < 1.0


def test_verify_example_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify-example", "4")
    assert code == 0
    assert "PASS code parameters: [254,228]" in out
    # The published pure-gap box of example 3 overreaches at (9, 1, 3); the
    # reproduction reports the claim as stated and fails.
    code, out, _ = run_cli(capsys, "verify-example", "3")
    assert code == 1
    assert ("FAIL pure gap box {8..9}x{1}x{1..3}: 5/6 tuples are pure gaps; "
            "failing: [(9, 1, 3)]") in out
    assert "NOTE the published box overreaches" in out
    assert run_cli(capsys, "verify-example", "7") == (
        2, "", "config error: verify-example needs a number in 1-4\n")
    with pytest.raises(ValueError, match="no example 5"):
        verify.verify_example(5)


def test_example_range_text_matches_the_examples():
    # Written out in cli so that parsing the command line does not run verify.
    assert EXAMPLE_RANGE == f"{min(verify.EXAMPLES)}-{max(verify.EXAMPLES)}"


def test_cli_resolves_the_set_up_names_from_commands():
    # perfbench/setup_probe.py calls cli.build_curve(cli.load_config(path)).
    assert cli.load_config is commands.load_config
    assert cli.build_curve is commands.build_curve
    for name in ("job_reader", "COMMANDS", "no_such_name"):
        with pytest.raises(AttributeError, match=name):
            getattr(cli, name)


# SHA-256 of verify-example stdout and its exit status, pinned from the
# pair-scan box search that preceded top-corner ranking.  Examples 1 and 2
# run box_search; example 3 reports the refuted published box and exits 1.
GOLDEN_VERIFY = [
    (1, 0, "5e3af56d2528d3077e98f09a6dfc6449c57691d4cb97af220a7ff931e31e0490"),
    (2, 0, "2869933a63c14dade88404a3b9b6772d671482cba0cdd58a7ca6490c0fea330b"),
    (3, 1, "cc25788de05232a63f3a6bb5343f1a961c187b0b7d498db8b870904a6aff2e8c"),
    (4, 0, "2e2c60f8602d7c55de3d87abc861080170e7a337c12168a347cfffb01bbf94fb"),
]


@pytest.mark.parametrize("example,status,digest", GOLDEN_VERIFY,
                         ids=[f"example{n}" for n, _, _ in GOLDEN_VERIFY])
def test_verify_example_golden_hashes(capsys, example, status, digest):
    code, out, err = run_cli(capsys, "verify-example", str(example))
    assert (code, err) == (status, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# The two ways a CLI process starts, both ending in cli.run: `python -m` and
# the `kummer-codes` console script, which pyproject.toml points at run.
ENTRY_POINTS = {"module": ["-m", "kummercodes.cli"],
                "run": ["-c", "from kummercodes.cli import run; run()"]}


def cli_command(*argv, entry="module"):
    """A CLI process on src/ (first, as under pytest's pythonpath, so a checkout
    needs no install) with stdout block-buffered, as it is by default."""
    path = [str(WORKLOADS.parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    env.pop("PYTHONUNBUFFERED", None)
    return [sys.executable, *ENTRY_POINTS[entry], *argv], env


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_verify_example_runs_through_each_entry_point(entry):
    # "run" is what the generated `kummer-codes` wrapper calls.
    argv, env = cli_command("verify-example", "1", entry=entry)
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.count("PASS") >= 6


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_a_config_error_of_the_commands_exits_2_through_each_entry_point(tmp_path, entry):
    # commands raises the package's one ConfigError: a module that imported
    # kummercodes.cli would run a second cli beside `python -m`'s __main__,
    # whose ConfigError main's except clause would not catch (exit 1).
    argv, env = cli_command("dim", "--config", write_cfg(tmp_path, divisor="0,3"), entry=entry)
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "config error: divisor needs 3 coefficients (s1..s2, t), got 2\n")


def test_help_golden_hash():
    # Pinned from argparse's help at 80 columns; the text is written out now,
    # so $COLUMNS no longer changes it.
    argv, env = cli_command("--help")
    for columns in ("80", "40"):
        proc = subprocess.run(argv, capture_output=True, text=True,
                              env=dict(env, COLUMNS=columns))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == (
            "b59ec8fb16bdf6dee4c9d2596663b7d9c26bd07b036b0d35f9541323c0941f82")


def test_console_script_is_run():
    # The one [project.scripts] entry resolves to cli.run; pyproject.toml is read
    # as text, since Python 3.10 has no tomllib.
    text = (WORKLOADS.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    entries = re.findall(r'^([\w-]+) = "([\w.]+):(\w+)"$', section, re.M)
    assert [name for name, _, _ in entries] == ["kummer-codes"]
    _, module, attribute = entries[0]
    assert getattr(importlib.import_module(module), attribute) is cli.run


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_fast_exit_drops_no_output(tmp_path, entry):
    # run ends the process by os._exit, which flushes nothing: everything
    # main wrote must be out by then, on block-buffered streams.
    places = WORKLOADS / "places.ini"
    argv, env = cli_command("places", "--config", str(places), entry=entry)
    proc = subprocess.run(argv, capture_output=True, env=env)
    golden = json.loads((WORKLOADS.parent / "golden.json").read_text(encoding="utf-8"))
    assert (proc.returncode, proc.stderr, len(proc.stdout)) == (0, b"", 551_846)
    assert hashlib.sha256(proc.stdout).hexdigest() == golden["places"]["sha256"]

    # The construct job with G = 260 P_inf, past 2g - 2 = 238, so that a
    # bound note follows the 236 KB file.
    config_path, out = tmp_path / "construct.ini", tmp_path / "code.txt"
    config_path.write_text((WORKLOADS / "construct.ini").read_text().replace(",180\n", ",260\n"))
    argv, env = cli_command("build-code", "--config", str(config_path), "--out", str(out),
                            entry=entry)
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    config = load_config(str(config_path))
    lines, notes = COMMANDS["build-code"](build_curve(config), job_reader({}, config))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "".join(notes) == "selection drop-highest n=384\nbound goppa_omega 22\n"
    assert out.read_text(encoding="utf-8") == "".join(lines)

    argv, env = cli_command("dim", entry=entry)
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "config error: this command needs --config\n")


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_closed_stdout_pipe_is_a_config_error(entry):
    # The reader stops after the first of the 32,769 lines (551,846 bytes,
    # more than a pipe holds), as `| head -1` does: one line, no traceback.
    argv, env = cli_command("places", "--config", str(WORKLOADS / "places.ini"), entry=entry)
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"kind,mu,x,y\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert (proc.wait(), err) == (2, "config error: cannot write stdout: Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_full_stdout_is_a_config_error(entry):
    # verify-example's 316 bytes sit in the stdout buffer until main flushes it.
    argv, env = cli_command("verify-example", "2", entry=entry)
    with open("/dev/full", "w", encoding="utf-8") as full:
        proc = subprocess.run(argv, env=env, stdout=full, stderr=subprocess.PIPE, text=True)
    assert (proc.returncode, proc.stderr) == (
        2, "config error: cannot write stdout: No space left on device\n")


EXAMPLE_1_CFG = """
[field]
p = 3
e = 4
modulus = 2,1,0,0,1

[curve]
m = 5
lambda = 1
f = 0,1,0,0,0,0,0,0,0,1

[job]
divisor = 51,0,0,0,0,0,0,0,0,1
"""

EXAMPLE_2_CFG = """
[field]
p = 5
e = 2
modulus = 2,0,1

[curve]
m = 6
lambda = 1
f = 0,1,0,0,0,1

[job]
divisor = 26,1,0,0,0,0
"""

CONSTRUCT_CFG = (WORKLOADS / "construct.ini").read_text()

# lambda = 2 gives B = -1 (every example curve has lambda = 1 and B = 0);
# the divisor leaves P_inf, P_2 and P_4 in the evaluation set.
LAMBDA_2_CFG = """
[field]
p = 2
e = 6
modulus = 1,1,0,0,0,0,1

[curve]
m = 9
lambda = 2
f = 0,1,1,0,1

[job]
divisor = 9,0,2,0,0
"""

# SHA-256 of build-code stdout, pinned from the scalar field arithmetic
# that preceded the log-domain matrix kernel.
GOLDEN_BUILD_CODE = [
    ("example1", EXAMPLE_1_CFG, "l",
     "1cdccfebf5071b9f819e8837c56e720203d2dcde9cebd933848d8ba48cd5109c"),
    ("example1", EXAMPLE_1_CFG, "omega",
     "432cc0e5096822ba9cdb1ddf9d6d0aa5281bb929b232927a0b7db9292fc85464"),
    ("example2", EXAMPLE_2_CFG, "l",
     "b3bc21ffa06e748acfa6ed64f3a24a8bd2716009fcbcff47c618edd5320925e8"),
    ("example2", EXAMPLE_2_CFG, "omega",
     "f4c64e92e796d840aff0afb42ae909dac7627b41c5c8b55d41db1557e3ecd3a2"),
    ("construct", CONSTRUCT_CFG, "l",
     "23a0f24081ca7bcea2d4ccde9416d977abe026d107f785ff4297cab1e240ed67"),
    ("construct", CONSTRUCT_CFG, "omega",
     "df88ee0db51f49bca8f0742f669e0eb8f4b9401c83a1483d9b83226cb769e296"),
    # Pinned from the scalar evaluator at P_mu and P_inf that preceded
    # the per-place log vectors.
    ("lambda2", LAMBDA_2_CFG, "l",
     "abf39ae243849dfdd3f7ca6d1c8c69ae0b6158a0258e058060a8378817d20a06"),
    ("lambda2", LAMBDA_2_CFG, "omega",
     "c8ab87d2505aa5eb7f1bae4df59b8b5424a8876c64f3a88ae2f0600a6875c598"),
    # ell(G) = 0: the evaluation matrix has no rows and C_Omega is the
    # whole space, an 8 x 8 identity.  Pinned from the C_L-then-dual route.
    ("ell0", HERM_CFG.format(divisor="0,0,-1", places="P1", coords="1", bound="6"), "omega",
     "7b59fe93f6e5614623d784734fba5024decf57ddbdf1519a810d0ef606146903"),
]


@pytest.mark.parametrize("name,text,kind,digest", GOLDEN_BUILD_CODE,
                         ids=[f"{name}-{kind}" for name, _, kind, _ in GOLDEN_BUILD_CODE])
def test_build_code_golden_hashes(tmp_path, capsys, name, text, kind, digest):
    cp = configparser.ConfigParser()
    cp.read_string(text)
    cp["job"]["code"] = kind
    path = tmp_path / f"{name}.ini"
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)
    code, out, _ = run_cli(capsys, "build-code", "--config", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


EXAMPLE_2_PURE_GAPS_CFG = EXAMPLE_2_CFG.replace(
    "divisor = 26,1,0,0,0,0", "places = P1,P2,Pinf\nbound = 25")
# C_L of G = 10 P_inf on example 2's curve: the [125, 4] code over GF(25), d = 115.
EXAMPLE_2_DISTANCE_CFG = EXAMPLE_2_CFG.replace(
    "divisor = 26,1,0,0,0,0", "divisor = 0,0,0,0,0,10\ncode = l")

# ROADMAP's W5: the 262,145 places of y^65 = x^64 + x over GF(4096).
W5_CFG = """
[field]
p = 2
e = 12
modulus = 1,0,0,1,0,0,0,0,0,0,0,0,1

[curve]
m = 65
lambda = 1
f = 0,1,{}1
""".format("0," * 62)

# Odd p, lambda = 3 and d = gcd(4, 24) = 4 points in a full fibre; 0 is not a
# root, and f(0)^3 = -1 is a 4th power, so x = 0 has a fibre.
ODD_LAMBDA_CFG = """
[field]
p = 5
e = 2
modulus = 2,0,1

[curve]
m = 4
lambda = 3
roots = 1,2,3
"""

# SHA-256 of stdout, pinned from the exhaustive searches that preceded
# gap-axis pruning and scalar-normalised distance enumeration.  Bound 25
# lies above 2g - 1 = 19 on example 2, so the clamp is exercised.
GOLDEN_SEARCHES = [
    pytest.param("check-distance", (WORKLOADS / "distance.ini").read_text(),
                 "2a57042a43991d2ca310938e6802d7283954e38c825a548c4bee89c45238b43b",
                 id="check-distance"),
    # Odd p: pinned from the list-and-F.add search that preceded the one
    # packed comparison at the last row.
    pytest.param("check-distance", EXAMPLE_2_DISTANCE_CFG,
                 "e623772cc677b6536e0545bc9870ad53a37b5cf0187fcc9851641b52344c7ee8",
                 id="check-distance-example2"),
    pytest.param("box-search", (WORKLOADS / "gaps.ini").read_text(),
                 "115dda11d6f5ce2b1b2815a15700eec6e468d5f17f25ab4113094b553c8d7fc5",
                 id="box-search"),
    pytest.param("pure-gaps", EXAMPLE_2_PURE_GAPS_CFG,
                 "bb15f3dce2d4fb350579804f54c600354074888e0c72e45509fd9f70097362f2",
                 id="pure-gaps"),
    # Pinned from the frozen-dataclass places and the polynomial-route
    # GF(1024) tables, before the tuple places and carry-less set-up.
    pytest.param("places", (WORKLOADS / "places.ini").read_text(),
                 "84aaa9ea88ad03926e2de43f64cb8b0fd88acc2b084d95b0300c574899b9930f",
                 id="places"),
    pytest.param("curve-info", (WORKLOADS / "places.ini").read_text(),
                 "114f6c866d7a8e0c3bd0db22ef29ce62c7449f8343b7cadf05ad4731541b71a2",
                 id="curve-info"),
    # Pinned from the per-root log sums and per-fibre sorts that preceded
    # the term-wise f and the coset tuples shared by the fibres.
    pytest.param("places", W5_CFG,
                 "6e776204b116a8cd382e649eb411b8500e5f6922df79bf181ff26cd44057524f",
                 id="places-w5"),
    pytest.param("places", EXAMPLE_1_CFG,
                 "456994f5936a732472097dd6bf51df79d718c8ebfa276f725656f5ce3430c388",
                 id="places-example1"),
    pytest.param("places", ODD_LAMBDA_CFG,
                 "d39021c69def498aeba6977d8814bba81e5b6eff2ffb095db5a7bc0e48fa5e38",
                 id="places-odd-lambda3"),
]


@pytest.mark.parametrize("command,text,digest", GOLDEN_SEARCHES)
def test_search_golden_hashes(tmp_path, capsys, command, text, digest):
    path = tmp_path / "job.ini"
    path.write_text(text)
    code, out, _ = run_cli(capsys, command, "--config", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# (p, e, modulus) of GF(q), q <= 27, for the q^2 scan of test_curve.
SCAN_FIELDS = [(2, 1, [0, 1]), (2, 2, [1, 1, 1]), (2, 3, [1, 1, 0, 1]), (2, 4, [1, 1, 0, 0, 1]),
               (3, 1, [0, 1]), (3, 2, [1, 0, 1]), (3, 3, [1, 2, 0, 1]), (5, 1, [0, 1]),
               (7, 1, [0, 1]), (5, 2, [2, 0, 1])]


@st.composite
def scan_configs(draw):
    """A valid curve y^m = f(x)^lambda over a field of SCAN_FIELDS: its field,
    m, lambda, the roots of f, and whether the config gives f= or roots=."""
    p, e, modulus = draw(st.sampled_from(SCAN_FIELDS))
    roots = draw(st.lists(st.integers(0, p ** e - 1), min_size=1, max_size=min(p ** e, 6),
                          unique=True))
    lam = draw(st.integers(1, 4))
    m = draw(st.sampled_from([m for m in range(2, 13)
                              if m % p and math.gcd(m, len(roots) * lam) == 1]))
    return (p, e, modulus), m, lam, roots, draw(st.booleans())


def places_csv(places):
    """The places command's CSV of a list of places."""
    kinds = ("infinity", "ramified", "affine")
    return "kind,mu,x,y\n" + "".join(f"{kinds[pl.kind_rank]},{pl.mu},{pl.x},{pl.y}\n"
                                      for pl in places)


@settings(max_examples=150, deadline=None)
@given(scan_configs())
@example(((2, 4, [1, 1, 0, 0, 1]), 5, 1, [0, 1], True))  # p = 2, 0 a root, f=
@example(((5, 2, [2, 0, 1]), 4, 3, [1, 2, 3], False))  # odd p, x = 0 on the curve
@example(((7, 1, [0, 1]), 3, 4, [0, 2], True))
@example(((2, 3, [1, 1, 0, 1]), 7, 2, [3, 5], True))
def test_places_text_matches_the_scan(case):
    (p, e, modulus), m, lam, roots, by_f = case
    F = FiniteField(p, e, modulus)
    curve_sec = {"m": str(m), "lambda": str(lam)}
    if by_f:
        coeffs = [1]  # prod (x - alpha), low degree first
        for alpha in roots:
            shifted = [0] + coeffs
            coeffs = [F.add(hi, F.mul(F.neg(alpha), lo)) for hi, lo in zip(shifted, coeffs + [0])]
        curve_sec["f"] = ",".join(map(str, coeffs))
    else:
        curve_sec["roots"] = ",".join(map(str, roots))
    config = {"field": {"p": str(p), "e": str(e), "modulus": ",".join(map(str, modulus))},
              "curve": curve_sec}
    curve = build_curve(config)
    lines, notes = COMMANDS["places"](curve, job_reader({}, config))
    text = "".join(lines)
    scan = brute_force_places(KummerCurve(F, m, lam, roots))
    assert (text, notes) == (places_csv(scan), ())
    assert curve.num_places() == text.count("\n") - 1
