"""Tests of the benchmark itself.

Run from the repository root (about a minute):

    python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py, so the package's own test run does not
collect it.  Copies of the checkout are made under perfbench/out/.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=run.ROOT):
    """Run run.py from cwd; return (exit code, stdout lines)."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


@pytest.fixture
def scratch():
    run.OUT_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR))
    yield path
    shutil.rmtree(path)


def copy_bench(dest, with_src):
    shutil.copy(run.ROOT / "BENCHMARK.json", dest)
    shutil.copytree(run.BENCH_DIR, dest / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_src:
        shutil.copytree(run.ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))


def test_metric_names_and_units_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == run.END_TO_END
    assert list(layers) == [m for m, _, _ in run.PER_LAYER] + run.DERIVED
    assert all(run.unit_of(name) == unit for name, unit in layers.items())
    names = list(e2e) + list(layers) + [w["name"] for w in BENCHMARK["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(run.WORKLOADS)


def test_every_workload_reports_every_end_to_end_metric():
    code, out = bench("--workload", "all", "--seed", "7", "--seconds", "1")
    result = json.loads(out[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    for workload in run.WORKLOADS:
        for name, unit in run.END_TO_END.items():
            metric = result["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == unit and metric["value"] > 0


def test_traced_run_reports_every_per_layer_metric():
    code, out = bench("--workload", "build", "--seconds", "1", "--trace", "1")
    result = json.loads(out[-1])
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert result["metrics"]["gf.rref.calls"]["value"] > 0


# The layers each workload exists to stress; together they must cover at
# least 90% of the traced in-process job time.
DOMINANT = {
    "build": ["gf.rref.s", "agcode.build_cl.self_s", "agcode.export_text.s",
              "gf.nullspace.self_s"],
    "search": ["agcode.brute_force_distance.s", "weierstrass.box_search.s",
               "curve.places.s", "curve.find_roots.s", "gf.field_init.s"],
}


def test_dominant_layers_cover_the_traced_job_time():
    code, out = bench("--workload", "all", "--seconds", "1", "--trace", "1")
    metrics = json.loads(out[-1])["metrics"]
    assert code == 0
    for workload, layers in DOMINANT.items():
        covered = sum(metrics[f"{workload}.{name}"]["value"] for name in layers)
        assert covered >= 0.9 * metrics[f"{workload}.trace.job_s"]["value"], workload


def test_tampered_golden_hash_fails_the_run(scratch):
    copy_bench(scratch, with_src=True)
    golden_path = scratch / "perfbench" / "golden.json"
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    sha = golden["gaps"]["sha256"]
    golden["gaps"]["sha256"] = ("0" if sha[0] != "0" else "1") + sha[1:]
    golden_path.write_text(json.dumps(golden), encoding="utf-8")
    code, out = bench("--workload", "search", "--seconds", "1", cwd=scratch)
    result = json.loads(out[-1])
    assert code != 0
    assert not result["correct"] and result["failed"] > 0


def test_directory_without_the_program_fails_without_a_result(scratch):
    copy_bench(scratch, with_src=False)
    code, out = bench("--workload", "search", "--seconds", "1", cwd=scratch)
    assert code != 0
    assert not any(line.startswith("{") for line in out)
