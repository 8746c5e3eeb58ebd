"""Self-tests of the benchmark: metric names, tracer bindings, known counts,
and the output checks.  Run with ``python3 -m pytest perfbench`` from the
root of a checkout (the traced runs take about a minute)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from layertrace import METRICS
from run import END_TO_END, ROOT, SRC
from workloads import PREFIX, WORKLOADS, compare_reference, read_csv, reference_path

HERE = Path(__file__).resolve().parent


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result(*args: str) -> dict:
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == METRICS


def test_every_binding_of_a_traced_function_is_wrapped():
    code = """
import importlib, sys
import qpdyn.harness.cli
import layertrace
mods = {m: importlib.import_module(f"qpdyn.{m}") for m in
        ("lattice", "operators", "greens", "dynamics", "harness.recipes")}
names = {"operators": ["assemble", "site_list"], "lattice": ["enumerate_shapes"],
         "greens": ["greens", "resolvent_norm", "classify_box", "is_good",
                    "is_strongly_good", "scan_boxes", "bad_set"],
         "dynamics": ["evolve", "moment_series", "amplitude_table_direct",
                      "amplitude_table_parseval", "fit_log_exponent"],
         "harness.recipes": ["execute_tasks"]}
originals = {id(getattr(mods[m], n)): f"{m}.{n}" for m, ns in names.items() for n in ns}
layertrace.install()
stale = [f"{name}.{attr}" for name, mod in sys.modules.items()
         if name.startswith("qpdyn") for attr, v in vars(mod).items()
         if id(v) in originals]
assert not stale, stale
assert mods["greens"].sla.solve.__wrapped__ is importlib.import_module("scipy.linalg").solve
assert hasattr(mods["dynamics"].np.linalg.eigh, "__wrapped__")
assert hasattr(mods["lattice"].ElementaryRegion.points, "__wrapped__")
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_traced_box_scan_counts_and_outputs():
    res = result("--workload", "box-scan-2d", "--seed", "0", "--seconds", "1",
                 "--trace", "1")
    assert res["correct"], res  # includes traced CSVs == untraced CSVs
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["greens.boxes"] == 4410
    assert m["greens.factorisations_per_box"] == 2.0
    assert m["operators.assemble.calls"] == 8820
    assert m["harness.rows_written"] == 4410
    assert m["dynamics.eigh.calls"] == 0


def test_traced_moment_instantaneous_counts():
    res = result("--workload", "moment-instantaneous", "--seed", "0",
                 "--seconds", "1", "--trace", "1")
    assert res["correct"], res
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["dynamics.eigh.calls"] == 1
    assert m["dynamics.eigh.max_order"] == 4097
    assert m["greens.boxes"] == 0


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sublinear-1d", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _outputs_from_reference(tmp_path: Path, name: str, suffix: str, edit) -> None:
    """An output file holding the reference columns, with one row edited."""
    columns, rows = read_csv(reference_path(name, suffix))
    edit(rows)
    lines = [",".join(columns)] + [",".join(r[c] for c in columns) for r in rows]
    (tmp_path / f"{PREFIX}_{suffix}.csv").write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("bump, ok", [(0, True), (1, False)])
def test_reference_counts_must_match_exactly(tmp_path, bump, ok):
    def edit(rows):
        rows[3]["badCount"] = str(int(rows[3]["badCount"]) + bump)

    _outputs_from_reference(tmp_path, "sublinear-1d", "counts", edit)
    _outputs_from_reference(tmp_path, "sublinear-1d", "fit", lambda rows: None)
    assert (compare_reference(WORKLOADS["sublinear-1d"], tmp_path) == []) == ok


@pytest.mark.parametrize("rel, ok", [(1e-14, True), (1e-11, False)])
def test_reference_moments_within_1e_12(tmp_path, rel, ok):
    def edit(rows):
        rows[7]["value"] = repr(float(rows[7]["value"]) * (1.0 + rel))

    _outputs_from_reference(tmp_path, "moment-time-averaged", "moments", edit)
    assert (compare_reference(WORKLOADS["moment-time-averaged"], tmp_path) == []) == ok
