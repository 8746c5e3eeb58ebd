import csv
import importlib
import json
import logging
import math
import re
from pathlib import Path

import numpy as np
import pytest

from qpdyn.harness import cli, recipes
from qpdyn.harness.config import (
    ConfigError,
    config_from_raw,
    config_hash,
    load_config,
    parse_config_text,
    parse_value,
)
from qpdyn import dynamics
from qpdyn.arithmetic import discrepancy, orbit_points
from qpdyn.dynamics import amplitude_table_parseval, evolve
from qpdyn.harness.recipes import RECIPES, run_experiment, run_sweep
from qpdyn.operators import LINEAR_FORM, ShiftDynamics, StateVector, almost_mathieu

GOLDEN = repr((math.sqrt(5.0) - 1.0) / 2.0)

AMO_MODEL = f"""
model.preset = amo
model.lambda = 3.0
model.alpha = {GOLDEN}
model.phase = 0.3
"""

# a 2-d Laplacian with a rank-one cosine potential: its boxes take the
# batched engine, whose volumes are capped at 4500 points
LAPLACIAN_2D = f"""
model.kernel = laplacian
model.dimension = 2
model.potential.cos.1 = 6.0
model.dynamics.mode = rank-one
model.dynamics.alpha = {GOLDEN},0.414
model.dynamics.phase = 0.3
"""


# a 1-d Laplacian on a 1-torus, for model keys added by each test
EXPLICIT_1D = f"""
model.kernel = laplacian
model.dynamics.alpha = {GOLDEN}
"""


# a boolean CSV cell
BOOLEAN = {"true": True, "false": False}


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def assert_numeric_cells_parse(path, columns):
    """Every cell of the named columns reads as a float."""
    rows = path.read_text().splitlines()
    header = rows[0].split(",")
    cells = [dict(zip(header, row.split(","))) for row in rows[1:]]
    assert cells
    for cell in cells:
        for column in columns:
            float(cell[column])


class TestConfigParsing:
    def test_scalars_and_lists(self):
        raw = parse_config_text(
            """
            # comment
            a.b = 2
            a.c = 2.5       # trailing comment
            flag = true
            name = amo
            grid = 1,2,3
            """
        )
        assert raw == {
            "a.b": 2,
            "a.c": 2.5,
            "flag": True,
            "name": "amo",
            "grid": (1, 2, 3),
        }

    def test_linspace_and_logspace(self):
        assert parse_value("linspace:0,1,3") == (0.0, 0.5, 1.0)
        grid = parse_value("logspace:1,100,3")
        assert grid == pytest.approx((1.0, 10.0, 100.0))

    def test_empty_list_token(self):
        assert parse_value(",") == ()

    def test_bad_lines_raise(self):
        with pytest.raises(ConfigError):
            parse_config_text("just some words\n")
        with pytest.raises(ConfigError):
            parse_config_text("grid = linspace:1,2\n")

    def test_hash_ignores_comments_and_order(self):
        a = "x = 1\ny = 2\n"
        b = "y = 2\n# hi\nx = 1   # one\n"
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash("x = 1\ny = 3\n")

    def test_validation_collects_every_issue(self, tmp_path):
        p = write(
            tmp_path,
            "bad.cfg",
            """
            experiment = moment-growth
            model.preset = amo
            moments.p = -1.0
            moments.times = 1,2
            """,
        )
        with pytest.raises(ConfigError) as err:
            run_experiment(load_config(p), tmp_path / "out")
        issues = "\n".join(err.value.issues)
        assert "model.lambda" in issues
        assert "model.alpha" in issues
        assert "positive" in issues
        # a removed key is rejected, not read as the default epsilon
        p = write(
            tmp_path,
            "scan.cfg",
            f"""
            experiment = bad-set-scan
            {AMO_MODEL}
            scan.sizes = 6
            scan.sub_size = 2
            scan.horizon = 0
            """,
        )
        with pytest.raises(ConfigError) as err:
            run_experiment(load_config(p), tmp_path / "out")
        assert err.value.issues == ["unknown key 'scan.horizon'"]

    def test_readme_moment_config_plans(self, tmp_path):
        # every key of the documented example is one a recipe reads
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (text,) = [block for block in re.findall(r"```ini\n(.*?)```", readme, re.S)
                   if "experiment = moment-growth" in block]
        cfg = load_config(write(tmp_path, "readme.cfg", text))
        plan = RECIPES[cfg.experiment](cfg)
        assert [t.kwargs["max_doublings"] for t in plan.tasks] == [2]

    def test_readme_library_quick_start_runs(self):
        # the python block of "Quick start (library)" runs as written
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Quick start (library)", 1)[1]
        (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
        scope = {}
        exec(compile(code, "README.md", "exec"), scope)
        direct, parseval = scope["direct"], scope["parseval"]
        assert abs(direct - parseval) <= 1e-12 * abs(direct)
        assert scope["report"].total_centers == 201

    def test_sub_size_and_sub_exponent_are_exclusive(self, tmp_path, capsys):
        # with both set, sub_size won and a sweep over sub_exponent changed
        # nothing but its axis column
        scan = f"{AMO_MODEL}scan.sizes = 20,30,40\nscan.sub_size = 4\n"
        for command, body in (
            ("sublinear", "scan.sub_exponent = 0.5\n"),
            ("sweep", "experiment = sweep\nsweep.recipe = sublinear\n"
                      "sweep.axes = scan.sub_exponent\n"
                      "scan.sub_exponent = 0.5\nsweep.values.scan.sub_exponent = 0.4,0.5\n"),
        ):
            p = write(tmp_path, "scan.cfg", scan + body)
            code = cli.main([command, "--config", str(p), "--out", str(tmp_path / "o")])
            assert code == 2
            err = capsys.readouterr().err
            assert "'scan.sub_size'" in err and "'scan.sub_exponent'" in err
        assert not (tmp_path / "o").exists()

    def test_experiment_mismatch(self, tmp_path):
        p = write(tmp_path, "x.cfg", "experiment = evolve\n")
        with pytest.raises(ConfigError, match="declares"):
            load_config(p, experiment="sublinear")


class TestRecipes:
    def test_evolve_writes_snapshots(self, tmp_path):
        p = write(
            tmp_path,
            "ev.cfg",
            """
            experiment = evolve
            model.preset = free-laplacian
            evolve.times = 0.0,1.0
            evolve.radius = 8
            output.prefix = ev
            """,
        )
        result = run_experiment(load_config(p), tmp_path / "out")
        body = (tmp_path / "out" / "ev_snapshots.csv").read_text().splitlines()
        assert body[0].startswith("experiment,config_hash,t,n0,re,im,prob")
        assert result.row_counts["ev_snapshots.csv"] > 0
        manifest = json.loads((tmp_path / "out" / "ev_manifest.json").read_text())
        assert manifest["config_hash"] == result.config_hash
        assert manifest["row_counts"] == result.row_counts

    def _discrepancy_rows(self, tmp_path, body):
        """The rows of one discrepancy-sweep, after checking that they are
        byte-identical at one and two workers and that each D_N is the
        discrepancy of its own orbit."""
        p = write(tmp_path, "disc.cfg",
                  f"experiment = discrepancy-sweep\n{body}\noutput.prefix = d\n")
        for workers in (1, 2):
            run_experiment(load_config(p), tmp_path / f"w{workers}", workers=workers)
        csvs = [(tmp_path / w / "d_discrepancy.csv").read_bytes() for w in ("w1", "w2")]
        assert csvs[0] == csvs[1]
        lines = csvs[0].decode().splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        for row in rows:
            b = int(row["b"])
            alpha = tuple(float(row[f"alpha{i}"]) for i in range(b))
            phase = tuple(float(row[f"x{i}"]) for i in range(b))
            pts = orbit_points(ShiftDynamics(LINEAR_FORM, alpha, phase), int(row["N"]))
            assert float(row["D_N"]) == discrepancy(pts, 32).value
        return rows

    def test_discrepancy_sweep_samples_phases(self, tmp_path):
        # each size runs the configured phase, then the same sampled phases
        rows = self._discrepancy_rows(
            tmp_path,
            f"orbit.alpha = {GOLDEN}\norbit.phase = 0.25\n"
            "disc.sizes = 10,20\ndisc.phase_samples = 2",
        )
        assert [row["N"] for row in rows] == ["10"] * 3 + ["20"] * 3
        phases = [row["x0"] for row in rows]
        assert phases[0] == phases[3] == "0.25"
        assert phases[1:3] == phases[4:6]
        assert len(set(phases)) == 3

    def test_discrepancy_phase_samples_cover_the_torus(self, tmp_path):
        # a sample is a point of T^2, not a point of its diagonal
        rows = self._discrepancy_rows(
            tmp_path,
            f"orbit.alpha = {GOLDEN},0.4142135623730951\n"
            "disc.sizes = 10\ndisc.phase_samples = 1",
        )
        assert len(rows) == 2
        assert rows[0]["x0"] == rows[0]["x1"] == "0.0"
        assert rows[1]["x0"] != rows[1]["x1"]

    def test_empty_grid_is_noop(self, tmp_path):
        p = write(
            tmp_path,
            "ly.cfg",
            f"""
            experiment = lyapunov-map
            {AMO_MODEL}
            lyapunov.energies = ,
            output.prefix = ly
            """,
        )
        result = run_experiment(load_config(p), tmp_path / "out")
        assert result.row_counts == {"ly_lyapunov.csv": 0}
        body = (tmp_path / "out" / "ly_lyapunov.csv").read_text().splitlines()
        assert len(body) == 1  # header only

    def test_moments_and_fit_outputs(self, tmp_path):
        p = write(
            tmp_path,
            "mom.cfg",
            f"""
            experiment = moment-growth
            {AMO_MODEL}
            moments.times = logspace:2,300,12
            moments.radius = 32
            output.prefix = mom
            """,
        )
        result = run_experiment(load_config(p), tmp_path / "out")
        assert result.row_counts["mom_moments.csv"] == 12
        fits = (tmp_path / "out" / "mom_fits.csv").read_text().splitlines()
        assert len(fits) == 2

    def test_scan_columns(self, tmp_path):
        p = write(
            tmp_path,
            "gs.cfg",
            f"""
            experiment = bad-set-scan
            {AMO_MODEL}
            scan.sizes = 6
            scan.sub_size = 2
            scan.energies = 0.0
            scan.epsilon = 0.01
            output.prefix = gs
            """,
        )
        result = run_experiment(load_config(p), tmp_path / "out")
        lines = (tmp_path / "out" / "gs_scan.csv").read_text().splitlines()
        assert lines[0] == (
            "experiment,config_hash,N,N1,E,eps,n0,shapeId,norm,"
            "worstPairDecayMargin,good,stronglyGood"
        )
        assert result.row_counts["gs_scan.csv"] == 13  # one shape, 13 centers

    def test_scan_manifests_record_max_residual(self, tmp_path):
        scan = f"""
            experiment = bad-set-scan
            {AMO_MODEL}
            scan.sizes = 6
            scan.sub_size = 2
            scan.energies = 0.0
            scan.epsilon = 0.01
            """
        sweep = scan + """
            sweep.recipe = bad-set-scan
            sweep.axes = scan.epsilon
            sweep.values.scan.epsilon = 0.1,0.01
            output.prefix = sw
            """
        sublinear = scan.replace("bad-set-scan", "sublinear").replace(
            "scan.sizes = 6", "scan.sizes = 6,8,10")
        run_experiment(load_config(write(tmp_path, "gs.cfg", scan)), tmp_path / "a",
                       prefix="gs")
        run_sweep(load_config(write(tmp_path, "sw.cfg", sweep)), tmp_path / "b")
        run_experiment(load_config(write(tmp_path, "sub.cfg", sublinear)),
                       tmp_path / "c", prefix="sub")
        for manifest in (tmp_path / "a" / "gs_manifest.json",
                         tmp_path / "b" / "sw_manifest.json",
                         tmp_path / "c" / "sub_manifest.json"):
            record = json.loads(manifest.read_text())
            assert 0.0 < record["max_resolvent_residual"] < 1e-10
            assert record["max_matrix_order"] == 5  # the box [-2, 2]

    def test_multi_energy_scan_rows_are_the_one_energy_runs(self, tmp_path):
        # one task per chunk of centers covers every energy; the rows still
        # come in (N, E, center, shape) order, at any worker count, and each
        # energy's rows are those of a run at that energy alone
        base = f"""
            experiment = bad-set-scan
            {LAPLACIAN_2D}
            scan.sizes = 5,6
            scan.sub_size = 1
            scan.epsilon = 0.001
            """
        energies = ("0.0", "2.5", "-1.0")
        p = write(tmp_path, "three.cfg",
                  base + f"scan.energies = {','.join(energies)}\n")
        for workers in (1, 2):
            run_experiment(load_config(p), tmp_path / f"w{workers}",
                           workers=workers, prefix="gs")
        one_worker, two_workers = (
            (tmp_path / w / "gs_scan.csv").read_bytes() for w in ("w1", "w2")
        )
        assert one_worker == two_workers
        header, *rows = one_worker.decode().splitlines()
        hash_col = header.split(",").index("config_hash")

        def cells(line):
            values = line.split(",")
            return values[:hash_col] + values[hash_col + 1 :]

        n_col = cells(header).index("N")

        singles = []
        for i, e in enumerate(energies):
            q = write(tmp_path, f"e{i}.cfg", base + f"scan.energies = {e}\n")
            run_experiment(load_config(q), tmp_path / f"e{i}", prefix="gs")
            one_header, *one = (
                (tmp_path / f"e{i}" / "gs_scan.csv").read_text().splitlines()
            )
            assert one_header == header
            singles.append([cells(line) for line in one])
        expected = [row for n in ("5", "6") for single in singles
                    for row in single if row[n_col] == n]
        assert [cells(line) for line in rows] == expected
        assert len(rows) == 3 * 5 * (11**2 + 13**2)  # 5 shapes of size 1

    def test_box_scan_split_into_tasks_keeps_its_row_order(self, tmp_path):
        # 25-site boxes at three energies: 218 centers a task, so each N is
        # three tasks, and the rows still come in (N, E, center, shape)
        # order, byte-identical at one and two workers
        from qpdyn.greens import scan_centers
        from qpdyn.lattice import enumerate_shapes

        energies = (0.0, 2.5, -1.0)
        p = write(tmp_path, "split.cfg", f"""
            experiment = bad-set-scan
            {LAPLACIAN_2D}
            scan.sizes = 10,11
            scan.sub_size = 2
            scan.energies = {','.join(map(str, energies))}
            scan.epsilon = 0.001
            """)
        plan = RECIPES["bad-set-scan"](load_config(p))
        assert [len(t.kwargs["centers"]) for t in plan.tasks] == [
            218, 218, 5, 218, 218, 93]
        for workers in (1, 2):
            run_experiment(load_config(p), tmp_path / f"w{workers}",
                           workers=workers, prefix="gs")
        one_worker, two_workers = (
            (tmp_path / w / "gs_scan.csv").read_bytes() for w in ("w1", "w2")
        )
        assert one_worker == two_workers
        header, *rows = one_worker.decode().splitlines()
        col = {name: i for i, name in enumerate(header.split(","))}
        got = [(int(r[col["N"]]), float(r[col["E"]]), int(r[col["n0"]]),
                int(r[col["n1"]]), int(r[col["shapeId"]]))
               for r in (line.split(",") for line in rows)]
        shapes = len(enumerate_shapes(2, 2))
        assert got == [(n, e, *center, shape)
                       for n in (10, 11) for e in energies
                       for center in scan_centers(n, 2)
                       for shape in range(shapes)]

    # two energies each: the 1-d recursion and the 2-d batched engine
    PER_BOX_SCANS = {
        "1d-recursion": (AMO_MODEL, "scan.sizes = 30\nscan.sub_size = 5\n"),
        "2d-engine": (LAPLACIAN_2D, "scan.sizes = 3\nscan.sub_size = 1\n"),
    }

    @pytest.mark.parametrize("model, scale", PER_BOX_SCANS.values(),
                             ids=PER_BOX_SCANS.keys())
    def test_scan_rows_are_the_per_box_verdicts(self, tmp_path, model, scale):
        # each row is classify_box of its shape, in enumerate_shapes order,
        # translated to its center, at its energy
        from qpdyn.greens import ClassificationParams, classify_box, scan_centers
        from qpdyn.lattice import enumerate_shapes

        p = write(tmp_path, "gs.cfg", f"""
            experiment = bad-set-scan
            {model}
            {scale}
            scan.energies = 0.0,2.5
            scan.epsilon = 0.001
            """)
        run_experiment(load_config(p), tmp_path / "out", prefix="gs")
        with open(tmp_path / "out" / "gs_scan.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        spec = recipes.RECIPES["bad-set-scan"](load_config(p)).tasks[0].kwargs["spec"]
        d, params = spec.dimension, ClassificationParams.for_spec(spec)
        (size,), (sub,) = {int(r["N"]) for r in rows}, {int(r["N1"]) for r in rows}
        shapes = enumerate_shapes(d, sub)
        coords = [f"n{a}" for a in range(d)]
        assert [(float(r["E"]), tuple(int(r[c]) for c in coords), int(r["shapeId"]))
                for r in rows] == [(e, center, shape) for e in (0.0, 2.5)
                                   for center in scan_centers(size, d)
                                   for shape in range(len(shapes))]
        for r in rows:
            region = shapes[int(r["shapeId"])].translate([int(r[c]) for c in coords])
            z = complex(float(r["E"]), float(r["eps"]))
            verdict = classify_box(spec, region, z, params)
            assert (BOOLEAN[r["good"]], BOOLEAN[r["stronglyGood"]]) == (
                verdict.good, verdict.strongly_good)
            assert math.isclose(float(r["norm"]), verdict.norm, rel_tol=1e-12)
            assert math.isclose(float(r["worstPairDecayMargin"]),
                                verdict.witness.margin, rel_tol=1e-12)

    @pytest.mark.parametrize("model, scale", PER_BOX_SCANS.values(),
                             ids=PER_BOX_SCANS.keys())
    def test_a_box_scan_builds_no_per_box_object(self, tmp_path, monkeypatch,
                                                 model, scale):
        # the resolvers' arrays are the only record of a scanned box, from
        # scan_boxes to the CSV
        from qpdyn.lattice import ElementaryRegion

        # the module, not the function the package re-exports under its name
        greens = importlib.import_module("qpdyn.greens")

        def built(*args, **kwargs):
            raise AssertionError("a per-box object was built")

        p = write(tmp_path, "gs.cfg", f"""
            experiment = bad-set-scan
            {model}
            {scale}
            scan.energies = 0.0,2.5
            scan.epsilon = 0.001
            """)
        plan = recipes.RECIPES["bad-set-scan"](load_config(p))
        task = plan.tasks[0].kwargs
        for name in ("BoxVerdict", "DecayWitness"):
            monkeypatch.setattr(greens, name, built)
        monkeypatch.setattr(ElementaryRegion, "translate", built)
        scan = greens.scan_boxes(task["spec"], task["size"], task["sub_size"],
                                 [complex(e, task["eps"]) for e in task["energies"]],
                                 task["params"], task["centers"])
        assert scan.boxes == 2 * len(task["centers"]) * scan.norm.shape[2]
        result = run_experiment(load_config(p), tmp_path / "out", prefix="gs")
        assert result.row_counts["gs_scan.csv"] == scan.boxes

    def test_scan_manifests_count_boxes_and_box_spectra(self, tmp_path):
        # a 2-d box takes one dense spectrum for all the energies of a scan;
        # the 1-d recursion takes none
        two_energies = "scan.energies = 0.0,2.5\nscan.epsilon = 0.001\n"
        scan_2d = f"experiment = bad-set-scan\n{LAPLACIAN_2D}scan.sizes = 3\n" \
                  "scan.sub_size = 1\n" + two_energies
        scan_1d = f"experiment = bad-set-scan\n{AMO_MODEL}scan.sizes = 6\n" \
                  "scan.sub_size = 2\n" + two_energies
        sublinear_2d = scan_2d.replace("bad-set-scan", "sublinear").replace(
            "scan.sizes = 3", "scan.sizes = 3,4,5")
        records = []
        for name, text in (("a", scan_2d), ("b", scan_1d), ("c", sublinear_2d)):
            run_experiment(load_config(write(tmp_path, f"{name}.cfg", text)),
                           tmp_path / name, prefix=name)
            records.append(json.loads(
                (tmp_path / name / f"{name}_manifest.json").read_text()))
        two_d, one_d, sublinear = records
        # 49 centers, 5 shapes of size 1, 2 energies
        assert (two_d["boxes"], two_d["box_spectra"]) == (490, 245)
        assert (one_d["boxes"], one_d["box_spectra"]) == (26, 0)
        # a sublinear pass stops at a center's first bad shape at each energy
        # and takes one spectrum for each box it resolves at either energy:
        # one for every center and scale at the first shape, and fewer
        # spectra than boxes
        assert (sublinear["boxes"], sublinear["box_spectra"]) == (1302, 915)
        assert 7**2 + 9**2 + 11**2 <= sublinear["box_spectra"] < sublinear["boxes"]
        assert 2 * (7**2 + 9**2 + 11**2) <= sublinear["boxes"] <= 2 * 5 * (
            7**2 + 9**2 + 11**2)

    def test_scan_where_the_norm_bound_overflows(self, tmp_path):
        # exp(1003^0.95) overflows a double, so the bound reads inf and every
        # box that decays is strongly good; a diagonal quasi-periodic model
        # keeps the 2009 boxes of 2007 sites to a few seconds
        p = write(
            tmp_path,
            "big.cfg",
            f"""
            experiment = bad-set-scan
            model.kernel = zero
            model.potential.cos.1 = 6.0
            model.dynamics.alpha = {GOLDEN}
            scan.sizes = 1004
            scan.sub_size = 1003
            class.sigma = 0.95
            output.prefix = big
            """,
        )
        result = run_experiment(load_config(p), tmp_path / "out")
        assert result.row_counts["big_scan.csv"] == 2009
        rows = (tmp_path / "out" / "big_scan.csv").read_text().splitlines()[1:]
        assert all(row.endswith(",-inf,true,true") for row in rows)

    @pytest.mark.parametrize("experiment,body,issue", [
        ("moment-growth",
         "moments.modes = time-averaged-direct\nmoments.horizons = -5,10",
         "'moments.horizons' must be positive, got (-5, 10)"),
        ("moment-growth", "moments.modes = time-averaged-parseval\n"
         "moments.horizons = 0", "'moments.horizons' must be positive, got 0"),
        ("sublinear", "scan.sizes = -5,20,40",
         "'scan.sizes' must be positive, got (-5, 20, 40)"),
        ("bad-set-scan", "scan.sizes = 0", "'scan.sizes' must be positive, got 0"),
        ("diophantine", f"dio.alpha = {GOLDEN}\ndio.tau = -1",
         "'dio.tau' must be positive, got -1"),
    ], ids=["horizons-negative", "horizons-zero", "sizes-negative", "sizes-zero",
            "tau-negative"])
    def test_a_value_that_is_not_positive_is_one_issue(self, tmp_path, experiment,
                                                       body, issue):
        model = AMO_MODEL if experiment != "diophantine" else ""
        p = write(tmp_path, "pos.cfg", f"experiment = {experiment}\n{model}\n{body}\n")
        with pytest.raises(ConfigError) as err:
            run_experiment(load_config(p), tmp_path / "out")
        assert err.value.issues == [issue]

    @pytest.mark.parametrize("experiment,body,issue", [
        ("moment-growth", "moments.times = 1.0\nmoments.p = 2.0,2.0",
         "'moments.p' repeats a value: (2.0, 2.0)"),
        ("moment-growth",
         "moments.times = 1.0\nmoments.modes = instantaneous,instantaneous",
         "'moments.modes' repeats a value: ('instantaneous', 'instantaneous')"),
        ("moment-growth", "moments.times = 1.0,1.0,10.0",
         "'moments.times' repeats a value: (1.0, 1.0, 10.0)"),
        ("moment-growth", "moments.times = 10.0,1.0",
         "'moments.times' must be sorted ascending, got (10.0, 1.0)"),
        ("moment-growth",
         "moments.modes = time-averaged-direct\nmoments.horizons = 10.0,10.0",
         "'moments.horizons' repeats a value: (10.0, 10.0)"),
        ("parseval-crosscheck", "parseval.horizons = 10.0,10.0",
         "'parseval.horizons' repeats a value: (10.0, 10.0)"),
        ("sublinear", "scan.sizes = 20,20,40,80",
         "'scan.sizes' repeats a value: (20, 20, 40, 80)"),
        ("evolve", "evolve.times = 10.0,1.0",
         "'evolve.times' must be sorted ascending, got (10.0, 1.0)"),
        ("evolve", "evolve.times = 1.0,1.0",
         "'evolve.times' repeats a value: (1.0, 1.0)"),
        ("lyapunov-map", "lyapunov.energies = 0.0,0.0",
         "'lyapunov.energies' repeats a value: (0.0, 0.0)"),
        ("discrepancy-sweep", "disc.sizes = 10,10",
         "'disc.sizes' repeats a value: (10, 10)"),
    ], ids=["p-repeated", "modes-repeated", "times-repeated", "times-unsorted",
            "horizons-repeated", "parseval-horizons-repeated", "sizes-repeated",
            "evolve-times-unsorted", "evolve-times-repeated",
            "lyapunov-energies-repeated", "disc-sizes-repeated"])
    def test_a_repeated_or_unsorted_grid_is_one_issue(self, tmp_path, experiment,
                                                      body, issue):
        p = write(tmp_path, "grid.cfg",
                  f"experiment = {experiment}\n{AMO_MODEL}\n{body}\n")
        with pytest.raises(ConfigError) as err:
            run_experiment(load_config(p), tmp_path / "out")
        assert err.value.issues == [issue]

    def test_sublinear_requires_three_scales(self, tmp_path):
        p = write(
            tmp_path,
            "sub.cfg",
            f"""
            experiment = sublinear
            {AMO_MODEL}
            scan.sizes = 10,20
            scan.sub_size = 3
            output.prefix = sub
            """,
        )
        with pytest.raises(ConfigError, match="three scales"):
            run_experiment(load_config(p), tmp_path / "out")

    def test_parseval_summary_row(self, tmp_path):
        p = write(
            tmp_path,
            "par.cfg",
            f"""
            experiment = parseval-crosscheck
            {AMO_MODEL}
            parseval.horizons = 5.0
            parseval.radius = 24
            output.prefix = par
            """,
        )
        result = run_experiment(load_config(p), tmp_path / "out")
        summary = (tmp_path / "out" / "par_summary.csv").read_text().splitlines()
        rel = float(summary[1].split(",")[6])
        assert rel < 1e-6
        assert not result.safety_flags
        assert_numeric_cells_parse(
            tmp_path / "out" / "par_entries.csv",
            ("T", "n0", "aDirect", "aParseval", "absDeviation"),
        )
        assert_numeric_cells_parse(
            tmp_path / "out" / "par_summary.csv",
            ("T", "p", "momentDirect", "momentParseval", "relDeviation",
             "totalDirect", "totalParseval", "leakage"),
        )

    def test_sublinear_chunking_matches_module_scan(self, tmp_path):
        # the harness splits centers into chunks across workers; the summed
        # counts must equal one unchunked module-level scan
        from qpdyn.greens import ClassificationParams, bad_set
        from qpdyn.operators import almost_mathieu

        p = write(
            tmp_path,
            "sub.cfg",
            f"""
            experiment = sublinear
            {AMO_MODEL}
            scan.sizes = 40,60,80
            scan.sub_size = 3
            scan.energies = 0.0
            scan.epsilon = 0.001
            output.prefix = sub
            """,
        )
        run_experiment(load_config(p), tmp_path / "out", workers=4)
        lines = (tmp_path / "out" / "sub_counts.csv").read_text().splitlines()[1:]
        got = {int(l.split(",")[2]): int(l.split(",")[6]) for l in lines}
        spec = almost_mathieu(3.0, float(GOLDEN), 0.3)
        params = ClassificationParams.for_spec(spec)
        for n in (40, 60, 80):
            assert got[n] == bad_set(spec, n, 3, 1e-3j, params).count

    def test_manifest_records_the_workers_the_pool_used(self, tmp_path):
        # three tasks: --workers 1 and 2 run that many processes, --workers 4
        # only three, and every worker count writes the same CSV bytes
        p = write(tmp_path, "sub.cfg", f"""
            experiment = sublinear
            {AMO_MODEL}
            scan.sizes = 40,60,80
            scan.sub_size = 3
            scan.energies = 0.0
            scan.epsilon = 0.001
            output.prefix = sub
            """)
        assert len(RECIPES["sublinear"](load_config(p)).tasks) == 3
        counts = []
        for workers, used in ((1, 1), (2, 2), (4, 3)):
            out = tmp_path / f"w{workers}"
            assert cli.main(["sublinear", "--config", str(p), "--out", str(out),
                             "--workers", str(workers)]) == 0
            manifest = json.loads((out / "sub_manifest.json").read_text())
            assert manifest["workers"] == used
            counts.append((out / "sub_counts.csv").read_bytes())
        assert counts[0] == counts[1] == counts[2]

    def test_sublinear_tasks_that_split_a_scale_sum_to_one_bad_sets(self,
                                                                     tmp_path):
        # 129-site boxes at two energies keep the fewest centers a task, so
        # every N is split into four or more tasks; their summed counts at
        # each energy are those of one module-level pass over all centers
        from qpdyn.greens import ClassificationParams, bad_sets
        from qpdyn.operators import almost_mathieu

        p = write(tmp_path, "sub.cfg", f"""
            experiment = sublinear
            {AMO_MODEL}
            scan.sizes = 100,150,200
            scan.sub_size = 64
            scan.energies = 0.0,1.0
            scan.epsilon = 0.001
            output.prefix = sub
            """)
        plan = RECIPES["sublinear"](load_config(p))
        per_size = [sum(t.kwargs["size"] == n for t in plan.tasks)
                    for n in (100, 150, 200)]
        assert per_size == [4, 5, 7]
        run_experiment(load_config(p), tmp_path / "out", workers=2)
        lines = (tmp_path / "out" / "sub_counts.csv").read_text().splitlines()
        header = lines[0].split(",")
        n_col, e_col, bad_col = (header.index(c) for c in ("N", "E", "badCount"))
        got = {(int(r[n_col]), float(r[e_col])): int(r[bad_col])
               for r in (line.split(",") for line in lines[1:])}
        spec = almost_mathieu(3.0, float(GOLDEN), 0.3)
        params = ClassificationParams.for_spec(spec)
        want = {}
        for n in (100, 150, 200):
            reports = bad_sets(spec, n, 64, [0.0 + 1e-3j, 1.0 + 1e-3j], params)
            want.update({(n, e): r.count for e, r in zip((0.0, 1.0), reports)})
        assert got == want

    def test_scan_tasks_are_sized_by_their_box_sites(self):
        # sublinear-1d: boxes of 11, 15, 17 and 21 sites at two energies
        # give 2^14 / (sites x 2) centers a task, every center once and in
        # order; 4501-site boxes keep the floor of 64 centers a task
        from qpdyn.greens import scan_centers

        cfg = config_from_raw(parse_config_text(
            f"{AMO_MODEL}scan.sizes = 200,400,800,1600\n"
            "scan.sub_exponent = 0.3\nscan.energies = 0.0,1.0\n"
            "scan.epsilon = 0.001\n"), "sublinear")
        tasks = RECIPES["sublinear"](cfg).tasks
        assert [len(t.kwargs["centers"]) for t in tasks] == [
            401, 546, 255, *[481] * 3, 158, *[390] * 8, 81]
        for n, sub in ((200, 5), (400, 7), (800, 8), (1600, 10)):
            chunks = [t.kwargs for t in tasks if t.kwargs["size"] == n]
            assert {kw["sub_size"] for kw in chunks} == {sub}
            centers = [c for kw in chunks for c in kw["centers"].tolist()]
            assert centers == [list(c) for c in scan_centers(n, 1)]
        big = config_from_raw(parse_config_text(
            f"{AMO_MODEL}scan.sizes = 2300\nscan.sub_size = 2250\n"
            "scan.epsilon = 0.001\n"), "bad-set-scan")
        sizes = [len(t.kwargs["centers"]) for t in RECIPES["bad-set-scan"](big).tasks]
        assert sizes == [recipes.SCAN_CHUNK] * 71 + [4601 - 71 * 64]

    @pytest.mark.parametrize("workers,tasks,pool", [
        (8, 3, 3), (2, 3, 2), (10**6, 5, 5), (8, 1, None), (1, 4, None),
    ])
    def test_the_pool_is_no_larger_than_the_plan(self, monkeypatch, workers,
                                                 tasks, pool):
        # a process pool forks all of its workers at the first submit, so
        # it starts no more of them than there are tasks; no real process
        # starts here
        started = []

        class Pool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(recipes, "ProcessPoolExecutor", Pool)
        plan = [recipes.Task(dict, {"i": i}) for i in range(tasks)]
        results, seconds = recipes.execute_tasks(plan, workers)
        assert results == [{"i": i} for i in range(tasks)]
        assert len(seconds) == tasks
        assert started == ([] if pool is None else [pool])

    def test_workers_below_one_are_refused(self):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            recipes.execute_tasks([recipes.Task(dict, {})], 0)

    def test_moments_auto_double_raises_radius(self, tmp_path):
        p = write(
            tmp_path,
            "mom.cfg",
            """
            experiment = moment-growth
            model.preset = free-laplacian
            moments.times = 2.0,10.0
            moments.radius = 16
            moments.auto_double = true
            output.prefix = mom
            """,
        )
        result = run_experiment(load_config(p), tmp_path / "out")
        rows = (tmp_path / "out" / "mom_moments.csv").read_text().splitlines()[1:]
        radii = {int(r.split(",")[6]) for r in rows}
        assert radii == {64}
        assert not result.safety_flags

    @pytest.mark.parametrize("auto_double", [True, False])
    def test_time_averaged_auto_double(self, tmp_path, auto_double):
        # the localized AMO leaks out of a radius-4 box and is clean at 16
        p = write(
            tmp_path,
            "mom.cfg",
            f"""
            experiment = moment-growth
            {AMO_MODEL}
            moments.modes = time-averaged-direct,time-averaged-parseval
            moments.horizons = 5.0,20.0
            moments.radius = 4
            moments.auto_double = {str(auto_double).lower()}
            output.prefix = mom
            """,
        )
        result = run_experiment(load_config(p), tmp_path / "out")
        rows = [r.split(",") for r in
                (tmp_path / "out" / "mom_moments.csv").read_text().splitlines()[1:]]
        assert [r[2] for r in rows] == ["time-averaged-direct"] * 2 + [
            "time-averaged-parseval"] * 2
        if auto_double:
            assert {int(r[6]) for r in rows} == {16}
            assert max(float(r[7]) for r in rows) < 1e-8
            assert not result.safety_flags
        else:
            assert {int(r[6]) for r in rows} == {4}
            assert min(float(r[7]) for r in rows) > 1e-8
            assert result.safety_flags == ["leakage"] * 4
        for d, pv in zip(rows[:2], rows[2:]):
            assert float(d[5]) == pytest.approx(float(pv[5]), rel=1e-6)

    @pytest.mark.parametrize("auto_double,tol,radius,flagged", [
        ("true", 1e-8, 64, True),  # still leaks at the cap, r = 64
        ("false", 1e-8, 16, True),
        ("true", 0.1, 16, False),
    ])
    def test_parseval_leakage_doubles_or_flags(self, tmp_path, auto_double,
                                               tol, radius, flagged):
        # ballistic spreading leaves 9% of a(0, ., 20) in the shell at r = 16
        p = write(
            tmp_path,
            "mom.cfg",
            f"""
            experiment = moment-growth
            model.preset = free-laplacian
            moments.modes = time-averaged-parseval
            moments.horizons = 20.0
            moments.radius = 16
            moments.auto_double = {auto_double}
            moments.leakage_tol = {tol}
            output.prefix = mom
            """,
        )
        result = run_experiment(load_config(p), tmp_path / "out")
        (row,) = [r.split(",") for r in
                  (tmp_path / "out" / "mom_moments.csv").read_text().splitlines()[1:]]
        assert int(row[6]) == radius
        leakage = float(row[7])
        assert leakage > 1e-8
        assert result.safety_flags == (["leakage"] if flagged else [])
        manifest = json.loads((tmp_path / "out" / "mom_manifest.json").read_text())
        assert manifest["max_leakage"] == leakage

    MOMENT_MODES = ("instantaneous", "time-averaged-direct",
                    "time-averaged-parseval")

    @staticmethod
    def _moment_run(tmp_path, name, model, modes, ps, auto_double, workers=1):
        """The moments and fits bodies of one run, without the config-hash
        column, and the run's safety flags."""
        p = write(
            tmp_path,
            f"{name}.cfg",
            f"""
            experiment = moment-growth
            {model}
            moments.modes = {modes}
            moments.p = {ps}
            moments.times = 2.0,10.0,30.0
            moments.horizons = 5.0,20.0
            moments.radius = 8
            moments.auto_double = {auto_double}
            output.prefix = mom
            """,
        )
        result = run_experiment(load_config(p), tmp_path / name, workers=workers)
        bodies = {
            key: [line.split(",", 2)[2] for line in
                  (tmp_path / name / f"mom_{key}.csv").read_text().splitlines()]
            for key in ("moments", "fits")
        }
        return bodies, result.safety_flags

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("model,auto_double", [
        (AMO_MODEL, "false"),
        ("model.preset = free-laplacian", "true"),  # still leaks at the cap
    ], ids=["amo", "flagged-auto-double"])
    def test_every_p_of_a_mode_matches_its_single_p_run(self, tmp_path, model,
                                                         auto_double, workers):
        ps = ("1.0", "2.0", "4.0")
        got, flags = self._moment_run(tmp_path, "all", model,
                                      ",".join(self.MOMENT_MODES), ",".join(ps),
                                      auto_double, workers)
        want = {key: rows[:1] for key, rows in got.items()}  # the headers
        want_flags = []
        for mode in self.MOMENT_MODES:
            for p in ps:
                bodies, single_flags = self._moment_run(
                    tmp_path, f"{mode}-{p}", model, mode, p, auto_double)
                for key, rows in bodies.items():
                    assert rows[0] == want[key][0]
                    want[key] += rows[1:]
                want_flags += single_flags
        assert got == want
        assert flags == want_flags
        assert flags  # at radius 8 both models leak by t = 30

    def test_one_evolution_and_one_table_per_radius_attempt(self, tmp_path,
                                                           monkeypatch):
        calls = []

        def counted(fn):
            def run(spec, phi, grid, radius, *args):
                calls.append((fn.__name__, grid, radius))
                return fn(spec, phi, grid, radius, *args)
            return run

        for name in ("evolve", "amplitude_table_direct"):
            monkeypatch.setattr(recipes, name, counted(getattr(recipes, name)))
        runs = {}
        for ps in ("2.0", "1.0,2.0,4.0"):
            calls.clear()
            self._moment_run(tmp_path, ps, "model.preset = free-laplacian",
                             "instantaneous,time-averaged-direct", ps, "true")
            runs[ps] = list(calls)
        times = (2.0, 10.0, 30.0)
        # ballistic spreading leaks at every radius up to the cap, 32
        assert runs["1.0,2.0,4.0"] == runs["2.0"] == [
            (name, grid, radius)
            for name, grid in (("evolve", times), ("amplitude_table_direct", 5.0),
                               ("amplitude_table_direct", 20.0))
            for radius in (8, 16, 32)
        ]

    def test_an_empty_time_grid_runs_no_evolution(self, tmp_path, monkeypatch):
        decomposed = []
        box_eigh = dynamics._box_eigh
        monkeypatch.setattr(dynamics, "_box_eigh",
                            lambda *args: decomposed.append(args) or box_eigh(*args))
        p = write(
            tmp_path,
            "mom.cfg",
            f"""
            experiment = moment-growth
            {AMO_MODEL}
            moments.times = ,
            moments.radius = 64
            output.prefix = mom
            """,
        )
        result = run_experiment(load_config(p), tmp_path / "out")
        assert decomposed == []
        assert result.row_counts == {"mom_moments.csv": 0, "mom_fits.csv": 1}
        fit = (tmp_path / "out" / "mom_fits.csv").read_text().splitlines()[1]
        assert fit.endswith(",instantaneous,2.0,nan,nan,false,need at least 10 samples")
        manifest = json.loads((tmp_path / "out" / "mom_manifest.json").read_text())
        assert manifest["max_matrix_order"] == 0

    def test_an_empty_p_grid_runs_nothing(self, tmp_path, monkeypatch):
        decomposed = []
        box_eigh = dynamics._box_eigh
        monkeypatch.setattr(dynamics, "_box_eigh",
                            lambda *args: decomposed.append(args) or box_eigh(*args))
        p = write(
            tmp_path,
            "mom.cfg",
            f"""
            experiment = moment-growth
            {AMO_MODEL}
            moments.modes = instantaneous,time-averaged-direct,time-averaged-parseval
            moments.p = ,
            moments.times = 1.0,2.0
            moments.horizons = 2.0
            moments.radius = 8
            output.prefix = mom
            """,
        )
        assert RECIPES["moment-growth"](load_config(p)).tasks == []
        result = run_experiment(load_config(p), tmp_path / "out")
        assert decomposed == []
        assert result.row_counts == {"mom_moments.csv": 0, "mom_fits.csv": 0}

    def test_manifest_records_max_leakage(self, tmp_path):
        p = write(
            tmp_path,
            "ev.cfg",
            """
            experiment = evolve
            model.preset = free-laplacian
            evolve.times = 0.0,30.0
            evolve.radius = 16
            output.prefix = ev
            """,
        )
        result = run_experiment(load_config(p), tmp_path / "out")
        assert result.safety_flags == ["leakage"]
        manifest = json.loads((tmp_path / "out" / "ev_manifest.json").read_text())
        assert 1e-8 < manifest["max_leakage"] <= 1.0
        assert "max_resolvent_residual" not in manifest

    def test_manifest_records_norm_drift_and_tail_bound(self, tmp_path):
        p = write(
            tmp_path,
            "mom.cfg",
            f"""
            experiment = moment-growth
            {AMO_MODEL}
            moments.modes = instantaneous,time-averaged-parseval
            moments.times = 1.0,10.0
            moments.horizons = 2.0,20.0
            moments.radius = 32
            output.prefix = mom
            """,
        )
        run_experiment(load_config(p), tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "mom_manifest.json").read_text())
        amo = almost_mathieu(3.0, float(GOLDEN), 0.3)
        drift = evolve(amo, StateVector.delta((0,)), [1.0, 10.0], 32).norm_drift
        tables = [
            amplitude_table_parseval(amo, (0,), T, 32, control_orders=(0.0, 2.0))
            for T in (2.0, 20.0)
        ]
        assert manifest["max_norm_drift"] == drift
        assert manifest["max_tail_bound"] == max(t.tail_bound for t in tables) > 0.0
        # the band starts from the 66 panels between eigenvalue breaks
        assert manifest["max_quadrature_panels"] == max(t.panels for t in tables) > 66
        assert manifest["max_quadrature_energies"] == max(t.energies for t in tables)
        assert manifest["max_matrix_order"] == 65  # the box [-32, 32]

    @pytest.mark.parametrize("recipe,body,summed", [
        ("evolve", "evolve.times = 0.0,1.0\nevolve.radius = 128", True),
        ("moment-growth", "moments.modes = instantaneous\n"
         "moments.times = 1.0,2.0\nmoments.radius = 128", True),
        ("moment-growth", "moments.modes = time-averaged-direct\n"
         "moments.horizons = 2.0,20.0\nmoments.radius = 128", True),
        ("moment-growth", "moments.modes = time-averaged-parseval\n"
         "moments.horizons = 2.0\nmoments.radius = 128", False),
        ("parseval-crosscheck", "parseval.horizons = 2.0\nparseval.radius = 128",
         True),
    ], ids=["evolve", "instantaneous", "direct", "parseval-moments",
            "parseval-crosscheck"])
    def test_manifest_records_eigen_support(self, tmp_path, recipe, body, summed):
        # the eigenvectors delta_0 overlaps on the box [-128, 128]; the
        # energy route of a 1-d box forms none
        amo = almost_mathieu(3.0, float(GOLDEN), 0.3)
        sites, _, _, U = dynamics._box_eigh(amo, 128)
        support = np.count_nonzero(U[sites.index((0,))])
        assert 2 * support < len(sites)
        p = write(tmp_path, "es.cfg",
                  f"experiment = {recipe}\n{AMO_MODEL}\n{body}\noutput.prefix = es")
        run_experiment(load_config(p), tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "es_manifest.json").read_text())
        assert manifest["max_eigen_support"] == (support if summed else 0)
        assert manifest["max_matrix_order"] == 257

    def test_manifest_records_quadrature_panels(self, tmp_path):
        direct = write(
            tmp_path,
            "dir.cfg",
            f"""
            experiment = moment-growth
            {AMO_MODEL}
            moments.modes = time-averaged-direct
            moments.horizons = 2.0,20.0
            moments.radius = 16
            output.prefix = dir
            """,
        )
        run_experiment(load_config(direct), tmp_path / "a")
        manifest = json.loads((tmp_path / "a" / "dir_manifest.json").read_text())
        assert manifest["max_quadrature_panels"] == 0
        assert manifest["max_quadrature_energies"] == 0
        check = write(
            tmp_path,
            "par.cfg",
            f"""
            experiment = parseval-crosscheck
            {AMO_MODEL}
            parseval.horizons = 5.0,50.0
            parseval.radius = 16
            output.prefix = par
            """,
        )
        run_experiment(load_config(check), tmp_path / "b")
        manifest = json.loads((tmp_path / "b" / "par_manifest.json").read_text())
        amo = almost_mathieu(3.0, float(GOLDEN), 0.3)
        tables = [amplitude_table_parseval(amo, (0,), T, 16) for T in (5.0, 50.0)]
        panels = [t.panels for t in tables]
        assert manifest["max_quadrature_panels"] == max(panels) > 34
        # 45 energies a panel evaluated, each bisected panel again too
        energies = max(t.energies for t in tables)
        assert manifest["max_quadrature_energies"] == energies > 45 * max(panels)

    @pytest.mark.parametrize("recipe,body,message", [
        ("moment-growth", "moments.times = 1.0,2.0",
         "'moments.radius' = 64: volume has 16641 points"),
        ("moment-growth", "moments.times = 1.0\nmoments.radius = 16\n"
         "moments.auto_double = true",
         r"'moments.radius' = 16 \(doubled to 64\): volume has 16641 points"),
        ("evolve", "evolve.times = 1.0\nevolve.radius = 34",
         "'evolve.radius' = 34: volume has 4761 points"),
        ("parseval-crosscheck", "parseval.horizons = 2.0",
         "'parseval.radius' = 64: volume has 16641 points"),
    ], ids=["moments-default", "moments-doubled", "evolve", "parseval"])
    def test_a_dense_box_past_the_cap_is_a_config_issue(
        self, tmp_path, monkeypatch, recipe, body, message
    ):
        # a 2-d box of radius 64 would take a dense eigh of order 16641, with
        # 2.2 GB for each of H and U; the plan refuses it before any task runs
        def sentinel(*args):
            raise AssertionError("a box was decomposed")

        monkeypatch.setattr(dynamics, "_box_eigh", sentinel)
        p = write(tmp_path, "big.cfg", f"experiment = {recipe}\n"
                  f"model.preset = free-laplacian\nmodel.dimension = 2\n{body}\n")
        with pytest.raises(ConfigError, match=message):
            run_experiment(load_config(p), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_a_bad_radius_is_checked_once(self, tmp_path):
        # the reader falls back to the default radius 64, over the cap in 2-d
        p = write(tmp_path, "bad.cfg", "experiment = moment-growth\n"
                  "model.preset = free-laplacian\nmodel.dimension = 2\n"
                  "moments.times = 1.0\nmoments.radius = 2.5\n")
        with pytest.raises(ConfigError) as err:
            run_experiment(load_config(p), tmp_path / "out")
        assert err.value.issues == ["'moments.radius' must be an integer, got 2.5"]

    @pytest.mark.parametrize("recipe,body,csv", [
        ("moment-growth", "moments.times = 1.0,2.0\nmoments.radius = 8",
         "moments"),
        ("evolve", "evolve.times = 0.0,1.0\nevolve.radius = 8", "snapshots"),
        ("parseval-crosscheck", "parseval.horizons = 2.0\nparseval.radius = 8",
         "summary"),
    ], ids=["moments", "evolve", "parseval"])
    def test_initial_site_defaults_to_origin_of_model_dimension(
        self, tmp_path, recipe, body, csv
    ):
        p = write(
            tmp_path,
            "two.cfg",
            f"""
            experiment = {recipe}
            model.preset = free-laplacian
            model.dimension = 2
            {body}
            output.prefix = two
            """,
        )
        run_experiment(load_config(p), tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "two_manifest.json").read_text())
        assert manifest["max_matrix_order"] == 17**2  # the box [-8, 8]^2
        rows = (tmp_path / "out" / f"two_{csv}.csv").read_text().splitlines()
        header = rows[0].split(",")
        cells = [dict(zip(header, row.split(","))) for row in rows[1:]]
        if recipe == "moment-growth":  # the state leaves the origin at t > 0
            assert [float(c["value"]) > 0.0 for c in cells] == [True, True]
        elif recipe == "evolve":  # exp(0) delta_0 is delta_0 in two dimensions
            first = [c for c in cells if c["t"] == "0.0"]
            assert [(c["n0"], c["n1"]) for c in first] == [("0", "0")]
            assert_numeric_cells_parse(
                tmp_path / "out" / "two_snapshots.csv",
                ("t", "n0", "n1", "re", "im", "prob"),
            )
        else:
            assert float(cells[0]["totalParseval"]) == pytest.approx(1.0, abs=1e-6)

    def test_diophantine_row(self, tmp_path):
        p = write(
            tmp_path,
            "dio.cfg",
            """
            experiment = diophantine
            dio.alpha = 0.5
            dio.kappa = 2.0
            dio.tau = 0.001
            dio.kmax = 10
            output.prefix = dio
            """,
        )
        run_experiment(load_config(p), tmp_path / "out")
        line = (tmp_path / "out" / "dio_diophantine.csv").read_text().splitlines()[1]
        cells = line.split(",")
        assert cells[6] == "false" and cells[7] == "2"

    def test_diophantine_kmax_column_is_the_library_cutoff(self, tmp_path):
        # without dio.kmax a single frequency takes the library's 1-d cutoff
        p = write(tmp_path, "dio.cfg", f"experiment = diophantine\ndio.alpha = {GOLDEN}\n")
        run_experiment(load_config(p), tmp_path / "out")
        (path,) = (tmp_path / "out").glob("*_diophantine.csv")
        header, row = (line.split(",") for line in path.read_text().splitlines())
        assert dict(zip(header, row))["kmax"] == "1000000"


SWEEP_CFG = f"""
experiment = lyapunov-map
seed = 9
{AMO_MODEL}
lyapunov.energies = 0.0,0.5,1.0
lyapunov.length = 800
lyapunov.phase_samples = 2
sweep.recipe = lyapunov-map
sweep.axes = model.lambda,lyapunov.length
sweep.values.model.lambda = 2.0,3.0,4.0
sweep.values.lyapunov.length = 400,800,1200
output.prefix = sw
"""


class TestSweep:
    def test_single_point_sweep_matches_direct_run(self, tmp_path):
        # a swept seed takes effect like any other axis
        for axis, value, direct_seed in (("model.lambda", 3.0, 9), ("seed", 4, 4)):
            self._check_single_point_sweep(tmp_path / axis, axis, value,
                                           direct_seed)
        # the manifest names the seeds the sweep ran, in combo order
        seeds = tmp_path / "seeds"
        seeds.mkdir()
        cfg = write(seeds, "sweep.cfg", f"""
            experiment = lyapunov-map
            seed = 9
            {AMO_MODEL}
            lyapunov.energies = 0.0
            lyapunov.length = 100
            lyapunov.phase_samples = 2
            sweep.recipe = lyapunov-map
            sweep.axes = seed
            sweep.values.seed = 1,2,3
            output.prefix = seeds
            """)
        run_sweep(load_config(cfg), seeds / "out")
        manifest = json.loads((seeds / "out" / "seeds_manifest.json").read_text())
        assert manifest["seed"] == [1, 2, 3]

    @staticmethod
    def _check_single_point_sweep(tmp_path, axis, value, direct_seed):
        tmp_path.mkdir()
        direct_cfg = write(
            tmp_path,
            "direct.cfg",
            f"""
            experiment = lyapunov-map
            seed = {direct_seed}
            {AMO_MODEL}
            lyapunov.energies = 0.0,1.0
            lyapunov.length = 500
            lyapunov.phase_samples = 2
            output.prefix = direct
            """,
        )
        sweep_cfg = write(
            tmp_path,
            "sweep.cfg",
            f"""
            experiment = lyapunov-map
            seed = 9
            {AMO_MODEL}
            lyapunov.energies = 0.0,1.0
            lyapunov.length = 500
            lyapunov.phase_samples = 2
            sweep.recipe = lyapunov-map
            sweep.axes = {axis}
            sweep.values.{axis} = {value}
            output.prefix = onept
            """,
        )
        run_experiment(load_config(direct_cfg), tmp_path / "a")
        run_sweep(load_config(sweep_cfg), tmp_path / "b")
        for out, stem in (("a", "direct"), ("b", "onept")):
            manifest = tmp_path / out / f"{stem}_manifest.json"
            assert json.loads(manifest.read_text())["seed"] == direct_seed
        direct_rows = [
            line.split(",")[2:]
            for line in (tmp_path / "a" / "direct_lyapunov.csv")
            .read_text()
            .splitlines()[1:]
        ]
        sweep_rows = [
            line.split(",")[3:]
            for line in (tmp_path / "b" / "onept_lyapunov.csv")
            .read_text()
            .splitlines()[1:]
        ]
        assert direct_rows == sweep_rows

    def test_sublinear_sweep_matches_per_lambda_runs(self, tmp_path):
        base = f"""
            experiment = sublinear
            {AMO_MODEL}
            scan.sizes = 20,30,40
            scan.sub_size = 3
            """
        sweep = base + """
            sweep.recipe = sublinear
            sweep.axes = model.lambda
            sweep.values.model.lambda = 2.0,3.0
            output.prefix = sw
            """
        run_sweep(load_config(write(tmp_path, "sw.cfg", sweep)), tmp_path / "sw")

        def body(path, skip):  # rows without the axis, experiment and hash
            lines = path.read_text().splitlines()[1:]
            return [line.split(",")[skip:] for line in lines]

        counts = body(tmp_path / "sw" / "sw_counts.csv", 3)
        assert [int(r[4]) for r in counts] == [41, 61, 81, 19, 30, 35]
        fits = body(tmp_path / "sw" / "sw_fit.csv", 3)
        for i, lam in enumerate(("2.0", "3.0")):
            cfg = base.replace("model.lambda = 3.0", f"model.lambda = {lam}")
            run_experiment(load_config(write(tmp_path, f"{lam}.cfg", cfg)),
                           tmp_path / lam, prefix="sub")
            assert body(tmp_path / lam / "sub_counts.csv", 2) == counts[3 * i : 3 * i + 3]
            assert body(tmp_path / lam / "sub_fit.csv", 2) == fits[i : i + 1]

    def test_grid_order_is_lexicographic(self, tmp_path):
        p = write(tmp_path, "sw.cfg", SWEEP_CFG)
        run_sweep(load_config(p), tmp_path / "out", workers=2)
        lines = (tmp_path / "out" / "sw_lyapunov.csv").read_text().splitlines()[1:]
        combos = [tuple(line.split(",")[:2]) for line in lines]
        expected = [
            (lam, ln)
            for lam in ("2.0", "3.0", "4.0")
            for ln in ("400", "800", "1200")
            for _ in range(3)
        ]
        assert combos == expected

    def test_unknown_axis_rejected(self, tmp_path):
        p = write(
            tmp_path,
            "sw.cfg",
            SWEEP_CFG.replace("sweep.axes = model.lambda,lyapunov.length",
                              "sweep.axes = model.nonsense"),
        )
        with pytest.raises(ConfigError, match="does not exist"):
            run_sweep(load_config(p), tmp_path / "out")

    @pytest.mark.parametrize("workers", [1, 4])
    def test_byte_identical_across_workers(self, tmp_path, workers):
        p = write(tmp_path, "sw.cfg", SWEEP_CFG)
        run_sweep(load_config(p), tmp_path / "ref", workers=1)
        run_sweep(load_config(p), tmp_path / f"w{workers}", workers=workers)
        ref = (tmp_path / "ref" / "sw_lyapunov.csv").read_bytes()
        got = (tmp_path / f"w{workers}" / "sw_lyapunov.csv").read_bytes()
        assert ref == got


def format_cell_by_cell(path, header, rows):
    """The CSV of ``header`` and ``rows`` with every cell passed through
    ``recipes._format_cell``, one row at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([recipes._format_cell(v) for v in row])


MIXED_ROWS = [
    (math.nan, math.inf, -math.inf, -0.0, 1e16, 1e-05, 0.1, 10**30, True,
     np.bool_(False), np.float64(9.29e-07), np.int64(-7), None, "a,b"),
    (0.5, 1.0, 2.0, 0.0, -1e16, 2.5e-300, 1 / 3, -(10**30), False,
     np.bool_(True), np.float64(0.1), np.int64(3), None, 'say "hi"'),
    (1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8, True,
     np.bool_(True), np.float64(-0.0), np.int64(0), None, "two\nlines"),
]


class TestCsvCells:
    @pytest.mark.parametrize("rows", [
        MIXED_ROWS,
        # one column mixing exact floats with a NumPy float and an int
        [(0.1, "x"), (np.float64(0.2), "y"), (3, "z")],
        # a Python bool among ints, and a row longer than the others
        [(1, 2), (True, 2, None), (0, 3)],
        [],
    ], ids=["mixed", "mixed-column", "ragged", "no-rows"])
    def test_write_csv_is_the_cell_by_cell_format(self, tmp_path, rows):
        # csv writes exact floats, ints and strs as _format_cell does, so
        # _write_csv hands those columns over untouched: the bytes must be
        # those of formatting every cell
        header = [f"c{k}" for k in range(max(map(len, rows), default=2))]
        recipes._write_csv(tmp_path / "got.csv", header, rows)
        format_cell_by_cell(tmp_path / "want.csv", header, rows)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        lines = got.decode().splitlines(keepends=True)
        assert len(list(csv.reader(lines))) == len(rows) + 1
        if rows is MIXED_ROWS:
            first = next(csv.reader(lines[1:]))
            assert first == ["nan", "inf", "-inf", "-0.0", "1e+16", "1e-05", "0.1",
                             str(10**30), "true", "False", "9.29e-07", "-7", "None",
                             "a,b"]


class TestCli:
    def test_success_exit_zero(self, tmp_path, capsys):
        p = write(
            tmp_path,
            "dio.cfg",
            """
            experiment = diophantine
            dio.alpha = 0.6180339887498949
            dio.kappa = 1.01
            dio.tau = 0.3
            dio.kmax = 1000
            output.prefix = dio
            """,
        )
        code = cli.main(["diophantine", "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 0
        assert "wrote" in capsys.readouterr().out

    def test_config_error_exit_two(self, tmp_path, capsys):
        p = write(tmp_path, "bad.cfg", "experiment = moment-growth\n")
        code = cli.main(["moments", "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "invalid config" in capsys.readouterr().err
        # a seed that is negative or a bool, given directly or on a sweep
        # axis, is a config error naming the key
        disc = f"orbit.alpha = {GOLDEN}\ndisc.sizes = 10\ndisc.phase_samples = 2\n"
        sweep = ("experiment = sweep\nseed = 1\nsweep.recipe = discrepancy-sweep\n"
                 "sweep.axes = seed\nsweep.values.seed = 2,-1\n")
        for command, body in (("discrepancy", "seed = -1\n"),
                              ("discrepancy", "seed = true\n"),
                              ("sweep", sweep)):
            p = write(tmp_path, "seed.cfg", disc + body)
            code = cli.main([command, "--config", str(p), "--out",
                             str(tmp_path / "o")])
            assert code == 2
            assert "'seed'" in capsys.readouterr().err
        # the default cutoff is a 1-d one: two or more frequencies need their own
        p = write(tmp_path, "dio.cfg", f"dio.alpha = {GOLDEN},0.4142135623730951\n")
        code = cli.main(["diophantine", "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "'dio.kmax'" in capsys.readouterr().err

    @pytest.mark.parametrize("command,body,key", [
        ("moments", "moments.times = 1.0\nmoments.raduis = 64", "moments.raduis"),
        ("moments", "moments.times = 1.0\nmoments.max_doublings = 3",
         "moments.max_doublings"),
        ("greens-scan", "scan.sizes = 6\nscan.horizon = 100.0", "scan.horizon"),
        ("greens-scan", "scan.sizes = abc", "scan.sizes"),
        ("greens-scan", "scan.sizes = 10.5", "scan.sizes"),
        ("discrepancy", "disc.sizes = 10.7", "disc.sizes"),
        ("moments", "moments.times = 1.0\nmoments.initial = 0,0",
         "moments.initial"),
        ("evolve", "evolve.times = 1.0\nevolve.initial = 0,0", "evolve.initial"),
        ("parseval-check", "parseval.horizons = 2.0\nparseval.source = 0,0",
         "parseval.source"),
        ("moments", "moments.times = 1.0\nmoments.initial = 33",
         "moments.initial"),
        ("evolve", "evolve.times = 1.0\nevolve.initial = 17", "evolve.initial"),
        ("parseval-check",
         "parseval.horizons = 2.0\nparseval.radius = 8\nparseval.source = 6",
         "parseval.source"),
        ("sublinear", "scan.sizes = 20,20,40,80", "scan.sizes"),
        ("greens-scan", "scan.sizes = 6\nscan.energies = 0.0,0.0",
         "scan.energies"),
        ("greens-scan", "scan.sizes = 6\nclass.xi = 0.5", "class.xi"),
        ("moments", "moments.modes = time-averaged-direct\n"
         "moments.horizons = -5,10", "moments.horizons"),
        ("moments", "moments.modes = time-averaged-parseval\n"
         "moments.horizons = 0", "moments.horizons"),
        ("greens-scan", "scan.sizes = -5,20,40", "scan.sizes"),
        ("sublinear", "scan.sizes = -5,20,40", "scan.sizes"),
        ("greens-scan", "scan.sizes = 0", "scan.sizes"),
        ("diophantine", f"dio.alpha = {GOLDEN}\ndio.tau = -1", "dio.tau"),
        ("moments", "moments.times = 10.0,1.0", "moments.times"),
        ("parseval-check", "parseval.horizons = 2.0\nparseval.p = 0",
         "parseval.p"),
        ("parseval-check", "parseval.horizons = 2.0\nparseval.rel_tol = 0",
         "parseval.rel_tol"),
        ("diophantine", "dio.alpha = ,", "dio.alpha"),
        # an invalid model leaves the dimension unknown; the site is still read
        ("evolve", "model.preset = nope\nevolve.times = 1.0\nevolve.initial = ,",
         "evolve.initial"),
        ("moments", "model.preset = nope\nmoments.times = 1.0\n"
         "moments.initial = ,", "moments.initial"),
        ("parseval-check", "model.preset = nope\nparseval.horizons = 2.0\n"
         "parseval.source = ,", "parseval.source"),
    ], ids=["typo", "max-doublings", "horizon", "sizes-text", "sizes-fraction",
            "disc-sizes-fraction", "initial-length", "evolve-initial-length",
            "source-length", "initial-outside-box", "evolve-initial-outside-box",
            "source-outside-box", "repeated-sizes", "repeated-energies",
            "class-xi", "horizons-negative", "horizons-zero", "sizes-negative",
            "sublinear-sizes-negative", "sizes-zero", "tau-negative",
            "times-unsorted", "parseval-p-zero", "parseval-rel-tol-zero",
            "dio-alpha-empty",
            "evolve-initial-empty-bad-model", "initial-empty-bad-model",
            "source-empty-bad-model"])
    def test_unread_or_malformed_key_exit_two(self, tmp_path, capsys, command,
                                              body, key):
        model = AMO_MODEL if command != "discrepancy" else f"orbit.alpha = {GOLDEN}"
        p = write(tmp_path, "bad.cfg", f"{model}\n{body}\n")
        cfg = load_config(p, experiment=cli.SUBCOMMANDS[command])
        with pytest.raises(ConfigError, match=re.escape(f"'{key}'")):
            run_experiment(cfg, tmp_path / "o")
        code = cli.main([command, "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command,body,issues", [
        ("evolve", f"{AMO_MODEL}evolve.times = 1.0\nevolve.radius = nan",
         ["'evolve.radius' must be a finite number, got nan"]),
        ("evolve", f"{AMO_MODEL}evolve.times = 1.0\nevolve.radius = inf",
         ["'evolve.radius' must be a finite number, got inf"]),
        ("greens-scan", f"{AMO_MODEL}scan.sizes = 10\nscan.sub_exponent = nan",
         ["'scan.sub_exponent' must be a finite number, got nan"]),
        ("lyapunov", f"{AMO_MODEL}lyapunov.energies = 0.0\nlyapunov.length = nan",
         ["'lyapunov.length' must be a finite number, got nan"]),
        ("evolve", AMO_MODEL.replace("lambda = 3.0", "lambda = nan")
         + "evolve.times = 1.0", ["'model.lambda' must be a finite number, got nan"]),
        ("evolve", AMO_MODEL.replace(f"alpha = {GOLDEN}", "alpha = inf")
         + "evolve.times = 1.0", ["'model.alpha' must be a finite number, got inf"]),
        ("evolve", f"{EXPLICIT_1D}model.potential.cos.1 = nan\nevolve.times = 1.0",
         ["'model.potential.cos.1' must be a finite number, got nan"]),
        ("evolve", f"{EXPLICIT_1D}model.potential.sin.1 = 1+2j\nevolve.times = 1.0",
         ["'model.potential.sin.1' must be a finite number, got (1+2j)"]),
        ("evolve", "model.kernel = toeplitz\nmodel.kernel.coeff.1 = nan+1j\n"
         "evolve.times = 1.0",
         ["'model.kernel.coeff.1' must be a finite number, got (nan+1j)"]),
        ("evolve", "model.kernel = toeplitz\nmodel.kernel.coeff.1 = true\n"
         "evolve.times = 1.0", ["'model.kernel.coeff.1' must be a finite number, got True"]),
        ("evolve", "model.kernel = toeplitz\nmodel.kernel.coeff.1 = 0.3\n"
         "model.kernel.rate = 0\nevolve.times = 1.0",
         ["'model.kernel.rate' must be positive, got 0"]),
        ("diophantine", f"dio.alpha = {GOLDEN}\ndio.kappa = nan",
         ["'dio.kappa' must be a finite number, got nan"]),
        ("sublinear", f"{AMO_MODEL}scan.sizes = 10,20,40\nscan.epsilon = nan",
         ["'scan.epsilon' must be a finite number, got nan"]),
        ("evolve", f"{AMO_MODEL}evolve.times = 1.0,inf",
         ["'evolve.times' must be finite numbers, got (1.0, inf)"]),
        ("moments", f"{AMO_MODEL}moments.times = 1.0\nmoments.p = true",
         ["'moments.p' must be finite numbers, got True"]),
        ("evolve", f"{AMO_MODEL}evolve.times = 1.0\nevolve.initial = 1.5",
         ["'evolve.initial' must be integers, got 1.5"]),
        ("parseval-check", f"{AMO_MODEL}parseval.horizons = 2.0\nparseval.source = 2.9",
         ["'parseval.source' must be integers, got 2.9"]),
        ("evolve", f"{EXPLICIT_1D}model.potential.cos.1,1 = 1.0\nevolve.times = 1.0",
         ["model: frequency (1, 1) has the wrong dimension"]),
        ("evolve", "model.kernel = toeplitz\nmodel.dimension = 2\n"
         "model.kernel.coeff.1 = 0.3\nevolve.times = 1.0",
         ["model: 'model.dimension' is 2, but the kernel offsets are 1-dimensional"]),
        ("evolve", f"{EXPLICIT_1D}model.potential.cos.x = 1.0\nmodel.coupling = -1\n"
         "evolve.times = 1.0",
         ["'model.potential.cos.x' must end in integer coordinates",
          "'model.coupling' must be positive, got -1"]),
        # a toeplitz-only key is read only under the toeplitz kernel
        ("evolve", f"{EXPLICIT_1D}model.kernel.amplitude = 2\nevolve.times = 1.0",
         ["unknown key 'model.kernel.amplitude'"]),
    ], ids=["radius-nan", "radius-inf", "sub-exponent-nan", "lyapunov-length-nan",
            "lambda-nan", "alpha-inf", "cos-nan", "sin-complex", "coeff-nan-complex",
            "coeff-bool", "rate-zero", "kappa-nan", "epsilon-nan", "times-inf",
            "p-bool", "initial-fraction", "source-fraction", "cos-wrong-torus",
            "toeplitz-dimension", "cos-index-and-coupling",
            "amplitude-under-laplacian"])
    def test_a_number_outside_the_rule_exit_two(self, tmp_path, capsys, command,
                                                body, issues):
        # every numeric value is a finite int or float (complex only for a
        # kernel coefficient), and the model is built in one guarded step:
        # each broken rule is its own issue, with no traceback
        p = write(tmp_path, "num.cfg", body + "\n")
        cfg = load_config(p, experiment=cli.SUBCOMMANDS[command])
        with pytest.raises(ConfigError) as err:
            run_experiment(cfg, tmp_path / "o")
        assert err.value.issues == issues
        code = cli.main([command, "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.splitlines()[1:] == [f"- {i}" for i in issues]

    @pytest.mark.parametrize("command,body,points", [
        ("greens-scan", f"{LAPLACIAN_2D}scan.sizes = 35\nscan.sub_size = 34", 4761),
        ("sublinear", f"{LAPLACIAN_2D}scan.sizes = 35,40,50\nscan.sub_size = 34",
         4761),
        ("greens-scan", f"{AMO_MODEL}scan.sizes = 2300\nscan.sub_size = 2250\n"
         "scan.epsilon = 0.0", 4501),
    ], ids=["2d", "2d-sublinear", "1d-eps-0"])
    def test_dense_scan_over_the_cap_exit_two(self, tmp_path, capsys, command,
                                              body, points):
        # the plan rejects, with the count and the cap, what the first task
        # would raise from inside the run
        p = write(tmp_path, "cap.cfg", body)
        code = cli.main([command, "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 2
        assert (f"volume has {points} points; dense solves are capped at 4500"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_1d_recursion_scan_is_not_capped(self):
        # the same 4501-site boxes off the real axis take the recursion
        cfg = config_from_raw(parse_config_text(
            f"{AMO_MODEL}scan.sizes = 2300\nscan.sub_size = 2250\n"
            "scan.epsilon = 0.001\n"), "bad-set-scan")
        plan = RECIPES["bad-set-scan"](cfg)
        assert len(plan.tasks) == math.ceil(4601 / recipes.SCAN_CHUNK)

    @pytest.mark.parametrize("model", [
        "model.kernel = laplacian\nmodel.coupling = 2.0",
        "model.kernel = toeplitz\nmodel.kernel.coeff.2 = 1.0\n"
        "model.kernel.amplitude = 8.0",
    ], ids=["coupling-2", "toeplitz-offset-2"])
    def test_lyapunov_model_outside_the_estimator_exit_two(self, tmp_path,
                                                           capsys, model):
        # each kernel has row sum 2, but the transfer matrices need S(+-1) = 1
        # at unit coupling: the plan rejects what the estimator would
        p = write(
            tmp_path,
            "ly.cfg",
            f"""
            experiment = lyapunov-map
            {model}
            model.potential.cos.1 = 6.0
            model.dynamics.alpha = {GOLDEN}
            lyapunov.energies = 0.0
            lyapunov.length = 100
            """,
        )
        with pytest.raises(ConfigError, match="unit coupling"):
            run_experiment(load_config(p), tmp_path / "o")
        code = cli.main(["lyapunov", "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unit coupling" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", [1, 2])
    def test_verbose_logs_each_finished_task(self, tmp_path, capsys, caplog,
                                             workers):
        p = write(
            tmp_path,
            "mom.cfg",
            f"""
            experiment = moment-growth
            {AMO_MODEL}
            moments.p = 1.0,2.0
            moments.times = 1.0,10.0
            moments.radius = 16
            output.prefix = mom
            """,
        )
        out = tmp_path / "loud"
        with caplog.at_level(logging.INFO):
            code = cli.main(["moments", "--config", str(p), "--out", str(out),
                             "--workers", str(workers), "--verbose"])
        assert code == 0
        assert capsys.readouterr().out == (
            f"moment-growth: wrote 3 files (6 rows) to {out}\n"
        )
        tasks = [r.getMessage() for r in caplog.records
                 if r.name == "qpdyn.harness.recipes"]
        assert len(tasks) == 1
        for i, message in enumerate(tasks, start=1):
            assert re.fullmatch(
                rf"task {i}/1 moment_series finished in \d+\.\d{{3}} s", message
            )
        manifest = json.loads((out / "mom_manifest.json").read_text())
        assert len(manifest["task_seconds"]) == 1
        assert all(s >= 0.0 for s in manifest["task_seconds"])
        run_experiment(load_config(p), tmp_path / "quiet", workers=workers)
        for name in ("mom_moments.csv", "mom_fits.csv"):
            assert (out / name).read_bytes() == (tmp_path / "quiet" / name).read_bytes()

    @pytest.mark.parametrize("workers", ["0", "-2", "two"])
    def test_workers_below_one_exit_two_with_usage(self, tmp_path, capsys,
                                                   workers):
        p = write(tmp_path, "sub.cfg", f"{AMO_MODEL}scan.sizes = 10,20,40\n"
                  "scan.sub_size = 2\n")
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exit_:
            cli.main(["sublinear", "--config", str(p), "--out", str(out),
                      "--workers", workers])
        assert exit_.value.code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("usage: qpdyn sublinear")
        assert f"--workers: must be an integer of at least 1, got '{workers}'" in err
        assert not out.exists()

    def test_missing_file_exit_two(self, tmp_path):
        code = cli.main(
            ["evolve", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_safety_flag_exit_three(self, tmp_path, capsys, monkeypatch):
        # ballistic spreading floods a small box, raising the leakage flag
        p = write(
            tmp_path,
            "par.cfg",
            """
            experiment = parseval-crosscheck
            model.preset = free-laplacian
            parseval.horizons = 20.0
            parseval.radius = 24
            output.prefix = par
            """,
        )
        code = cli.main(
            ["parseval-check", "--config", str(p), "--out", str(tmp_path / "o")]
        )
        assert code == 3
        assert "safety" in capsys.readouterr().err
        # an energy quadrature allowed no bisection cannot converge: every
        # recipe raises the quadrature flag, and the failed task writes no rows
        monkeypatch.setattr(dynamics, "MAX_PANELS", 0)
        for command, body, csv in (
            ("moments", "moments.modes = time-averaged-parseval\n"
             "moments.radius = 32\nmoments.horizons = 200.0", "q_moments.csv"),
            ("parseval-check", "parseval.radius = 32\nparseval.horizons = 200.0",
             "q_entries.csv"),
        ):
            p = write(tmp_path, "q.cfg", f"{AMO_MODEL}\n{body}\noutput.prefix = q\n")
            out = tmp_path / command
            code = cli.main([command, "--config", str(p), "--out", str(out)])
            assert code == 3
            assert "quadrature" in capsys.readouterr().err
            assert len((out / csv).read_text().splitlines()) == 1

    def test_recipe_names_cover_cli(self):
        assert set(cli.SUBCOMMANDS.values()) - {"sweep"} == set(RECIPES)
