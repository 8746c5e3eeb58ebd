import json
import logging
import math
import re
from pathlib import Path

import pytest

from qpdyn.harness import cli
from qpdyn.harness.config import (
    ConfigError,
    config_hash,
    load_config,
    parse_config_text,
    parse_value,
)
from qpdyn import dynamics
from qpdyn.dynamics import amplitude_table_parseval, evolve
from qpdyn.harness.recipes import RECIPES, run_experiment, run_sweep
from qpdyn.operators import StateVector, almost_mathieu

GOLDEN = repr((math.sqrt(5.0) - 1.0) / 2.0)

AMO_MODEL = f"""
model.preset = amo
model.lambda = 3.0
model.alpha = {GOLDEN}
model.phase = 0.3
"""


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
        assert manifest["max_matrix_order"] == 65  # the box [-32, 32]

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
        panels = [amplitude_table_parseval(amo, (0,), T, 16).panels
                  for T in (5.0, 50.0)]
        assert manifest["max_quadrature_panels"] == max(panels) > 34

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
    ], ids=["typo", "max-doublings", "horizon", "sizes-text", "sizes-fraction",
            "disc-sizes-fraction", "initial-length", "evolve-initial-length",
            "source-length", "initial-outside-box", "evolve-initial-outside-box",
            "source-outside-box", "repeated-sizes", "repeated-energies",
            "class-xi"])
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
        assert len(tasks) == 2
        for i, message in enumerate(tasks, start=1):
            assert re.fullmatch(
                rf"task {i}/2 moment_series finished in \d+\.\d{{3}} s", message
            )
        manifest = json.loads((out / "mom_manifest.json").read_text())
        assert len(manifest["task_seconds"]) == 2
        assert all(s >= 0.0 for s in manifest["task_seconds"])
        run_experiment(load_config(p), tmp_path / "quiet", workers=workers)
        for name in ("mom_moments.csv", "mom_fits.csv"):
            assert (out / name).read_bytes() == (tmp_path / "quiet" / name).read_bytes()

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
