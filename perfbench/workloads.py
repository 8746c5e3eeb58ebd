"""The four benchmark workloads: config text from a seed, and output checks.

Every workload is an almost-Mathieu (AMO) or AMO-like model at coupling 3
(potential 6 cos) with golden frequency.  The seed picks the phase x; the
default seed gives x = 0.3, the phase the stored references were made at.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
PREFIX = "bench"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
ROUTE_REL_DEV_MAX = 1e-6  # acceptance threshold of the route-equivalence test


def phase_for_seed(seed: int) -> float:
    """x = 0.3 + seed (1 - golden) mod 1: distinct seeds spread over the torus."""
    return (0.3 + seed * (1.0 - GOLDEN)) % 1.0


def _amo(phase: float) -> str:
    return (
        "model.preset = amo\n"
        "model.lambda = 3.0\n"
        f"model.alpha = {GOLDEN!r}\n"
        f"model.phase = {phase!r}\n"
    )


def _box_scan_config(phase: float) -> str:
    return (
        "experiment = bad-set-scan\n"
        "model.kernel = laplacian\n"
        "model.dimension = 2\n"
        "model.potential.cos.1 = 6.0\n"
        "model.dynamics.mode = rank-one\n"
        f"model.dynamics.alpha = {GOLDEN!r},{math.sqrt(2.0) - 1.0!r}\n"
        f"model.dynamics.phase = {phase!r}\n"
        "scan.sizes = 10\n"
        "scan.sub_size = 3\n"
        "scan.energies = 0.0,7.5\n"
        "scan.epsilon = 1e-3\n"
        f"output.prefix = {PREFIX}\n"
    )


def _sublinear_config(phase: float) -> str:
    return (
        "experiment = sublinear\n"
        + _amo(phase)
        + "scan.sizes = 200,400,800,1600\n"
        "scan.sub_exponent = 0.3\n"
        "scan.energies = 0.0,1.0\n"
        "scan.epsilon = 1e-3\n"
        f"output.prefix = {PREFIX}\n"
    )


def _instantaneous_config(phase: float) -> str:
    # README's moment config, with both p = 1 and p = 2
    return (
        "experiment = moment-growth\n"
        + _amo(phase)
        + "moments.p = 1.0,2.0\n"
        "moments.radius = 2048\n"
        "moments.times = logspace:100,10000,25\n"
        "moments.auto_double = true\n"
        f"output.prefix = {PREFIX}\n"
    )


def _time_averaged_config(phase: float) -> str:
    return (
        "experiment = moment-growth\n"
        + _amo(phase)
        + "moments.modes = time-averaged-direct,time-averaged-parseval\n"
        "moments.p = 2.0\n"
        "moments.radius = 128\n"
        "moments.horizons = logspace:2,200,10\n"
        f"output.prefix = {PREFIX}\n"
    )


def read_csv(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def _logspace(a: float, b: float, n: int) -> list[float]:
    la, lb = math.log10(a), math.log10(b)
    return [10 ** (la + (lb - la) * i / (n - 1)) for i in range(n)]


def _close(a: float, b: float, rel: float) -> bool:
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# checks that need no stored reference; each returns a list of problems


def _check_box_scan(out: Path) -> tuple[list[str], dict]:
    header, rows = read_csv(out / f"{PREFIX}_scan.csv")
    problems = []
    want = ["experiment", "config_hash", "N", "N1", "E", "eps", "n0", "n1",
            "shapeId", "norm", "worstPairDecayMargin", "good", "stronglyGood"]
    if header != want:
        return [f"scan header {header} != {want}"], {}
    keys = [
        (e, c0, c1, s)
        for e in ("0.0", "7.5")
        for c0, c1 in product(range(-10, 11), repeat=2)
        for s in range(5)
    ]
    if len(rows) != len(keys):
        return [f"scan has {len(rows)} rows, expected {len(keys)}"], {}
    for row, (e, c0, c1, s) in zip(rows, keys):
        got = (row["N"], row["N1"], row["E"], row["eps"], int(row["n0"]),
               int(row["n1"]), int(row["shapeId"]))
        if got != ("10", "3", e, "0.001", c0, c1, s):
            problems.append(f"scan row out of plan order: {got}")
            break
    for row in rows:
        norm = float(row["norm"])
        # ||G|| <= 1/eps on every Hermitian volume
        if not (0.0 < norm <= 1e3 * (1.0 + 1e-9)):
            problems.append(f"scan norm {norm} outside (0, 1/eps]")
            break
        if row["stronglyGood"] == "true" and row["good"] != "true":
            problems.append("scan row strongly good but not good")
            break
    return problems, {}


def _check_sublinear(out: Path) -> tuple[list[str], dict]:
    _, counts = read_csv(out / f"{PREFIX}_counts.csv")
    _, fits = read_csv(out / f"{PREFIX}_fit.csv")
    problems = []
    keys = [(e, n) for e in ("0.0", "1.0") for n in (200, 400, 800, 1600)]
    if len(counts) != len(keys) or len(fits) != 2:
        return [f"sublinear has {len(counts)} count and {len(fits)} fit rows"], {}
    for row, (e, n) in zip(counts, keys):
        bad, total = int(row["badCount"]), int(row["totalCenters"])
        if (row["E"], int(row["N"]), int(row["N1"])) != (e, n, math.ceil(n**0.3)):
            problems.append(f"sublinear row out of plan order: {row}")
        if total != 2 * n + 1 or not 0 <= bad <= total:
            problems.append(f"sublinear counts {bad}/{total} at N={n}")
        if float(row["fraction"]) != bad / total:
            problems.append(f"sublinear fraction {row['fraction']} != {bad}/{total}")
    for row in fits:
        if not math.isfinite(float(row["delta"])):
            problems.append(f"sublinear fit delta {row['delta']} at E={row['E']}")
    return problems, {}


def _moment_rows(out: Path) -> list[dict[str, str]]:
    _, rows = read_csv(out / f"{PREFIX}_moments.csv")
    return rows


def _check_instantaneous(out: Path) -> tuple[list[str], dict]:
    rows = _moment_rows(out)
    times = _logspace(100, 10000, 25)
    if len(rows) != 2 * len(times):
        return [f"instantaneous has {len(rows)} rows, expected {2 * len(times)}"], {}
    problems = []
    by_p: dict[str, list[float]] = {"1.0": [], "2.0": []}
    for i, row in enumerate(rows):
        p = "1.0" if i < len(times) else "2.0"
        t = times[i % len(times)]
        value = float(row["value"])
        if (row["mode"], row["p"], row["radius"]) != ("instantaneous", p, "2048"):
            problems.append(f"instantaneous row out of plan order: {row}")
        if not _close(float(row["t_or_T"]), t, 1e-12):
            problems.append(f"instantaneous time {row['t_or_T']} != {t}")
        if not (math.isfinite(value) and value > 0.0):
            problems.append(f"instantaneous moment {value} at t={t}")
        by_p[p].append(value)
    # Jensen: <|n|^2> >= <|n|>^2 for a unit state
    for m1, m2 in zip(by_p["1.0"], by_p["2.0"]):
        if m2 < m1 * m1 * (1.0 - 1e-12):
            problems.append(f"instantaneous moments break Jensen: {m2} < {m1}^2")
            break
    return problems, {}


def _check_time_averaged(out: Path) -> tuple[list[str], dict]:
    rows = _moment_rows(out)
    horizons = _logspace(2, 200, 10)
    if len(rows) != 2 * len(horizons):
        return [f"time-averaged has {len(rows)} rows, expected {2 * len(horizons)}"], {}
    problems = []
    direct, parseval = rows[: len(horizons)], rows[len(horizons) :]
    worst = 0.0
    for T, d, p in zip(horizons, direct, parseval):
        if (d["mode"], p["mode"]) != ("time-averaged-direct", "time-averaged-parseval"):
            problems.append(f"time-averaged rows out of plan order at T={T}")
        if not (_close(float(d["t_or_T"]), T, 1e-12) and d["t_or_T"] == p["t_or_T"]):
            problems.append(f"time-averaged horizon {d['t_or_T']} != {T}")
        dv, pv = float(d["value"]), float(p["value"])
        if not (math.isfinite(dv) and dv > 0.0 and math.isfinite(pv)):
            problems.append(f"time-averaged moments {dv}, {pv} at T={T}")
            continue
        worst = max(worst, abs(dv - pv) / dv)
    if worst > ROUTE_REL_DEV_MAX:
        problems.append(f"route_rel_dev {worst:.3e} > {ROUTE_REL_DEV_MAX:g}")
    return problems, {"route_rel_dev": worst}


# ---------------------------------------------------------------------------
# stored references at the default seed: per output file, the compared
# columns and their relative tolerance (None: must match exactly)


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    why: str
    config: Callable[[float], str]  # phase -> config text
    check: Callable[[Path], tuple[list[str], dict]]  # out dir -> (problems, extras)
    reference: dict[str, list[tuple[str, float | None]]]

    def config_text(self, seed: int) -> str:
        return self.config(phase_for_seed(seed))


MOMENT_REFERENCE = {"moments": [("mode", None), ("p", None), ("t_or_T", None),
                                ("value", 1e-12), ("radius", None)]}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "box-scan-2d",
            "greens-scan",
            "per-box record path: classify_box does an LU solve and an eigvalsh "
            "on each of 4410 2-d boxes, and the harness writes 4410 rows",
            _box_scan_config,
            _check_box_scan,
            {"scan": [("norm", 1e-9), ("worstPairDecayMargin", 1e-9),
                      ("good", None), ("stronglyGood", None)]},
        ),
        Workload(
            "sublinear-1d",
            "sublinear",
            "counting path bad_set -> is_strongly_good on 12008 1-d boxes, "
            "nearly all bad, so early exits skip most norms",
            _sublinear_config,
            _check_sublinear,
            {"counts": [("N", None), ("N1", None), ("E", None),
                        ("badCount", None), ("totalCenters", None),
                        ("fraction", 1e-12)],
             "fit": [("E", None), ("delta", 1e-9), ("slope", 1e-9),
                     ("noBadBoxes", None)]},
        ),
        Workload(
            "moment-instantaneous",
            "moments",
            "one dense eigh of order 4097 is most of the run; the eigensolver "
            "and peak memory show here",
            _instantaneous_config,
            _check_instantaneous,
            MOMENT_REFERENCE,
        ),
        Workload(
            "moment-time-averaged",
            "moments",
            "time and energy quadratures of the averaged moment at radius 128 "
            "dominate while eigh is negligible; both routes are cross-checked",
            _time_averaged_config,
            _check_time_averaged,
            MOMENT_REFERENCE,
        ),
    )
}


def reference_path(workload: str, suffix: str) -> Path:
    return REFERENCE_DIR / f"{workload}_{suffix}.csv"


def reference_table(workload: Workload, out: Path, suffix: str):
    """The compared columns of one output file, as (header, rows)."""
    columns = [name for name, _ in workload.reference[suffix]]
    _, rows = read_csv(out / f"{PREFIX}_{suffix}.csv")
    return columns, [[row[c] for c in columns] for row in rows]


def compare_reference(workload: Workload, out: Path) -> list[str]:
    """Mismatches of the outputs in ``out`` against the stored references."""
    problems = []
    for suffix, spec in workload.reference.items():
        columns, rows = reference_table(workload, out, suffix)
        ref_columns, ref_rows = read_csv(reference_path(workload.name, suffix))
        if ref_columns != columns or len(ref_rows) != len(rows):
            problems.append(f"{suffix}: shape differs from the reference")
            continue
        for i, (row, ref) in enumerate(zip(rows, ref_rows)):
            for (name, tol), got in zip(spec, row):
                want = ref[name]
                same = got == want if tol is None else _close(float(got), float(want), tol)
                if not same:
                    problems.append(f"{suffix} row {i} {name}: {got} != reference {want}")
                    break
            if len(problems) >= 5:
                return problems
    return problems


def check_outputs(workload: Workload, out: Path, seed: int) -> tuple[list[str], dict]:
    """Every check of one run's outputs; references apply at the default seed."""
    problems, extras = workload.check(out)
    if seed == DEFAULT_SEED and not problems:
        problems = compare_reference(workload, out)
    return problems, extras
