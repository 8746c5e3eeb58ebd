"""Per-layer tracing of qpdyn from outside the library.

``install()`` wraps the public functions of the lattice, operators, greens,
dynamics and harness layers, and the LAPACK-backed calls that greens and
dynamics make, in timed spans.  Modules import names directly (``from
.operators import assemble``), so each wrapper replaces every binding of the
original in every loaded ``qpdyn`` module, not only the defining one.

Spans nest: a span's self time is its duration minus the time of the spans
it encloses.  A generator function is drained inside its span, so its work
is charged to it and not to its consumer; every caller on the traced paths
consumes these generators whole, so the outputs do not change.
``Tracer.metrics()`` turns the raw spans into the per-layer figures listed in
``METRICS``; ``arithmetic`` is left unmeasured.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

# name -> (unit, better); the order is the report order
METRICS = {
    "lattice.points.calls": ("count", "lower"),
    "lattice.points.s": ("s", "lower"),
    "lattice.enumerate_shapes.calls": ("count", "lower"),
    "lattice.enumerate_shapes.s": ("s", "lower"),
    "operators.assemble.calls": ("count", "lower"),
    "operators.assemble.s": ("s", "lower"),
    "operators.assemble.sites": ("count", "lower"),
    "operators.site_list.calls": ("count", "lower"),
    "operators.site_list.s": ("s", "lower"),
    "greens.boxes": ("count", "lower"),
    "greens.greens.calls": ("count", "lower"),
    "greens.greens.s": ("s", "lower"),
    "greens.resolvent_norm.calls": ("count", "lower"),
    "greens.resolvent_norm.s": ("s", "lower"),
    "greens.lu_solve_s": ("s", "lower"),
    "greens.eigvalsh_s": ("s", "lower"),
    "greens.residual_norm_s": ("s", "lower"),
    "greens.self_s": ("s", "lower"),
    "greens.factorisations_per_box": ("ratio", "lower"),
    "dynamics.eigh.calls": ("count", "lower"),
    "dynamics.eigh.s": ("s", "lower"),
    "dynamics.eigh.max_order": ("count", "lower"),
    "dynamics.evolve.calls": ("count", "lower"),
    "dynamics.evolve.s": ("s", "lower"),
    "dynamics.amplitude_table_direct.calls": ("count", "lower"),
    "dynamics.amplitude_table_direct.s": ("s", "lower"),
    "dynamics.amplitude_table_parseval.calls": ("count", "lower"),
    "dynamics.amplitude_table_parseval.s": ("s", "lower"),
    "dynamics.fit_log_exponent.s": ("s", "lower"),
    "dynamics.route_rel_dev": ("ratio", "lower"),
    "harness.plan_s": ("s", "lower"),
    "harness.execute_s": ("s", "lower"),
    "harness.write_s": ("s", "lower"),
    "harness.tasks": ("count", "lower"),
    "harness.rows_written": ("count", "lower"),
    "harness.bytes_written": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# box verdicts: the outermost of these calls classifies one box
_VERDICTS = ("greens.classify_box", "greens.is_good", "greens.is_strongly_good")


class _ModuleView:
    """A module with some attributes replaced; everything else is delegated."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, seconds covered by children]

    def _enter(self, name: str) -> None:
        if name in _VERDICTS and not any(f[0] in _VERDICTS for f in self._stack):
            self.counts["boxes"] += 1
        self._stack.append([name, 0.0])

    def _leave(self, dt: float) -> None:
        name, children = self._stack.pop()
        if self._stack:
            self._stack[-1][1] += dt
        self.total[name] += dt
        self.self_time[name] += dt - children

    def wrap(self, name: str, fn, on_call=None):
        """A timed stand-in for ``fn``; ``on_call(args, result)`` sees each call."""
        drain = inspect.isgeneratorfunction(fn)

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            self._enter(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = iter(list(result))
            finally:
                self._leave(time.perf_counter() - t0)
            if on_call is not None:
                on_call(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_max(self, key: str):
        def record(args, result):
            self.counts[key] = max(self.counts[key], len(args[0]))

        return record

    def _count_sites(self, args, result):
        self.counts["assemble_sites"] += result.shape[0]

    def _count_tasks(self, args, result):
        self.counts["tasks"] += len(args[0])

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer figures of one traced ``run_experiment`` of ``wall_s``."""
        c, t = self.calls, self.total
        boxes = self.counts["boxes"]
        factorisations = c["greens.greens"] + c["greens.resolvent_norm"]
        greens_self = sum(v for k, v in self.self_time.items()
                          if k.startswith("greens.") and k not in _LAPACK)
        out = {
            "lattice.points.calls": c["lattice.points"],
            "lattice.points.s": t["lattice.points"],
            "lattice.enumerate_shapes.calls": c["lattice.enumerate_shapes"],
            "lattice.enumerate_shapes.s": t["lattice.enumerate_shapes"],
            "operators.assemble.calls": c["operators.assemble"],
            "operators.assemble.s": t["operators.assemble"],
            "operators.assemble.sites": self.counts["assemble_sites"],
            "operators.site_list.calls": c["operators.site_list"],
            "operators.site_list.s": t["operators.site_list"],
            "greens.boxes": boxes,
            "greens.greens.calls": c["greens.greens"],
            "greens.greens.s": t["greens.greens"],
            "greens.resolvent_norm.calls": c["greens.resolvent_norm"],
            "greens.resolvent_norm.s": t["greens.resolvent_norm"],
            "greens.lu_solve_s": t["greens.lu_solve"],
            "greens.eigvalsh_s": t["greens.eigvalsh"],
            "greens.residual_norm_s": t["greens.residual_norm"],
            "greens.self_s": greens_self,
            "greens.factorisations_per_box": factorisations / boxes if boxes else 0.0,
            "dynamics.eigh.calls": c["dynamics.eigh"],
            "dynamics.eigh.s": t["dynamics.eigh"],
            "dynamics.eigh.max_order": self.counts["eigh_order"],
            "dynamics.evolve.calls": c["dynamics.evolve"],
            "dynamics.evolve.s": t["dynamics.evolve"],
            "dynamics.amplitude_table_direct.calls": c["dynamics.amplitude_table_direct"],
            "dynamics.amplitude_table_direct.s": t["dynamics.amplitude_table_direct"],
            "dynamics.amplitude_table_parseval.calls": c["dynamics.amplitude_table_parseval"],
            "dynamics.amplitude_table_parseval.s": t["dynamics.amplitude_table_parseval"],
            "dynamics.fit_log_exponent.s": t["dynamics.fit_log_exponent"],
            "harness.plan_s": t["harness.plan"],
            "harness.execute_s": t["harness.execute"],
            "harness.write_s": wall_s - t["harness.plan"] - t["harness.execute"],
            "harness.tasks": self.counts["tasks"],
        }
        return {k: float(v) for k, v in out.items()}


_LAPACK = ("greens.lu_solve", "greens.eigvalsh", "greens.residual_norm")


def _rebind(original, wrapper) -> None:
    """Point every ``qpdyn`` module-level binding of ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "qpdyn" or name.startswith("qpdyn.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install() -> Tracer:
    """Wrap every traced qpdyn binding in this process; returns the tracer."""
    import numpy
    import scipy.linalg

    # by module path: the package re-exports the function greens.greens
    # under the name of its module
    dynamics, greens, lattice, operators, recipes = (
        importlib.import_module(f"qpdyn.{m}")
        for m in ("dynamics", "greens", "lattice", "operators", "harness.recipes")
    )
    tracer = Tracer()

    for cls in (lattice.ElementaryRegion, lattice.GeneralizedRegion):
        cls.points = tracer.wrap("lattice.points", cls.points)
    functions = [
        (lattice.enumerate_shapes, "lattice.enumerate_shapes", None),
        (operators.assemble, "operators.assemble", tracer._count_sites),
        (operators.site_list, "operators.site_list", None),
        (recipes.execute_tasks, "harness.execute", tracer._count_tasks),
    ]
    for fn in ("greens", "resolvent_norm", "classify_box", "is_good",
               "is_strongly_good", "scan_boxes", "bad_set"):
        functions.append((getattr(greens, fn), f"greens.{fn}", None))
    for fn in ("evolve", "moment_series", "amplitude_table_direct",
               "amplitude_table_parseval", "fit_log_exponent"):
        functions.append((getattr(dynamics, fn), f"dynamics.{fn}", None))
    for original, name, on_call in functions:
        _rebind(original, tracer.wrap(name, original, on_call))
    for key, plan in list(recipes.RECIPES.items()):
        recipes.RECIPES[key] = tracer.wrap("harness.plan", plan)

    # LAPACK as seen from each layer: views of numpy / scipy.linalg that only
    # the greens and dynamics modules use
    greens.sla = _ModuleView(
        scipy.linalg, solve=tracer.wrap("greens.lu_solve", scipy.linalg.solve)
    )
    greens.np = _ModuleView(numpy, linalg=_ModuleView(
        numpy.linalg,
        eigvalsh=tracer.wrap("greens.eigvalsh", numpy.linalg.eigvalsh),
        norm=tracer.wrap("greens.residual_norm", numpy.linalg.norm),
    ))
    dynamics.np = _ModuleView(numpy, linalg=_ModuleView(
        numpy.linalg,
        eigh=tracer.wrap("dynamics.eigh", numpy.linalg.eigh,
                         tracer._count_max("eigh_order")),
    ))
    return tracer
