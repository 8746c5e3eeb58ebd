"""Flat ``key = value`` experiment configs with dotted sections.

One file describes one experiment.  Values are scalars, comma lists, or
``linspace:a,b,n`` / ``logspace:a,b,n`` grids; ``#`` starts a comment.
Validation collects every violated precondition before failing so a bad
config is reported in full.
"""

from __future__ import annotations

import cmath
import hashlib
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from ..operators import (
    KernelSpec,
    OperatorSpec,
    PotentialSpec,
    ShiftDynamics,
    almost_mathieu,
    free_laplacian,
)


class ConfigError(Exception):
    """Invalid experiment config; ``issues`` lists every violation."""

    def __init__(self, issues: Sequence[str]):
        self.issues = list(issues)
        super().__init__("invalid config:\n" + "\n".join(f"- {i}" for i in issues))


def _parse_scalar(token: str) -> Any:
    token = token.strip()
    low = token.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    if "j" in low:
        try:
            return complex(token)
        except ValueError:
            pass
    return token


def parse_value(raw: str) -> Any:
    raw = raw.strip()
    for name, fn in (("linspace", np.linspace), ("logspace", np.geomspace)):
        if raw.startswith(name + ":"):
            parts = raw[len(name) + 1 :].split(",")
            if len(parts) != 3:
                raise ValueError(f"{name} needs start,stop,count")
            a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
            return tuple(float(v) for v in fn(a, b, n))
    if "," in raw:
        return tuple(_parse_scalar(t) for t in raw.split(",") if t.strip())
    return _parse_scalar(raw)


def parse_config_text(text: str) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError([f"line {lineno}: expected 'key = value'"])
        key, _, value = body.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError([f"line {lineno}: empty key"])
        try:
            out[key] = parse_value(value)
        except ValueError as exc:
            raise ConfigError([f"line {lineno}: {exc}"]) from exc
    return out


def config_hash(text: str) -> str:
    canonical = "\n".join(
        sorted(
            line.split("#", 1)[0].strip()
            for line in text.splitlines()
            if line.split("#", 1)[0].strip()
        )
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    raw: dict[str, Any]
    hash: str
    seed: int = 0

    def get(self, key: str, default: Any = None) -> Any:
        return self.raw.get(key, default)


def load_config(path: str | Path, experiment: str | None = None) -> ExperimentConfig:
    """Read and parse a config file; ``experiment`` overrides or must match
    the file's own ``experiment`` key."""
    text = Path(path).read_text()
    raw = parse_config_text(text)
    declared = raw.get("experiment")
    if experiment is None and declared is None:
        raise ConfigError(["missing 'experiment' key and no subcommand given"])
    if experiment is not None and declared is not None and experiment != declared:
        raise ConfigError(
            [f"config declares experiment '{declared}' but '{experiment}' was requested"]
        )
    name = experiment or declared
    return ExperimentConfig(str(name), raw, config_hash(text), _seed(raw))


def config_from_raw(raw: Mapping[str, Any], experiment: str) -> ExperimentConfig:
    text = "\n".join(f"{k} = {_format_value(v)}" for k, v in sorted(raw.items()))
    return ExperimentConfig(experiment, dict(raw), config_hash(text), _seed(raw))


def _seed(raw: Mapping[str, Any]) -> int:
    """The run's ``seed`` (default 0): a non-negative integer, not a bool."""
    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError([f"'seed' must be a non-negative integer, got {seed!r}"])
    return seed


def _format_value(v: Any) -> str:
    if isinstance(v, (tuple, list)):
        return ",".join(repr(x) for x in v)
    return repr(v) if isinstance(v, float) else str(v)


def _as_tuple(value: Any) -> tuple:
    if isinstance(value, (tuple, list)):
        return tuple(value)
    return (value,)


def _exempt(key: str) -> bool:
    """Keys read outside the recipes: the runners own these."""
    return key in ("experiment", "seed", "output.prefix") or key.startswith("sweep.")


class ConfigReader:
    """Pulls typed values out of the raw mapping, accumulating issues and
    remembering which keys were read.  Every numeric value (scalar, grid,
    site coordinate, model coefficient) passes one rule, ``_numbers``: a
    finite int or float, never a bool, complex only for a kernel coefficient.
    A key's own rules (integral, positive, minimum, maximum, distinct,
    ascending) sit on top; the first one broken is the key's one issue."""

    def __init__(self, raw: Mapping[str, Any]):
        self.raw = raw
        self.issues: list[str] = []
        self.read: set[str] = set()

    def check(self) -> None:
        """Raise a ConfigError listing every issue or, when there is none,
        every key that nothing read (a typo would otherwise be ignored)."""
        if not self.issues:
            self.issues = [f"unknown key '{key}'" for key in self.raw
                           if key not in self.read and not _exempt(key)]
        if self.issues:
            raise ConfigError(self.issues)

    def _fetch(self, key: str, default, required: bool):
        self.read.add(key)
        if key in self.raw:
            return self.raw[key]
        if required:
            self.issues.append(f"missing required key '{key}'")
        return default

    def _numbers(self, key, v, scalar=False, integral=False, complex_ok=False,
                 positive=False, minimum=None, maximum=None, distinct=False,
                 ascending=False) -> tuple | None:
        """The entries of ``v`` (one value with ``scalar``, else a comma
        list) under the one number rule and the key's own rules, as ints
        when ``integral``; None once the first broken rule is an issue."""
        values = (v,) if scalar else _as_tuple(v)
        kinds = (int, float, complex) if complex_ok else (int, float)
        # an int is finite, and may be too large for isfinite
        if not all(isinstance(x, kinds) and not isinstance(x, bool)
                   and (isinstance(x, int) or cmath.isfinite(x)) for x in values):
            issue = f"must be {'a finite number' if scalar else 'finite numbers'}"
        elif integral and any(x != int(x) for x in values):
            issue = f"must be {'an integer' if scalar else 'integers'}"
        elif positive and not all(x > 0 for x in values):
            issue = "must be positive"
        elif minimum is not None and any(x < minimum for x in values):
            issue = f"must be >= {minimum}"
        elif maximum is not None and any(x > maximum for x in values):
            issue = f"must be <= {maximum}"
        elif distinct and len(set(values)) < len(values):
            self.issues.append(f"'{key}' repeats a value: {v!r}")
            return None
        elif ascending and list(values) != sorted(values):
            issue = "must be sorted ascending"
        else:
            return tuple(map(int, values)) if integral else values
        self.issues.append(f"'{key}' {issue}, got {v!r}")
        return None

    def _read(self, key, default, required, **rules) -> tuple | None:
        v = self._fetch(key, default, required)
        return None if v is None else self._numbers(key, v, **rules)

    def number(self, key, default=None, required=False, minimum=None, maximum=None,
               positive=False):
        got = self._read(key, default, required, scalar=True, minimum=minimum,
                         maximum=maximum, positive=positive)
        return default if got is None else got[0]

    def integer(self, key, default=None, required=False, minimum=None):
        got = self._read(key, default, required, scalar=True, integral=True,
                         minimum=minimum)
        return default if got is None else got[0]

    def floats(self, key, default=None, required=False, positive=False,
               distinct=False, ascending=False):
        got = self._read(key, default, required, positive=positive,
                         distinct=distinct, ascending=ascending)
        return default if got is None else tuple(map(float, got))

    def integers(self, key, default=None, required=False, positive=False,
                 distinct=False):
        got = self._read(key, default, required, integral=True, positive=positive,
                         distinct=distinct)
        return default if got is None else got

    def string(self, key, default=None, required=False, choices=None):
        v = self._fetch(key, default, required)
        if v is None:
            return None
        v = str(v)
        if choices and v not in choices:
            self.issues.append(f"'{key}' must be one of {sorted(choices)}, got {v!r}")
        return v

    def strings(self, key, default, choices):
        """A list of distinct names, each one of ``choices``."""
        v = tuple(str(x) for x in _as_tuple(self._fetch(key, default, False)))
        if any(x not in choices for x in v):
            self.issues.append(f"'{key}' entries must be in {choices}, got {v!r}")
        if len(set(v)) < len(v):
            self.issues.append(f"'{key}' repeats a value: {v!r}")
        return v

    def coefficients(self, head: str, complex_ok: bool = False) -> dict:
        """{integer vector: value} of every key ``head`` + ``k1,...,kd``;
        each value is read by the one number rule."""
        table = {}
        for key in [k for k in self.raw if k.startswith(head)]:
            self.read.add(key)
            index = tuple(_parse_scalar(c) for c in key[len(head):].split(","))
            if not all(type(c) is int for c in index):
                self.issues.append(f"'{key}' must end in integer coordinates")
                continue
            got = self._numbers(key, self.raw[key], scalar=True,
                                complex_ok=complex_ok)
            if got is not None:
                table[index] = got[0]
        return table

    def flag(self, key, default=False):
        v = self._fetch(key, default, required=False)
        if not isinstance(v, bool):
            self.issues.append(f"'{key}' must be true or false, got {v!r}")
            return default
        return v

    def site(self, key, dimension, radius):
        """A lattice site with ``dimension`` coordinates in [-R/2, R/2]^d of
        the starting box of radius R, the origin by default; any length
        passes when ``dimension`` is None (the model itself is invalid)."""
        origin = (0,) * (dimension or 1)
        v = self._fetch(key, origin, required=False)
        site = self._numbers(key, v, integral=True)
        if site is None:
            return origin
        if not site:
            self.issues.append(f"'{key}' must be a non-empty site, got {v!r}")
            return origin
        if dimension is not None and len(site) != dimension:
            self.issues.append(
                f"'{key}' must have {dimension} coordinates, got {v!r}"
            )
            return origin
        if 2 * max(abs(c) for c in site) > radius:
            self.issues.append(f"'{key}' must lie in [-R/2, R/2]^d, got {v!r}")
        return site


def build_dynamics(reader: ConfigReader, prefix: str = "model.dynamics"):
    mode = reader.string(f"{prefix}.mode", default="linear-form",
                         choices={"linear-form", "rank-one", "product"})
    alpha = reader.floats(f"{prefix}.alpha", default=(0.0,))
    phase = reader.floats(f"{prefix}.phase", default=(0.0,) * len(alpha or (0.0,)))
    try:
        return ShiftDynamics(mode, alpha, phase)
    except (TypeError, ValueError) as exc:
        reader.issues.append(f"dynamics: {exc}")
        return None


def build_operator(reader: ConfigReader) -> OperatorSpec | None:
    """The model of the ``model.*`` keys, or None with its issues recorded:
    each key is read and checked where it takes effect, and then one guarded
    construction builds the model."""
    preset = reader.string("model.preset", default=None)
    if preset == "amo":
        build = partial(almost_mathieu,
                        reader.number("model.lambda", required=True, minimum=0.0),
                        reader.number("model.alpha", required=True),
                        reader.number("model.phase", default=0.0))
    elif preset == "free-laplacian":
        build = partial(free_laplacian,
                        reader.integer("model.dimension", default=1, minimum=1))
    elif preset is None:
        build = _explicit_model(reader)
    else:
        reader.issues.append(
            f"unknown model.preset {preset!r} (amo, free-laplacian, or omit)"
        )
    if reader.issues:
        return None
    try:
        return build()
    except ValueError as exc:
        reader.issues.append(f"model: {exc}")
        return None


def _explicit_model(reader: ConfigReader):
    """Read the keys of a model without a preset; returns its builder."""
    kind = reader.string(
        "model.kernel", default="laplacian", choices={"zero", "laplacian", "toeplitz"}
    )
    d = reader.integer("model.dimension", default=None, minimum=1)
    if kind == "toeplitz":
        head = "model.kernel.coeff."
        coeffs = reader.coefficients(head, complex_ok=True)
        amp = reader.number("model.kernel.amplitude", default=math.e, positive=True)
        rate = reader.number("model.kernel.rate", default=1.0, positive=True)
        if not any(key.startswith(head) for key in reader.raw):
            reader.issues.append(f"toeplitz kernel needs {head}* entries")
    const = reader.number("model.potential.const", default=0.0)
    cosine = reader.coefficients("model.potential.cos.")
    sine = reader.coefficients("model.potential.sin.")
    dynamics = build_dynamics(reader)
    coupling = reader.number("model.coupling", default=1.0, positive=True)

    def build():
        if kind == "toeplitz":
            kernel = KernelSpec.toeplitz(coeffs, float(amp), float(rate))
            if d not in (None, kernel.dimension):
                raise ValueError(f"'model.dimension' is {d}, but the kernel "
                                 f"offsets are {kernel.dimension}-dimensional")
        else:
            make = KernelSpec.zero if kind == "zero" else KernelSpec.laplacian
            kernel = make(d or 1)
        potential = PotentialSpec(
            dynamics.torus_dim,
            constant=float(const),
            cosine=tuple(sorted(cosine.items())),
            sine=tuple(sorted(sine.items())),
        )
        return OperatorSpec(kernel, potential, dynamics, float(coupling))
    return build
