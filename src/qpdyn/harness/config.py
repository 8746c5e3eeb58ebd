"""Flat ``key = value`` experiment configs with dotted sections.

One file describes one experiment.  Values are scalars, comma lists, or
``linspace:a,b,n`` / ``logspace:a,b,n`` grids; ``#`` starts a comment.
Validation collects every violated precondition before failing so a bad
config is reported in full.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
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


def _floats(value: Any) -> tuple[float, ...]:
    return tuple(float(v) for v in _as_tuple(value))


def _exempt(key: str) -> bool:
    """Keys read outside the recipes: the runners own these."""
    return key in ("experiment", "seed", "output.prefix") or key.startswith("sweep.")


class ConfigReader:
    """Pulls typed values out of the raw mapping, accumulating issues and
    remembering which keys were read."""

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

    def number(self, key, default=None, required=False, minimum=None, maximum=None):
        v = self._fetch(key, default, required)
        if v is None:
            return None
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            self.issues.append(f"'{key}' must be a number, got {v!r}")
            return default
        if minimum is not None and v < minimum:
            self.issues.append(f"'{key}' must be >= {minimum}, got {v}")
        if maximum is not None and v > maximum:
            self.issues.append(f"'{key}' must be <= {maximum}, got {v}")
        return v

    def integer(self, key, default=None, required=False, minimum=None):
        v = self.number(key, default, required, minimum)
        if v is None:
            return None
        if int(v) != v:
            self.issues.append(f"'{key}' must be an integer, got {v!r}")
            return default
        return int(v)

    def floats(self, key, default=None, required=False):
        v = self._fetch(key, default, required)
        if v is None:
            return None
        try:
            return _floats(v)
        except (TypeError, ValueError):
            self.issues.append(f"'{key}' must be numeric, got {v!r}")
            return default

    def integers(self, key, default=None, required=False):
        v = self.floats(key, default, required)
        if v is None:
            return None
        if not all(x.is_integer() for x in v):
            self.issues.append(f"'{key}' must be integers, got {v!r}")
            return default
        return tuple(int(x) for x in v)

    def string(self, key, default=None, required=False, choices=None):
        v = self._fetch(key, default, required)
        if v is None:
            return None
        v = str(v)
        if choices and v not in choices:
            self.issues.append(f"'{key}' must be one of {sorted(choices)}, got {v!r}")
        return v

    def strings(self, key, default, choices):
        """A list of names, each one of ``choices``."""
        v = tuple(str(x) for x in _as_tuple(self._fetch(key, default, False)))
        if any(x not in choices for x in v):
            self.issues.append(f"'{key}' entries must be in {choices}, got {v!r}")
        return v

    def prefixed(self, head: str) -> list[tuple[str, Any]]:
        """(rest of the key, value) for every key that starts with ``head``."""
        items = [(k[len(head) :], v) for k, v in self.raw.items()
                 if k.startswith(head)]
        self.read.update(head + rest for rest, _ in items)
        return items

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
        try:
            site = tuple(int(c) for c in _as_tuple(v))
        except (TypeError, ValueError):
            self.issues.append(f"'{key}' must be an integer site, got {v!r}")
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
    preset = reader.string("model.preset", default=None)
    if preset == "amo":
        lam = reader.number("model.lambda", required=True, minimum=0.0)
        alpha = reader.number("model.alpha", required=True)
        phase = reader.number("model.phase", default=0.0)
        if reader.issues:
            return None
        return almost_mathieu(float(lam), float(alpha), float(phase))
    if preset == "free-laplacian":
        d = reader.integer("model.dimension", default=1, minimum=1)
        return free_laplacian(d or 1)
    if preset is not None:
        reader.issues.append(
            f"unknown model.preset {preset!r} (amo, free-laplacian, or omit)"
        )
        return None

    kind = reader.string(
        "model.kernel", default="laplacian", choices={"zero", "laplacian", "toeplitz"}
    )
    d = reader.integer("model.dimension", default=1, minimum=1) or 1
    kernel = None
    if kind == "zero":
        kernel = KernelSpec.zero(d)
    elif kind == "laplacian":
        kernel = KernelSpec.laplacian(d)
    else:
        coeffs = {}
        for offset_text, value in reader.prefixed("model.kernel.coeff."):
            try:
                offset = tuple(int(c) for c in offset_text.split(","))
                coeffs[offset] = complex(value)
            except (TypeError, ValueError):
                reader.issues.append(
                    f"bad kernel coefficient at 'model.kernel.coeff.{offset_text}'"
                )
        amp = reader.number("model.kernel.amplitude", default=math.e, minimum=0.0)
        rate = reader.number("model.kernel.rate", default=1.0, minimum=0.0)
        if not coeffs:
            reader.issues.append("toeplitz kernel needs model.kernel.coeff.* entries")
        else:
            try:
                kernel = KernelSpec.toeplitz(coeffs, float(amp), float(rate))
            except ValueError as exc:
                reader.issues.append(f"kernel: {exc}")

    const = reader.number("model.potential.const", default=0.0)
    cosine = {}
    sine = {}
    for name, store in (("cos", cosine), ("sin", sine)):
        head = f"model.potential.{name}."
        for freq_text, value in reader.prefixed(head):
            try:
                freq = tuple(int(c) for c in freq_text.split(","))
                store[freq] = float(value)
            except (TypeError, ValueError):
                reader.issues.append(
                    f"bad potential coefficient at '{head}{freq_text}'"
                )
    dynamics = build_dynamics(reader)
    if dynamics is None or kernel is None or reader.issues:
        return None
    b = dynamics.torus_dim
    potential = PotentialSpec(
        b,
        constant=float(const),
        cosine=tuple(sorted(cosine.items())),
        sine=tuple(sorted(sine.items())),
    )
    coupling = reader.number("model.coupling", default=1.0, minimum=0.0)
    try:
        return OperatorSpec(kernel, potential, dynamics, float(coupling))
    except ValueError as exc:
        reader.issues.append(f"model: {exc}")
        return None
