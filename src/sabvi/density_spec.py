"""Density specification format shared by the command-line tools.

A density is a JSON object:

    {"kind": "gaussian", "mean": 0.0, "stddev": 1.0}
    {"kind": "mixture", "components": [
        {"weight": 0.5, "location": -1.0, "scale": 0.6, "shape": 5.0}, ...]}
    {"kind": "grid", "lo": -5.0, "hi": 5.0, "n": 101, "log_values": [...]}

A grid spec's ``"n"`` is optional: ``log_values`` fixes the point count,
and an ``"n"`` that disagrees with it is an error.  Every number must be
a finite JSON number: a bool or a string is not one.

On the command line a spec can also be the shorthand ``gaussian:MU,SIGMA``,
the word ``mixture:default`` for the stock two-component skew target, a
path prefixed with ``@``, or an inline JSON object.

A spec parses to a `SkewMixtureTarget`, a `GaussianSpec` (both have
``grid_range(span)``, ``min_scale()`` and ``log_pdf(x)``, so they go on
any fine enough grid) or a `GridDensity`, validated here once, which
carries its own grid.  `tabulate` puts specs on one shared grid.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .density_fit import SkewComponent, SkewMixtureTarget
from .divergence import DEFAULT_GRID_POINTS, DEFAULT_GRID_SPAN, GridDensity, gaussian_log_pdf


class SpecError(ValueError):
    pass


def read_json_file(path):
    """The JSON value a file holds; a file that is not UTF-8 text or not
    valid JSON is a SpecError naming its path."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise SpecError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: not valid JSON ({exc})") from None


class GaussianSpec:
    def __init__(self, mean: float, stddev: float):
        self.mean = float(mean)
        self.stddev = float(stddev)
        for name, value in (("mean", self.mean), ("stddev", self.stddev)):
            if not math.isfinite(value):
                raise SpecError(f"gaussian {name} must be finite, got {value}")
        if self.stddev <= 0:
            raise SpecError("gaussian stddev must be positive")

    def grid_range(self, span: float) -> tuple[float, float]:
        return self.mean - span * self.stddev, self.mean + span * self.stddev

    def min_scale(self) -> float:
        return self.stddev

    def log_pdf(self, x):
        return gaussian_log_pdf(x, self.mean, self.stddev)


def parse_density_spec(text):
    """Parse a CLI density argument or an already-decoded JSON object."""
    if isinstance(text, str):
        text = text.strip()
        if text.startswith("gaussian:"):
            try:
                mu, sigma = (float(v) for v in text[len("gaussian:"):].split(","))
            except ValueError:
                raise SpecError(f"bad gaussian shorthand {text!r}; want gaussian:MU,SIGMA") from None
            return GaussianSpec(mu, sigma)
        if text == "mixture:default":
            return SkewMixtureTarget.default()
        if text.startswith("@"):
            obj = read_json_file(text[1:])
        elif text.startswith("{"):
            try:
                obj = json.loads(text)
            except json.JSONDecodeError as exc:
                raise SpecError(f"not valid JSON ({exc})") from None
        else:
            raise SpecError(f"unrecognized density spec {text!r}")
    else:
        obj = text

    if not isinstance(obj, dict) or "kind" not in obj:
        raise SpecError("density spec must be an object with a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "gaussian":
            return GaussianSpec(*_numbers(obj, "mean", "stddev"))
        if kind == "mixture":
            return SkewMixtureTarget(tuple(
                SkewComponent(*_numbers(c, "weight", "location", "scale", "shape"))
                for c in obj["components"]))
        if kind == "grid":
            if not isinstance(values := obj["log_values"], list):
                raise SpecError(f"log_values must be a list, got {json.dumps(values)}")
            log_values = np.array([_number(v, "log_values entry") for v in values])
            if "n" in obj and _number(obj["n"], "n") != log_values.size:
                raise SpecError(f"n = {obj['n']!r} does not match the "
                                f"{log_values.size} log_values")
            return GridDensity(*_numbers(obj, "lo", "hi"), log_values)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"bad {kind!r} density spec: {exc}") from exc
    raise SpecError(f"unknown density kind {kind!r}")


def _number(value, name: str) -> float:
    """A JSON number (an int or a float, never a bool) as a float; anything
    else is a SpecError naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{name} must be a JSON number, got {json.dumps(value)}")
    return float(value)


def _numbers(obj: dict, *keys: str) -> list[float]:
    return [_number(obj[key], key) for key in keys]


def tabulate(specs, n: int = DEFAULT_GRID_POINTS,
             span: float = DEFAULT_GRID_SPAN) -> list[GridDensity]:
    """The specs on one shared grid, one GridDensity per spec: the first
    grid density's own grid, else n points over the union of the specs'
    ``grid_range(span)``, which must be a finite interval (a spec far out
    or narrow enough collapses it in floating point).  Every grid density
    must already be on it, and the spacing may not exceed any ``min_scale()``."""
    grids = [(spec.lo, spec.hi, spec.n) for spec in specs if isinstance(spec, GridDensity)]
    others = [spec for spec in specs if not isinstance(spec, GridDensity)]
    ranges = [spec.grid_range(span) for spec in others]
    lo, hi, n = grids[0] if grids else (min(r[0] for r in ranges), max(r[1] for r in ranges), n)
    if any(grid != (lo, hi, n) for grid in grids):
        raise SpecError("grid-kind densities carry their own grid; "
                        "pair them only with densities that can be retabulated")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise SpecError(f"the densities' shared grid range [{lo!r}, {hi!r}] is not a "
                        f"finite interval with hi > lo")
    spacing = (hi - lo) / (n - 1)
    finest = min((spec.min_scale() for spec in others), default=math.inf)
    if spacing > finest:
        raise SpecError(f"the shared grid's spacing {spacing:.6g} exceeds the smallest "
                        f"density scale {finest:.6g}, which it cannot resolve")
    return [spec if isinstance(spec, GridDensity)
            else GridDensity.from_callable(spec.log_pdf, lo, hi, n) for spec in specs]
