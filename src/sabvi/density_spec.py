"""Density specification format shared by the command-line tools.

A density is a JSON object:

    {"kind": "gaussian", "mean": 0.0, "stddev": 1.0}
    {"kind": "mixture", "components": [
        {"weight": 0.5, "location": -1.0, "scale": 0.6, "shape": 5.0}, ...]}
    {"kind": "grid", "lo": -5.0, "hi": 5.0, "n": 101, "log_values": [...]}

On the command line a spec can also be the shorthand ``gaussian:MU,SIGMA``,
the word ``mixture:default`` for the stock two-component skew target, a
path prefixed with ``@``, or an inline JSON object.

A spec parses to a `SkewMixtureTarget`, a `GaussianSpec` (both have
``grid_range(span)`` and ``log_pdf(x)``, so they go on any grid) or a
`GridDensity`, validated here once, which carries its own grid.
"""

from __future__ import annotations

import json

import numpy as np

from .density_fit import SkewComponent, SkewMixtureTarget
from .divergence import DEFAULT_GRID_POINTS, DEFAULT_GRID_SPAN, GridDensity, gaussian_log_pdf


class SpecError(ValueError):
    pass


class GaussianSpec:
    def __init__(self, mean: float, stddev: float):
        if stddev <= 0:
            raise SpecError("gaussian stddev must be positive")
        self.mean = float(mean)
        self.stddev = float(stddev)

    def grid_range(self, span: float) -> tuple[float, float]:
        return self.mean - span * self.stddev, self.mean + span * self.stddev

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
            with open(text[1:]) as fh:
                obj = json.load(fh)
        elif text.startswith("{"):
            obj = json.loads(text)
        else:
            raise SpecError(f"unrecognized density spec {text!r}")
    else:
        obj = text

    if not isinstance(obj, dict) or "kind" not in obj:
        raise SpecError("density spec must be an object with a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "gaussian":
            return GaussianSpec(obj["mean"], obj["stddev"])
        if kind == "mixture":
            return SkewMixtureTarget(tuple(
                SkewComponent(c["weight"], c["location"], c["scale"], c["shape"])
                for c in obj["components"]))
        if kind == "grid":
            return GridDensity(float(obj["lo"]), float(obj["hi"]),
                               np.asarray(obj["log_values"], dtype=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"bad {kind!r} density spec: {exc}") from exc
    raise SpecError(f"unknown density kind {kind!r}")


def shared_grid(specs, n: int = DEFAULT_GRID_POINTS,
                span: float = DEFAULT_GRID_SPAN) -> tuple[float, float, int]:
    """(lo, hi, n) of one grid for all the specs: the first grid density's
    own grid, else n points over the union of the specs' ranges."""
    for spec in specs:
        if isinstance(spec, GridDensity):
            return spec.lo, spec.hi, spec.n
    ranges = [spec.grid_range(span) for spec in specs]
    return min(lo for lo, _ in ranges), max(hi for _, hi in ranges), n


def tabulate(spec, lo: float, hi: float, n: int) -> GridDensity:
    """The spec on the grid of n points over [lo, hi]; a grid density must
    already be on it."""
    if not isinstance(spec, GridDensity):
        return GridDensity.from_callable(spec.log_pdf, lo, hi, n)
    if (lo, hi, n) != (spec.lo, spec.hi, spec.n):
        raise SpecError("grid-kind densities carry their own grid; "
                        "pair them only with densities that can be retabulated")
    return spec


def tabulate_pair(spec_p, spec_q, n: int = DEFAULT_GRID_POINTS,
                  span: float = DEFAULT_GRID_SPAN) -> tuple[GridDensity, GridDensity]:
    """Put two density specs on one shared grid (two grid specs must agree)."""
    grid = shared_grid((spec_p, spec_q), n, span)
    return tabulate(spec_p, *grid), tabulate(spec_q, *grid)
