import json

import numpy as np
import pytest

from sabvi.density_fit import SkewMixtureTarget
from sabvi.density_spec import (
    GaussianSpec,
    SpecError,
    parse_density_spec,
    shared_grid,
    tabulate,
    tabulate_pair,
)
from sabvi.divergence import GridDensity, gaussian_log_pdf

MIXTURE = {"kind": "mixture", "components": [
    {"weight": 0.4, "location": -1.0, "scale": 0.5, "shape": 2.0},
    {"weight": 0.6, "location": 1.0, "scale": 1.5, "shape": 0.0}]}


def grid_spec(n, lo=-3.0, hi=3.0):
    x = np.linspace(lo, hi, n)
    return {"kind": "grid", "lo": lo, "hi": hi, "n": n,
            "log_values": gaussian_log_pdf(x, 0.0, 1.0).tolist()}


class TestParse:
    def test_default_mixture_is_the_stock_target(self):
        assert parse_density_spec("mixture:default") == SkewMixtureTarget.default()

    def test_mixture_json_is_a_target(self):
        spec = parse_density_spec(json.dumps(MIXTURE))
        assert isinstance(spec, SkewMixtureTarget)
        assert [c.weight for c in spec.components] == [0.4, 0.6]

    def test_grid_json_is_a_grid_density(self):
        spec = parse_density_spec(grid_spec(11))
        assert isinstance(spec, GridDensity)
        assert (spec.lo, spec.hi, spec.n) == (-3.0, 3.0, 11)

    def test_gaussian_shorthand(self):
        spec = parse_density_spec("gaussian:0.5,2")
        assert isinstance(spec, GaussianSpec)
        assert spec.grid_range(10.0) == (-19.5, 20.5)

    @pytest.mark.parametrize("text", [
        "gaussian:0,-1",
        json.dumps({"kind": "mixture", "components": [{"weight": 1.0}]}),
        json.dumps({**grid_spec(11), "log_values": [0.0]}),
        json.dumps({"kind": "grid", "lo": 1.0, "hi": 1.0, "log_values": [0.0, 0.0]}),
    ], ids=["stddev", "component", "one_node", "empty_range"])
    def test_bad_input_is_spec_error(self, text):
        with pytest.raises(SpecError):
            parse_density_spec(text)

    @pytest.mark.parametrize("text,field", [
        ("gaussian:0,nan", "stddev"),
        ("gaussian:nan,1", "mean"),
        ("gaussian:0,inf", "stddev"),
        (json.dumps({"kind": "gaussian", "mean": float("-inf"), "stddev": 1.0}), "mean"),
        (json.dumps({"kind": "mixture", "components": [
            {"weight": 1.0, "location": float("nan"), "scale": 1.0, "shape": 0.0}]}),
         "location"),
        (json.dumps({"kind": "mixture", "components": [
            {"weight": 1.0, "location": 0.0, "scale": float("nan"), "shape": 0.0}]}), "scale"),
        (json.dumps({"kind": "mixture", "components": [
            {"weight": 1.0, "location": 0.0, "scale": 1.0, "shape": float("inf")}]}), "shape"),
    ])
    def test_non_finite_number_is_spec_error_naming_the_field(self, text, field):
        with pytest.raises(SpecError, match=f"{field} must be finite"):
            parse_density_spec(text)

    def test_grid_n_is_optional_but_must_match_the_values(self):
        spec = grid_spec(11)
        without_n = {k: v for k, v in spec.items() if k != "n"}
        assert parse_density_spec(without_n).n == 11
        with pytest.raises(SpecError, match="n = 12 does not match the 11 log_values"):
            parse_density_spec({**spec, "n": 12})


class TestTabulate:
    def test_mixture_and_gaussian_tabulate_their_log_pdf(self):
        for spec in (SkewMixtureTarget.default(), GaussianSpec(0.3, 1.1)):
            d = tabulate(spec, -2.0, 2.0, 9)
            np.testing.assert_array_equal(d.log_values, spec.log_pdf(np.linspace(-2, 2, 9)))

    def test_grid_density_is_kept_on_its_own_grid(self):
        spec = parse_density_spec(grid_spec(21))
        assert tabulate(spec, -3.0, 3.0, 21) is spec
        with pytest.raises(SpecError, match="carry their own grid"):
            tabulate(spec, -3.0, 3.0, 41)

    def test_shared_grid_covers_both_ranges_or_is_pinned(self):
        p, q = GaussianSpec(0.0, 1.0), GaussianSpec(2.0, 0.5)
        assert shared_grid((p, q), n=7, span=4.0) == (-4.0, 4.0, 7)
        g = parse_density_spec(grid_spec(21))
        assert shared_grid((p, g), n=7) == (-3.0, 3.0, 21)

    def test_grid_pair_on_different_grids_is_spec_error(self):
        p = parse_density_spec(grid_spec(21))
        with pytest.raises(SpecError, match="carry their own grid"):
            tabulate_pair(p, parse_density_spec(grid_spec(11)))
        with pytest.raises(SpecError, match="carry their own grid"):
            tabulate_pair(p, parse_density_spec(grid_spec(21, hi=4.0)))
        a, b = tabulate_pair(p, GaussianSpec(0.0, 1.0))
        assert a is p and b.same_grid(p)
