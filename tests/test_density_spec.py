import json

import numpy as np
import pytest

from sabvi.density_fit import SkewMixtureTarget
from sabvi.density_spec import (
    GaussianSpec,
    SpecError,
    parse_density_spec,
    tabulate,
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
        json.dumps({"kind": "gaussian", "mean": 10**400, "stddev": 1}),
    ], ids=["stddev", "component", "one_node", "empty_range", "huge_int"])
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

    @pytest.mark.parametrize("spec,field", [
        ({"kind": "gaussian", "mean": True, "stddev": 1}, "mean"),
        ({"kind": "gaussian", "mean": "1", "stddev": 1}, "mean"),
        ({"kind": "gaussian", "mean": 0, "stddev": None}, "stddev"),
        ({"kind": "grid", "lo": -1.0, "hi": 1.0, "log_values": ["0", "0", "0"]},
         "log_values entry"),
        ({"kind": "grid", "lo": -1.0, "hi": 1.0, "log_values": [0.0, False]},
         "log_values entry"),
        ({"kind": "grid", "lo": "-1", "hi": 1.0, "log_values": [0.0, 0.0]}, "lo"),
        ({"kind": "grid", "lo": -1.0, "hi": 1.0, "n": True, "log_values": [0.0]}, "n"),
        ({"kind": "mixture", "components": [
            {"weight": True, "location": 0.0, "scale": 1.0, "shape": 0.0}]}, "weight"),
        ({"kind": "mixture", "components": [
            {"weight": 1.0, "location": [0.0], "scale": 1.0, "shape": 0.0}]}, "location"),
    ], ids=["bool_mean", "string_mean", "null_stddev", "string_log_values",
            "bool_log_value", "string_lo", "bool_n", "bool_weight", "list_location"])
    def test_a_number_must_be_a_json_number(self, spec, field):
        with pytest.raises(SpecError, match=f"{field} must be a JSON number"):
            parse_density_spec(json.dumps(spec))

    def test_integers_are_numbers(self):
        spec = parse_density_spec('{"kind": "gaussian", "mean": 1, "stddev": 2}')
        assert (spec.mean, spec.stddev) == (1.0, 2.0)

    def test_grid_log_values_must_be_a_list(self):
        with pytest.raises(SpecError, match="log_values must be a list"):
            parse_density_spec({"kind": "grid", "lo": -1.0, "hi": 1.0, "log_values": 0.0})

    def test_malformed_json_is_spec_error(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            parse_density_spec('{"kind": "gaussian",')

    def test_grid_n_is_optional_but_must_match_the_values(self):
        spec = grid_spec(11)
        without_n = {k: v for k, v in spec.items() if k != "n"}
        assert parse_density_spec(without_n).n == 11
        with pytest.raises(SpecError, match="n = 12 does not match the 11 log_values"):
            parse_density_spec({**spec, "n": 12})


class TestTabulate:
    def test_mixture_and_gaussian_tabulate_their_log_pdf(self):
        for spec in (SkewMixtureTarget.default(), GaussianSpec(0.3, 1.1)):
            (d,) = tabulate([spec], n=9, span=2.0)
            assert (d.lo, d.hi, d.n) == (*spec.grid_range(2.0), 9)
            np.testing.assert_array_equal(d.log_values, spec.log_pdf(np.linspace(d.lo, d.hi, 9)))

    def test_grid_density_is_kept_on_its_own_grid(self):
        spec = parse_density_spec(grid_spec(21))
        (d,) = tabulate([spec], n=41)
        assert d is spec

    def test_shared_grid_covers_both_ranges_or_is_pinned(self):
        p, q = GaussianSpec(0.0, 1.0), GaussianSpec(2.0, 0.5)
        assert [(d.lo, d.hi, d.n) for d in tabulate((p, q), n=7, span=4.0)] == [(-4.0, 4.0, 7)] * 2
        g = parse_density_spec(grid_spec(21))
        a, b = tabulate((p, g), n=7)
        assert (a.lo, a.hi, a.n) == (-3.0, 3.0, 21) and b is g

    def test_grid_pair_on_different_grids_is_spec_error(self):
        p = parse_density_spec(grid_spec(21))
        with pytest.raises(SpecError, match="carry their own grid"):
            tabulate([p, parse_density_spec(grid_spec(11))])
        with pytest.raises(SpecError, match="carry their own grid"):
            tabulate([p, parse_density_spec(grid_spec(21, hi=4.0))])
        a, b = tabulate([p, GaussianSpec(0.0, 1.0)])
        assert a is p and b.same_grid(p)

    @pytest.mark.parametrize("specs,shown", [
        ([GaussianSpec(1e308, 1.0)], "[1e+308, 1e+308]"),
        ([GaussianSpec(1e20, 1e-10)], "[1e+20, 1e+20]"),
        ([GaussianSpec(0.0, 1.0), GaussianSpec(1e308, 1e307)], "[-10.0, inf]"),
    ], ids=["far-out", "narrow", "infinite"])
    def test_collapsed_or_infinite_shared_range_is_spec_error(self, specs, shown):
        with pytest.raises(SpecError) as excinfo:
            tabulate(specs)
        assert f"shared grid range {shown} is not a finite interval" in str(excinfo.value)
