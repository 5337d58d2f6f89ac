import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sabvi.density_fit import SkewMixtureTarget
from sabvi.divergence import (
    DivergenceParams,
    DomainError,
    EvaluationError,
    GridDensity,
    Region,
    classify_region,
    eval_gamma,
    eval_kl,
    eval_renyi,
    eval_sab,
    gaussian_kl,
    gaussian_log_pdf,
    gaussian_oracle,
    gaussian_pair,
    gaussian_power_log_integral,
    lse_rows,
)

from conftest import sample_gaussian_pair


class TestParamsAndRegions:
    def test_lambda_is_recomputed(self):
        p = DivergenceParams(1.25, -0.5)
        assert p.lam == 1.25 + -0.5
        assert DivergenceParams.from_lambda(1.8, 0.8).alpha == pytest.approx(1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            DivergenceParams(math.inf, 0.0)
        with pytest.raises(DomainError):
            DivergenceParams(0.0, math.nan)

    @pytest.mark.parametrize("alpha,beta,region", [
        (1.0, 0.3, Region.GENERIC),
        (2.0, -2.0, Region.SUM_ZERO),
        (0.0, 0.0, Region.BOTH_ZERO),
        (0.0, 1.5, Region.ALPHA_ZERO),
        (-0.7, 0.0, Region.BETA_ZERO),
        (1e-12, 1.0, Region.GENERIC),  # exact-zero classification, no snapping
    ])
    def test_classify(self, alpha, beta, region):
        assert classify_region(DivergenceParams(alpha, beta)) is region


class TestGridDensity:
    def test_basic_validation(self):
        with pytest.raises(ValueError):
            GridDensity(1.0, 0.0, np.zeros(5))
        with pytest.raises(ValueError):
            GridDensity(0.0, 1.0, np.array([0.0]))
        with pytest.raises(ValueError):
            GridDensity(0.0, 1.0, np.array([0.0, np.nan]))

    def test_floor_applied(self):
        d = GridDensity(0.0, 1.0, np.array([0.0, -1e6, -np.inf]))
        assert d.log_values.min() == -700.0
        assert d.floored.tolist() == [False, True, True]

    def test_grid_geometry(self):
        d = GridDensity.gaussian(0.0, 1.0, -5.0, 5.0, 11)
        assert d.spacing == pytest.approx(1.0)
        np.testing.assert_allclose(d.x, np.arange(-5.0, 6.0))


class TestQuadratureWeights:
    def test_trapezoid_weights(self):
        d = GridDensity.gaussian(0.0, 1.0, -10.0, 10.0, 4001)
        w = d.weights
        assert w[0] == w[-1] == 0.5 * d.spacing
        assert np.all(w[1:-1] == d.spacing)
        assert abs(w.sum() - (d.hi - d.lo)) < 1e-12

    def test_reference_weights_are_the_trapezoid_weights_normalized_bit_for_bit(self):
        d = GridDensity.gaussian(0.3, 0.7, -6.5, 7.25, 1301)
        w = d.weights
        np.testing.assert_array_equal(d.reference_weights, w / w.sum())
        assert abs(d.reference_weights.sum() - 1.0) < 1e-12

    def test_each_access_returns_a_fresh_array(self):
        d = GridDensity.gaussian(0.0, 1.0, -5.0, 5.0, 11)
        d.reference_weights[:] = 0.0
        d.weights[:] = 0.0
        assert d.weights[1] == d.spacing and d.reference_weights[1] == 0.1

    @pytest.mark.parametrize("params", [DivergenceParams(1.4, 0.7), DivergenceParams(0.0, 0.8),
                                        DivergenceParams(0.8, 0.0), DivergenceParams(0.8, -0.8),
                                        DivergenceParams(0.0, 0.0)],
                             ids=["generic", "alpha_zero", "beta_zero", "sum_zero", "origin"])
    def test_eval_sab_defaults_to_the_reference_weights_bit_for_bit(self, params):
        p, q = gaussian_pair(-0.2, 0.9, 0.4, 1.3, n=801)
        assert eval_sab(params, p, q, weights=p.reference_weights) == eval_sab(params, p, q)


class TestClosedFormAgreement:
    """eval_sab against the Gaussian oracle at the named special points."""

    def setup_method(self):
        self.p, self.q = gaussian_pair(0.0, 1.0, 1.0, 1.0)

    def test_kl_point(self):
        v = eval_sab(DivergenceParams(1.0, 0.0), self.p, self.q)
        assert v == pytest.approx(0.5, rel=1e-4)
        assert v == pytest.approx(gaussian_oracle("kl", 0, 1, 1, 1), rel=1e-4)

    def test_reverse_kl_point(self):
        v = eval_sab(DivergenceParams(0.0, 1.0), self.p, self.q)
        assert v == pytest.approx(gaussian_oracle("kl", 1, 1, 0, 1), rel=1e-4)

    def test_hellinger_point(self):
        v = eval_sab(DivergenceParams(0.5, 0.5), self.p, self.q)
        assert v == pytest.approx(0.5, rel=1e-4)

    def test_chisq_point(self):
        v = eval_sab(DivergenceParams(2.0, -1.0), self.p, self.q)
        assert v == pytest.approx(0.5, rel=1e-4)

    def test_identity_all_regions(self):
        for params in [DivergenceParams(1.3, -0.4), DivergenceParams(2.0, -2.0),
                       DivergenceParams(0.0, 0.7), DivergenceParams(-0.6, 0.0),
                       DivergenceParams(0.0, 0.0)]:
            assert abs(eval_sab(params, self.p, self.p)) < 1e-10

    def test_asymmetric_pair_against_oracle(self):
        p, q = gaussian_pair(-0.3, 0.8, 0.9, 1.3)
        assert eval_sab(DivergenceParams(1.0, 0.0), p, q) == pytest.approx(
            gaussian_oracle("kl", -0.3, 0.8, 0.9, 1.3), rel=1e-4)
        # (0.5, 0.5): -4 log of the affinity; (2, -1): half the log of the p^2/q integral
        assert eval_sab(DivergenceParams(0.5, 0.5), p, q) == pytest.approx(
            -4.0 * gaussian_power_log_integral(0.5, -0.3, 0.8, 0.9, 1.3), rel=1e-4)
        assert eval_sab(DivergenceParams(2.0, -1.0), p, q) == pytest.approx(
            0.5 * gaussian_power_log_integral(2.0, -0.3, 0.8, 0.9, 1.3), rel=1e-4)


class TestNamedDivergences:
    def setup_method(self):
        self.p, self.q = gaussian_pair(0.0, 1.0, 1.0, 1.0)

    def test_kl_self_is_zero(self):
        assert eval_kl(self.p, self.p) == pytest.approx(0.0, abs=1e-12)

    def test_renyi_two(self):
        assert eval_renyi(2.0, self.p, self.q) == pytest.approx(1.0, rel=1e-4)
        assert eval_renyi(2.0, self.p, self.q) == pytest.approx(
            gaussian_oracle("renyi", 0, 1, 1, 1, order=2.0), rel=1e-4)

    def test_renyi_excluded_orders(self):
        for bad in (0.0, 1.0):
            with pytest.raises(DomainError):
                eval_renyi(bad, self.p, self.q)

    def test_gamma_matches_family_line(self):
        assert eval_gamma(1.0, self.p, self.q) == pytest.approx(
            eval_sab(DivergenceParams(1.0, 1.0), self.p, self.q), abs=1e-8)

    def test_gamma_excluded_orders(self):
        for bad in (0.0, -1.0):
            with pytest.raises(DomainError):
                eval_gamma(bad, self.p, self.q)


class TestGaussianOracle:
    def test_kl_values(self):
        assert gaussian_oracle("kl", 0, 1, 1, 1) == pytest.approx(0.5)
        assert gaussian_oracle("kl", 0, 1, 0, 1) == 0.0
        # generic closed form
        assert gaussian_kl(0.3, 0.7, -0.2, 1.4) == pytest.approx(
            math.log(1.4 / 0.7) + (0.49 + 0.25) / (2 * 1.96) - 0.5)

    def test_power_integral_bhattacharyya(self):
        assert math.exp(gaussian_power_log_integral(0.5, 0, 1, 1, 1)) == pytest.approx(
            math.exp(-1.0 / 8.0))

    def test_power_integral_against_quadrature(self):
        p, q = gaussian_pair(-0.4, 0.9, 0.6, 1.2)
        w = p.weights
        for a in (0.3, 0.5, 1.7, 2.0, -0.5):
            numeric = float(w @ np.exp(a * p.log_values + (1 - a) * q.log_values))
            assert gaussian_power_log_integral(a, -0.4, 0.9, 0.6, 1.2) == pytest.approx(
                math.log(numeric), abs=1e-8)

    def test_invalid_precision_combination(self):
        # order 2 with the first density much wider: 2 s2^2 - s1^2 <= 0
        with pytest.raises(DomainError):
            gaussian_power_log_integral(2.0, 0.0, 2.0, 0.0, 1.0)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            gaussian_oracle("nope", 0, 1, 1, 1)

    @pytest.mark.parametrize("order", [None, 0.0, 1.0])
    def test_renyi_needs_an_order_outside_zero_and_one(self, order):
        with pytest.raises(DomainError, match="order outside"):
            gaussian_oracle("renyi", 0, 1, 1, 1, order=order)


@st.composite
def _plane_points(draw):
    """(alpha, beta) in each region of the plane, with exact zeros and a + b = 0."""
    order = st.one_of(st.floats(0.2, 2.5), st.floats(-2.5, -0.2))
    region = draw(st.sampled_from(Region))
    if region is Region.BOTH_ZERO:
        return DivergenceParams(0.0, 0.0)
    if region is Region.ALPHA_ZERO:
        return DivergenceParams(0.0, draw(order))
    if region is Region.BETA_ZERO:
        return DivergenceParams(draw(order), 0.0)
    a = draw(order)
    if region is Region.SUM_ZERO:
        return DivergenceParams(a, -a)
    # a generic point close to a + b = 0 divides rounding error by a + b
    return DivergenceParams(a, draw(order.filter(lambda b: abs(a + b) >= 0.2)))


class TestStructuralProperties:
    def test_nonnegativity(self):
        rng = np.random.default_rng(101)
        draws = rng.uniform([-2.0, -2.0], [3.0, 3.0], size=(50, 2))
        params = [DivergenceParams(a, b) for a, b in draws]
        worst = np.inf
        for _ in range(200):
            _, p, q = sample_gaussian_pair(rng, n=2001)
            worst = min(worst, min(eval_sab(pr, p, q) for pr in params))
        assert worst >= -1e-9

    def test_scale_invariance_generic_and_sum_zero(self, rng):
        for _ in range(10):
            _, p, q = sample_gaussian_pair(rng)
            for params in (DivergenceParams(1.4, 0.7), DivergenceParams(1.5, -1.5)):
                base = eval_sab(params, p, q)
                for c in (0.1, 10.0):
                    lc = math.log(c)
                    assert abs(eval_sab(params, p.with_log_offset(lc), q) - base) < 1e-8
                    assert abs(eval_sab(params, p, q.with_log_offset(lc)) - base) < 1e-8

    @settings(max_examples=200, deadline=None)
    @given(params=_plane_points(), seed=st.integers(0, 2**32 - 1),
           log_c_p=st.floats(-30.0, 30.0), log_c_q=st.floats(-30.0, 30.0))
    def test_log_offsets_leave_every_region_unchanged(self, params, seed, log_c_p, log_c_q):
        _, p, q = sample_gaussian_pair(np.random.default_rng(seed), n=801)
        base = eval_sab(params, p, q)
        shifted = eval_sab(params, p.with_log_offset(log_c_p), q.with_log_offset(log_c_q))
        assert abs(shifted - base) <= 1e-11 * max(1.0, abs(base))

    def test_measure_rescaling_invariance_generic(self, rng):
        for _ in range(10):
            _, p, q = sample_gaussian_pair(rng)
            params = DivergenceParams(1.4, 0.7)
            base = eval_sab(params, p, q)
            for c in (0.1, 10.0):
                assert abs(eval_sab(params, p, q, weights=c * p.reference_weights)
                           - base) < 1e-10

    def test_dual_symmetry(self, rng):
        for _ in range(10):
            _, p, q = sample_gaussian_pair(rng)
            a, b = rng.uniform(0.2, 2.5, 2)
            forward = eval_sab(DivergenceParams(a, b), p, q)
            swapped = eval_sab(DivergenceParams(b, a), q, p)
            assert abs(forward - swapped) < 1e-10

    @settings(max_examples=200, deadline=None)
    @given(params=_plane_points(), seed=st.integers(0, 2**32 - 1))
    def test_exchanging_the_densities_and_the_orders_in_every_region(self, params, seed):
        # D[a,b](p, q) = D[b,a](q, p).  The a = 0 line is the b = 0 line
        # mirrored and the origin's moments only change sign, so those
        # agree bit for bit; elsewhere the exponents add in another order.
        _, p, q = sample_gaussian_pair(np.random.default_rng(seed), n=801)
        forward = eval_sab(params, p, q)
        mirrored = eval_sab(DivergenceParams(params.beta, params.alpha), q, p)
        if classify_region(params) in (Region.ALPHA_ZERO, Region.BETA_ZERO,
                                       Region.BOTH_ZERO):
            assert mirrored == forward
        else:
            assert abs(mirrored - forward) <= 1e-10 * max(1.0, abs(forward))

    def test_renyi_line_reduction(self, rng):
        for _ in range(10):
            _, p, q = sample_gaussian_pair(rng)
            for a in (0.3, 1.7, 2.2, -0.5):
                lhs = eval_sab(DivergenceParams(a, 1.0 - a), p, q)
                w = np.log(p.weights)
                expo = a * p.log_values + (1 - a) * q.log_values + w
                m = expo.max()
                rhs = (m + math.log(np.exp(expo - m).sum())) / (a * (a - 1.0))
                assert abs(lhs - rhs) < 1e-8

    def test_gamma_line_reduction(self, rng):
        for _ in range(10):
            _, p, q = sample_gaussian_pair(rng)
            for b in (0.5, 1.0, 1.8, -0.4):
                assert abs(eval_sab(DivergenceParams(1.0, b), p, q)
                           - eval_gamma(b, p, q)) < 1e-8

    def test_kl_corners_for_normalized_inputs(self, rng):
        for _ in range(10):
            _, p, q = sample_gaussian_pair(rng)
            assert abs(eval_sab(DivergenceParams(1.0, 0.0), p, q) - eval_kl(p, q)) < 1e-6
            assert abs(eval_sab(DivergenceParams(0.0, 1.0), p, q) - eval_kl(q, p)) < 1e-6


def _continuity_cases(eps):
    cases = []
    for b in (-1.0, 0.5, 2.0):
        cases.append((f"alpha->0 (beta={b})", DivergenceParams(eps, b), DivergenceParams(0.0, b)))
        cases.append((f"beta->0 (alpha={b})", DivergenceParams(b, eps), DivergenceParams(b, 0.0)))
    for a0 in (-1.3, 0.7, 1.3):
        cases.append((f"sum->0 (alpha={a0})",
                      DivergenceParams(a0, -a0 + eps), DivergenceParams(a0, -a0)))
    cases.append(("origin", DivergenceParams(0.8 * eps, 0.6 * eps), DivergenceParams(0.0, 0.0)))
    return cases


class TestContinuity:
    """The limit formulas are the analytic continuations of the generic one:
    at parameter distance 1e-4 the two agree to 1e-3 relative, and the gap
    shrinks linearly with the distance."""

    def test_limits_match_nearby_generic(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            _, p, q = sample_gaussian_pair(rng, span=4.0, mu_range=1.0,
                                           sigma_lo=0.8, sigma_hi=1.25)
            for name, near, lim in _continuity_cases(1e-4):
                v_near = eval_sab(near, p, q)
                v_lim = eval_sab(lim, p, q)
                assert abs(v_near - v_lim) < 1e-3 * max(1.0, abs(v_lim)), name

    def test_gap_scales_linearly_with_distance(self):
        p, q = gaussian_pair(-0.4, 0.9, 0.5, 1.15, span=4.0)
        for (name, near4, lim), (_, near5, _) in zip(_continuity_cases(1e-4),
                                                     _continuity_cases(1e-5)):
            v_lim = eval_sab(lim, p, q)
            gap4 = abs(eval_sab(near4, p, q) - v_lim)
            gap5 = abs(eval_sab(near5, p, q) - v_lim)
            # first-order behavior: a tenfold smaller distance shrinks the
            # gap by close to tenfold (allow slack for higher orders / fp)
            if gap4 > 1e-9:
                assert gap5 < gap4 / 5.0, name


class TestKernel:
    @staticmethod
    def _reference(row):
        m = row.max()
        z = np.exp(row - m)
        total = z.sum()
        return m + np.log(total), z / total

    def test_grid_row_matches_a_plain_log_sum_exp_bit_for_bit(self):
        p, q = gaussian_pair(-0.3, 0.8, 0.6, 1.4)
        row = np.log(p.reference_weights) + 1.7 * p.log_values - 0.4 * q.log_values
        t, s = lse_rows(row.copy())
        want_t, want_s = self._reference(row)
        assert t == want_t
        np.testing.assert_array_equal(s, want_s)

    def test_mc_stack_matches_a_plain_log_sum_exp_per_row_bit_for_bit(self):
        g = np.random.default_rng(3)
        a, b = g.normal(-40.0, 15.0, 25), g.normal(-3.0, 1.0, 25)
        alpha, beta, lam = 1.3, -0.45, 0.85
        e = np.array([lam * a - b, (lam - 1.0) * b, (alpha - 1.0) * b + beta * a])
        t, s = lse_rows(e.copy())
        assert t.shape == (3,) and s.shape == (3, 25)
        for i in range(3):
            want_t, want_s = self._reference(e[i])
            assert t[i] == want_t
            np.testing.assert_array_equal(s[i], want_s)

    def test_dead_nodes_weigh_exactly_zero_and_leave_the_log_sum_exp_bit_for_bit(self):
        # the cross-term row q^2.8 p^-1 of a narrow q on the stock 4001-point
        # grid spans thousands of nats: plain exp underflows to 0 on most
        # nodes and is subnormal on a few
        p = SkewMixtureTarget.default().tabulate()
        q = GridDensity.gaussian(-0.5, 0.05, p.lo, p.hi, p.n)
        row = np.log(p.reference_weights) + 2.8 * q.log_values - p.log_values
        plain = np.exp(row - row.max())
        normal = plain >= np.finfo(float).tiny
        assert (plain == 0.0).any() and ((plain > 0.0) & ~normal).any()
        t, s = lse_rows(row.copy())
        want_t, want_s = self._reference(row)
        assert t == want_t
        np.testing.assert_array_equal(s[normal], want_s[normal])
        assert np.all(s[~normal] == 0.0)


class TestFlooredTailGuard:
    @pytest.mark.parametrize("params", [DivergenceParams(1.4, 0.7), DivergenceParams(0.0, 0.8),
                                        DivergenceParams(0.8, 0.0), DivergenceParams(0.8, -0.8)],
                             ids=["generic", "alpha_zero", "beta_zero", "sum_zero"])
    def test_measure_without_mass_raises(self, params):
        p, q = gaussian_pair(0.0, 1.0, 0.5, 1.2, n=101)
        with pytest.raises(EvaluationError, match="no mass to integrate"):
            eval_sab(params, p, q, weights=np.zeros(101))

    def test_negative_exponent_on_clamped_tail_raises(self):
        # narrow vs wide on a shared wide grid: the narrow density clamps,
        # and a negative exponent on it would be floor-driven garbage
        p, q = gaussian_pair(0.0, 0.25, 0.0, 2.0, span=10.0)
        assert p.floored.any()
        with pytest.raises(EvaluationError, match="floor"):
            eval_sab(DivergenceParams(-1.2, 0.4), p, q)

    def test_harmless_floored_tail_is_tolerated(self):
        # positive exponents never explode at the floor
        p, q = gaussian_pair(0.0, 0.25, 0.0, 2.0, span=10.0)
        value = eval_sab(DivergenceParams(1.4, 0.7), p, q)
        assert math.isfinite(value) and value >= 0

    def test_shared_grid_required(self):
        p = GridDensity.gaussian(0.0, 1.0, -5.0, 5.0, 101)
        q = GridDensity.gaussian(0.0, 1.0, -5.0, 5.0, 99)
        with pytest.raises(ValueError):
            eval_sab(DivergenceParams(1.0, 0.5), p, q)


class TestGaussianLogPdf:
    def test_matches_scipy_free_formula(self):
        x = np.linspace(-3, 3, 7)
        got = gaussian_log_pdf(x, 0.5, 2.0)
        want = -0.5 * ((x - 0.5) / 2.0) ** 2 - math.log(2.0) - 0.5 * math.log(2 * math.pi)
        np.testing.assert_allclose(got, want, rtol=1e-15)
