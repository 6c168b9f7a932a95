"""Analytic score-field oracles: finite-difference checks against
log-densities, closed-form cross-checks, and the divergence quadrature.
"""

import numpy as np
import pytest

from simdistill.diffusion import DiffusionSpec, TimeDistribution, WeightingFn, karras_grid
from simdistill.distances import DistanceFn
from simdistill.nnkit import Tape, Tensor, backward
from simdistill.oracles import (
    DivergenceEstimate,
    GaussianSpec,
    GmmSpec,
    LinearGenerator,
    divergence_value,
    divergence_values,
    gaussian_log_density,
    gaussian_sample,
    gaussian_score,
    gaussian_score_graph,
    gmm_denoiser,
    gmm_denoiser_graph,
    gmm_log_density,
    gmm_sample,
    gmm_score,
    gmm_score_graph,
    linear_gen_cov,
    linear_gen_log_density,
    linear_gen_sample,
    linear_gen_score,
    log_density,
    marginal_score,
    marginal_score_graph,
    ring_gmm,
    sample_clean,
    time_grid_from_distribution,
)
from simdistill.rng import make_rng

SPEC = DiffusionSpec()
TEACHERS = {
    "gaussian": GaussianSpec(np.array([0.5, -0.25]), np.array([[1.2, 0.3], [0.3, 0.8]])),
    "gmm": ring_gmm(),
    "linear": LinearGenerator(np.array([[1.0, 0.4], [-0.2, 0.9]]), np.array([0.1, 0.2])),
}


def fd_score(logp, x, h=1e-5):
    """Central-difference gradient of a log-density at one point."""
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (logp(x + e) - logp(x - e)) / (2 * h)
    return g


class TestGaussian:
    def test_standard_normal_score(self):
        spec = GaussianSpec(np.zeros(2), np.eye(2))
        x = np.array([1.0, -2.0])
        for t in (0.0, 1.0, 3.0):
            np.testing.assert_allclose(
                gaussian_score(spec, x, t), -x / (1 + t * t), rtol=1e-14
            )

    def test_score_is_gradient_of_log_density(self):
        rng = make_rng(4)
        A = rng.standard_normal((3, 3))
        spec = GaussianSpec(rng.standard_normal(3), A @ A.T + 0.5 * np.eye(3))
        for t in (0.0, 0.7, 5.0):
            for _ in range(34):  # ~100 probes across the three times
                x = 3 * rng.standard_normal(3)
                got = gaussian_score(spec, x, t)
                ref = fd_score(lambda p: gaussian_log_density(spec, p, t), x)
                assert np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-4) <= 1e-6

    def test_sample_moments(self):
        spec = GaussianSpec(np.array([1.0, -1.0]), np.array([[2.0, 0.5], [0.5, 1.0]]))
        n = 200_000
        x = gaussian_sample(spec, make_rng(6), n)
        np.testing.assert_allclose(x.mean(axis=0), spec.mean, atol=3 * np.sqrt(2.0 / n))
        np.testing.assert_allclose(np.cov(x.T), spec.cov, atol=0.05)

    def test_graph_matches_numpy(self):
        rng = make_rng(8)
        spec = GaussianSpec(rng.standard_normal(2), np.array([[1.5, 0.2], [0.2, 0.8]]))
        x = rng.standard_normal((5, 2))
        out = gaussian_score_graph(spec, Tensor(x, requires_grad=True), 1.3)
        np.testing.assert_allclose(out.data, gaussian_score(spec, x, 1.3), rtol=1e-13)

    def test_asymmetric_cov_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianSpec(np.zeros(2), np.array([[1.0, 0.3], [0.0, 1.0]]))

    def test_non_pd_cov_rejected(self):
        with pytest.raises(ValueError):
            GaussianSpec(np.zeros(2), -np.eye(2))


class TestGmm:
    def test_single_component_equals_gaussian(self):
        mean = np.array([0.7, -0.3])
        s = 1.3
        gmm = GmmSpec(np.array([1.0]), mean[None, :], s)
        gauss = GaussianSpec(mean, s * s * np.eye(2))
        rng = make_rng(10)
        x = rng.standard_normal((20, 2)) * 2
        for t in (0.0, 0.9, 4.0):
            np.testing.assert_allclose(
                gmm_score(gmm, x, t), gaussian_score(gauss, x, t), rtol=1e-12, atol=1e-12
            )
            np.testing.assert_allclose(
                gmm_log_density(gmm, x, t), gaussian_log_density(gauss, x, t), rtol=1e-12
            )

    def test_symmetric_mixture_score_x_component_zero(self):
        gmm = GmmSpec(
            np.array([0.5, 0.5]), np.array([[2.0, 0.0], [-2.0, 0.0]]), 0.5
        )
        for y in (-1.0, 0.0, 3.0):
            s = gmm_score(gmm, np.array([0.0, y]), 1.0)
            assert s[0] == 0.0

    def test_score_is_gradient_of_log_density(self):
        gmm = ring_gmm()
        rng = make_rng(12)
        for t in (0.1, 1.0, 8.0):
            for _ in range(34):
                x = 5 * rng.standard_normal(2)
                got = gmm_score(gmm, x, t)
                ref = fd_score(lambda p: gmm_log_density(gmm, p, t), x)
                assert np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-4) <= 1e-6

    def test_density_normalizes_in_1d(self):
        gmm = GmmSpec(np.array([0.3, 0.7]), np.array([[-2.0], [1.5]]), np.array([0.4, 0.9]))
        xs = np.linspace(-12, 12, 20_001)[:, None]
        dens = np.exp(gmm_log_density(gmm, xs, 0.5))
        assert np.trapezoid(dens, xs[:, 0]) == pytest.approx(1.0, abs=1e-8)

    def test_denoiser_tweedie_consistency(self):
        gmm = ring_gmm()
        rng = make_rng(14)
        x = 4 * rng.standard_normal((50, 2))
        for t in (0.1, 1.0, 5.0, 40.0):
            lhs = gmm_denoiser(gmm, x, t)
            rhs = x + t * t * gmm_score(gmm, x, t)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)

    def test_denoiser_needs_positive_time(self):
        with pytest.raises(ValueError, match="t > 0"):
            gmm_denoiser(ring_gmm(), np.zeros((1, 2)), 0.0)

    def test_sample_moments(self):
        gmm = GmmSpec(np.array([0.5, 0.5]), np.array([[3.0, 0.0], [-3.0, 0.0]]), 0.5)
        n = 100_000
        x = gmm_sample(gmm, make_rng(16), n)
        # mixture mean 0, covariance diag(9.25, 0.25)
        assert np.abs(x.mean(axis=0)).max() <= 3 * np.sqrt(9.25 / n)
        np.testing.assert_allclose(np.cov(x.T), np.diag([9.25, 0.25]), atol=0.1)

    def test_graph_matches_numpy_scalar_t(self):
        gmm = ring_gmm()
        rng = make_rng(18)
        x = 4 * rng.standard_normal((7, 2))
        xt = Tensor(x, requires_grad=True)
        np.testing.assert_allclose(gmm_score_graph(gmm, xt, 1.1).data, gmm_score(gmm, x, 1.1), rtol=1e-12)
        np.testing.assert_allclose(
            gmm_denoiser_graph(gmm, xt, 1.1).data, gmm_denoiser(gmm, x, 1.1), rtol=1e-12
        )

    def test_graph_per_row_times(self):
        gmm = ring_gmm()
        rng = make_rng(20)
        x = 4 * rng.standard_normal((6, 2))
        t = np.array([0.1, 0.5, 1.0, 2.0, 5.0, 20.0])
        out = gmm_denoiser_graph(gmm, Tensor(x, requires_grad=True), t).data
        rows = np.stack([gmm_denoiser(gmm, x[i], t[i]) for i in range(6)])
        np.testing.assert_allclose(out, rows, rtol=1e-12)

    def test_graph_gradient_matches_fd(self):
        # score and denoiser, at one shared t and at per-row t across the
        # whole schedule range [0.002, 80]
        gmm = GmmSpec(np.array([0.4, 0.6]), np.array([[1.0, 0.0], [-1.0, 1.0]]), 0.7)
        rng = make_rng(22)
        x = rng.standard_normal((6, 2))
        weights = rng.standard_normal((6, 2))
        per_row = np.array([0.002, 0.05, 0.8, 3.0, 20.0, 80.0])
        cases = [
            (gmm_score_graph, gmm_score, 0.8),
            (gmm_denoiser_graph, gmm_denoiser, 0.8),
            (gmm_score_graph, gmm_score, per_row),
            (gmm_denoiser_graph, gmm_denoiser, per_row),
        ]
        h = 1e-6
        for graph_fn, numpy_fn, t in cases:

            def scalarize(xa):
                rows = [numpy_fn(gmm, xa[i], np.broadcast_to(t, len(xa))[i]) for i in range(len(xa))]
                return float((np.stack(rows) * weights).sum())

            xt = Tensor(x, requires_grad=True)
            loss = (graph_fn(gmm, xt, t) * weights).sum()
            (g,) = backward(loss, [xt])
            fd = np.zeros_like(x)
            for i in range(x.size):
                e = np.zeros_like(x)
                e.flat[i] = h
                fd.flat[i] = (scalarize(x + e) - scalarize(x - e)) / (2 * h)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)

    def test_graph_tape_length_independent_of_components(self):
        rng = make_rng(24)
        x = rng.standard_normal((5, 2))
        t = np.array([0.01, 0.1, 1.0, 10.0, 80.0])
        lengths = []
        for k in (2, 32):
            gmm = ring_gmm(n_modes=k)
            for fn in (gmm_score_graph, gmm_denoiser_graph):
                xt = Tensor(x, requires_grad=True)
                lengths.append(len(Tape.trace(fn(gmm, xt, t).sum())))
        assert lengths[:2] == lengths[2:]

    def test_ring_gmm_geometry(self):
        gmm = ring_gmm(n_modes=8, radius=4.0, scale=0.3)
        assert gmm.n_components == 8
        np.testing.assert_allclose(np.linalg.norm(gmm.means, axis=1), 4.0, rtol=1e-12)
        np.testing.assert_allclose(gmm.weights, 0.125, rtol=1e-15)

    def test_weights_must_normalize(self):
        with pytest.raises(ValueError, match="sum"):
            GmmSpec(np.array([0.5, 0.6]), np.zeros((2, 2)), 1.0)
        with pytest.raises(ValueError):
            GmmSpec(np.array([1.5, -0.5]), np.zeros((2, 2)), 1.0)


class TestLinearGenerator:
    def test_identity_matches_standard_normal(self):
        g = LinearGenerator(np.eye(2), np.zeros(2))
        gauss = GaussianSpec(np.zeros(2), np.eye(2))
        x = make_rng(24).standard_normal((10, 2))
        for t in (0.5, 2.0):
            np.testing.assert_allclose(
                linear_gen_score(g, x, t), gaussian_score(gauss, x, t), rtol=1e-12
            )

    def test_pushforward_cov(self):
        A = np.array([[1.0, 0.5], [0.0, 2.0], [1.0, -1.0]])
        b = np.array([1.0, 0.0, -1.0])
        g = LinearGenerator(A, b)
        np.testing.assert_allclose(linear_gen_cov(g, 0.7), A @ A.T + 0.49 * np.eye(3), rtol=1e-14)

    def test_score_is_gradient_of_log_density(self):
        rng = make_rng(26)
        g = LinearGenerator(rng.standard_normal((3, 2)), rng.standard_normal(3))
        for t in (0.3, 1.0, 4.0):
            for _ in range(34):
                x = 2 * rng.standard_normal(3)
                got = linear_gen_score(g, x, t)
                ref = fd_score(lambda p: linear_gen_log_density(g, p, t), x)
                assert np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-4) <= 1e-6

    def test_rank_deficient_needs_positive_time(self):
        # 3-D output from 2-D latent: singular at t=0
        g = LinearGenerator(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.zeros(3))
        with pytest.raises(ValueError, match="singular"):
            linear_gen_score(g, np.ones(3), 0.0)
        linear_gen_score(g, np.ones(3), 0.1)  # diffused covariance is fine

    def test_sample_moments(self):
        A = np.array([[1.0, 0.0], [0.5, 0.5]])
        b = np.array([2.0, -1.0])
        g = LinearGenerator(A, b)
        x = linear_gen_sample(g, make_rng(28), 100_000)
        np.testing.assert_allclose(x.mean(axis=0), b, atol=0.02)
        np.testing.assert_allclose(np.cov(x.T), A @ A.T, atol=0.02)

    def test_flat_roundtrip(self):
        rng = make_rng(30)
        A, b = rng.standard_normal((3, 2)), rng.standard_normal(3)
        g = LinearGenerator(A, b)
        g2 = LinearGenerator.from_flat(g.flat(), 3, 2)
        np.testing.assert_array_equal(g2.A, A)
        np.testing.assert_array_equal(g2.b, b)


class TestDispatchers:
    def test_marginal_score_routes_each_family(self):
        rng = make_rng(32)
        x = rng.standard_normal((4, 2))
        gauss = GaussianSpec(np.zeros(2), np.eye(2))
        gmm = ring_gmm()
        lin = LinearGenerator(np.eye(2), np.ones(2))
        np.testing.assert_array_equal(marginal_score(gauss, x, 1.0), gaussian_score(gauss, x, 1.0))
        np.testing.assert_array_equal(marginal_score(gmm, x, 1.0), gmm_score(gmm, x, 1.0))
        np.testing.assert_array_equal(marginal_score(lin, x, 1.0), linear_gen_score(lin, x, 1.0))
        for fam in (gauss, gmm, lin):
            graph = marginal_score_graph(fam, Tensor(x, requires_grad=True), 1.0)
            np.testing.assert_allclose(graph.data, marginal_score(fam, x, 1.0), rtol=1e-12)

    def test_sample_clean_and_log_density_route(self):
        gmm = ring_gmm()
        x = sample_clean(gmm, make_rng(34), 16)
        assert x.shape == (16, 2)
        assert np.all(np.isfinite(log_density(gmm, x, 0.0)))

    def test_unknown_family_rejected(self):
        with pytest.raises(TypeError):
            marginal_score(object(), np.zeros((1, 2)), 1.0)


class TestTimeGrid:
    def test_log_normal_quantile_midpoints(self):
        dist = TimeDistribution.log_normal(-1.0, 0.5)
        grid = time_grid_from_distribution(dist, SPEC, n=8)
        assert grid.shape == (8,)
        assert np.all(np.diff(grid) > 0)
        # median of the two middle nodes brackets exp(p_mean)
        assert grid[3] < np.exp(-1.0) < grid[4]

    def test_karr_uniform_grid_members(self):
        dist = TimeDistribution.karr_uniform(k_max=800)
        grid = time_grid_from_distribution(dist, SPEC, n=16)
        sigmas = set(karras_grid(SPEC)[:801].tolist())
        assert set(grid.tolist()) <= sigmas
        assert np.all(np.diff(grid) > 0)

    def test_log_normal_grid_equals_scipy_stats_form_to_the_bit(self):
        from scipy import stats

        for p_mean, p_std, n in [(-1.0, 0.5, 8), (-3.5, 2.5, 32), (0.0, 1.0, 1), (-1.2, 1.2, 257)]:
            grid = time_grid_from_distribution(TimeDistribution.log_normal(p_mean, p_std), SPEC, n=n)
            u = (np.arange(n) + 0.5) / n
            assert np.array_equal(grid, np.exp(p_mean + p_std * stats.norm.ppf(u)))

    def test_fixed_grid_passthrough(self):
        dist = TimeDistribution.fixed_grid((2.0, 0.5, 1.0))
        np.testing.assert_array_equal(
            time_grid_from_distribution(dist, SPEC, n=3), [0.5, 1.0, 2.0]
        )


class TestDivergenceValue:
    def test_same_distribution_is_exactly_zero(self):
        gmm = ring_gmm()
        grid = np.array([0.5, 1.0, 2.0])
        est = divergence_value(gmm, gmm, DistanceFn.l2(), WeightingFn.one(), grid, 200, make_rng(36))
        assert est.value == 0.0
        assert est.se == 0.0

    def test_mean_shift_closed_form(self):
        # N(0,I) vs N(b,I): score difference is the constant b/(1+t²),
        # so the l2 integrand is ‖b‖²/(1+t²)² with zero variance.
        p = GaussianSpec(np.zeros(2), np.eye(2))
        q = GaussianSpec(np.array([1.0, 0.0]), np.eye(2))
        est = divergence_value(
            p, q, DistanceFn.l2(), WeightingFn.one(), np.array([1.0]), 500, make_rng(38)
        )
        assert est.value == pytest.approx(0.25, abs=1e-12)
        assert est.se <= 1e-12

    def test_variance_mismatch_matches_analytic_mean(self):
        # 1-D N(0,1) vs N(0,4): score difference is -x·c_t with
        # c_t = 1/(1+t²) − 1/(4+t²); under p_t, E[x²] = 1+t², so the l2
        # integrand has mean c_t²(1+t²) and variance 2c_t⁴(1+t²)².
        p = GaussianSpec(np.zeros(1), np.eye(1))
        q = GaussianSpec(np.zeros(1), 4 * np.eye(1))
        grid = np.array([0.5, 1.0, 2.0])
        n = 40_000
        est = divergence_value(p, q, DistanceFn.l2(), WeightingFn.one(), grid, n, make_rng(40))
        c = 1 / (1 + grid**2) - 1 / (4 + grid**2)
        mean = float(np.mean(c**2 * (1 + grid**2)))
        se_true = float(np.sqrt(np.sum(2 * c**4 * (1 + grid**2) ** 2) / n) / grid.size)
        assert abs(est.value - mean) <= 3 * se_true
        assert est.se == pytest.approx(se_true, rel=0.05)

    def test_sampling_dist_changes_measure(self):
        # same fields, but sampling from q weights the integrand by q_t:
        # E_q[x²] = 4+t² instead of 1+t².
        p = GaussianSpec(np.zeros(1), np.eye(1))
        q = GaussianSpec(np.zeros(1), 4 * np.eye(1))
        grid = np.array([1.0])
        n = 40_000
        est = divergence_value(
            p, q, DistanceFn.l2(), WeightingFn.one(), grid, n, make_rng(42), sampling_dist=q
        )
        c = 1 / 2 - 1 / 5
        mean = c**2 * 5.0
        se_true = np.sqrt(2 * c**4 * 25.0 / n)
        assert abs(est.value - mean) <= 3 * se_true

    def test_edm_weighting_scales_value(self):
        p = GaussianSpec(np.zeros(2), np.eye(2))
        q = GaussianSpec(np.array([1.0, 0.0]), np.eye(2))
        grid = np.array([2.0])
        est = divergence_value(p, q, DistanceFn.l2(), WeightingFn.edm(), grid, 100, make_rng(44))
        # constant integrand 1/25 scaled by λ(2)=4.25
        assert est.value == pytest.approx(4.25 / 25.0, rel=1e-12)

    def test_crn_repeatability(self):
        gmm = ring_gmm()
        p = GaussianSpec(np.zeros(2), np.eye(2))
        grid = np.array([0.5, 1.0])
        a = divergence_value(p, gmm, DistanceFn.l2(), WeightingFn.one(), grid, 64, make_rng(46))
        b = divergence_value(p, gmm, DistanceFn.l2(), WeightingFn.one(), grid, 64, make_rng(46))
        assert a.value == b.value and a.se == b.se

    def test_nonnegative_for_l2(self):
        gmm = ring_gmm()
        p = GaussianSpec(np.zeros(2), 4 * np.eye(2))
        grid = time_grid_from_distribution(TimeDistribution.log_normal(-1.0, 1.0), SPEC, 8)
        est = divergence_value(p, gmm, DistanceFn.l2(), WeightingFn.one(), grid, 256, make_rng(48))
        assert est.value > 0
        assert isinstance(est, DivergenceEstimate)

    def test_rejects_bad_inputs(self):
        p = GaussianSpec(np.zeros(1), np.eye(1))
        with pytest.raises(ValueError, match="grid"):
            divergence_value(p, p, DistanceFn.l2(), WeightingFn.one(), [], 10, make_rng(0))
        with pytest.raises(ValueError, match="n_mc"):
            divergence_value(p, p, DistanceFn.l2(), WeightingFn.one(), [1.0], 0, make_rng(0))
        with pytest.raises(ValueError, match="sid"):
            divergence_value(p, p, DistanceFn.l2(), WeightingFn.sid(C=1.0), [1.0], 10, make_rng(0))


class TestDivergenceValues:
    @pytest.mark.parametrize("n_mc", [1, 64])
    @pytest.mark.parametrize("grid", [[0.7], [0.3, 1.0, 2.5]])
    @pytest.mark.parametrize("weighting", ["one", "edm"])
    @pytest.mark.parametrize("distance", ["l2", "pseudo_huber"])
    @pytest.mark.parametrize("teacher", sorted(TEACHERS))
    def test_each_estimate_equals_its_own_call_to_the_bit(self, teacher, distance, weighting, grid, n_mc):
        q = TEACHERS[teacher]
        d = DistanceFn.l2() if distance == "l2" else DistanceFn.pseudo_huber(0.5)
        w = WeightingFn.one() if weighting == "one" else WeightingFn.edm()
        sampler = LinearGenerator(np.array([[1.1, 0.0], [0.2, 0.9]]), np.array([0.3, -0.1]))
        theta = sampler.flat()
        ps = [LinearGenerator.from_flat(theta + 1e-4 * e, 2, 2) for e in np.eye(theta.size)]
        ps += [GaussianSpec(np.zeros(2), 2.0 * np.eye(2)), sampler]
        together = divergence_values(ps, q, d, w, grid, n_mc, make_rng(50), sampler)
        assert len(together) == len(ps)
        for p, est in zip(ps, together):
            alone = divergence_value(p, q, d, w, grid, n_mc, make_rng(50), sampling_dist=sampler)
            assert np.array_equal(est.value, alone.value) and np.array_equal(est.se, alone.se)
            assert (est.n_mc, est.n_grid) == (alone.n_mc, alone.n_grid) == (n_mc, len(grid))
