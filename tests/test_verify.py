"""Tests for the statistical verifiers and the finite-difference battery."""

import functools
import json

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from simdistill.distances import DistanceFn
from simdistill.distill import sim_generator_loss
from simdistill.nnkit import tensor as T
from simdistill.oracles import GaussianSpec, GmmSpec, LinearGenerator, gmm_score_graph
from simdistill.rng import make_rng
from simdistill.verify import (
    U_TAGS,
    VerificationReport,
    _identity_verdict,
    check_score_projection,
    check_theorem1,
    default_gradcheck_cases,
    gradcheck_suite,
)

TWO_MODE = GmmSpec(np.array([0.5, 0.5]), np.array([[1.5, 0.0], [-1.5, 0.0]]), 0.6)


class TestVerificationReport:
    def test_to_dict_round_trips_through_json(self):
        rep = VerificationReport(
            name="x", verdict="pass", estimate=[1.0], target=[0.0], se=[0.5],
            n_mc=10, seed=3, tolerance=None, detail="d",
        )
        blob = json.loads(json.dumps(rep.to_dict()))
        assert blob["name"] == "x"
        assert blob["verdict"] == "pass"
        assert blob["seed"] == 3
        assert blob["tolerance"] is None

    def test_passed_tracks_verdict(self):
        base = dict(estimate=[0.0], target=[0.0], se=[1.0], n_mc=1, seed=0)
        assert VerificationReport(name="a", verdict="pass", **base).passed
        assert not VerificationReport(name="a", verdict="fail", **base).passed
        assert not VerificationReport(name="a", verdict="inconclusive", **base).passed

    def test_summary_line_carries_verdict_and_name(self):
        rep = VerificationReport(
            name="proj", verdict="inconclusive", estimate=[0.0], target=[0.0],
            se=[1.0], n_mc=1, seed=0, detail="noise won",
        )
        line = rep.summary_line()
        assert "INCONCLUSIVE" in line and "proj" in line and "noise won" in line


class TestScoreProjection:
    def test_constant_u_on_standard_normal(self):
        p = GaussianSpec(np.zeros(2), np.eye(2))
        rep = check_score_projection(p, u="ones", t=1.0, n_mc=50_000, seed=0)
        assert rep.passed
        assert rep.target == [0.0, 0.0]

    def test_identity_u_on_standard_normal(self):
        p = GaussianSpec(np.zeros(2), np.eye(2))
        rep = check_score_projection(p, u="identity", t=1.0, n_mc=200_000, seed=1)
        assert rep.passed

    def test_net_u_on_linear_pushforward(self):
        p = LinearGenerator(np.diag([2.0, 1.0]), np.array([1.0, 0.0]))
        rep = check_score_projection(p, u="net", t=0.5, n_mc=100_000, seed=2)
        assert rep.passed

    def test_mixture_family_supported(self):
        rep = check_score_projection(TWO_MODE, u="identity", t=0.8, n_mc=50_000, seed=3)
        assert rep.passed

    def test_report_shapes_and_echoes(self):
        p = GaussianSpec(np.zeros(3), np.eye(3))
        rep = check_score_projection(p, u="identity", t=1.0, n_mc=2_000, seed=11)
        assert len(rep.estimate) == len(rep.se) == len(rep.target) == 3
        assert rep.n_mc == 2_000 and rep.seed == 11
        assert rep.name == "score-projection[u=identity, t=1.0]"

    def test_same_seed_reproduces_report_exactly(self):
        p = GaussianSpec(np.zeros(2), np.eye(2))
        a = check_score_projection(p, u="identity", t=1.0, n_mc=5_000, seed=9)
        b = check_score_projection(p, u="identity", t=1.0, n_mc=5_000, seed=9)
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    def test_standard_error_shrinks_like_root_n(self):
        p = GaussianSpec(np.zeros(2), np.eye(2))
        small = check_score_projection(p, u="identity", t=1.0, n_mc=20_000, seed=4)
        big = check_score_projection(p, u="identity", t=1.0, n_mc=80_000, seed=4)
        ratio = np.sqrt(np.mean(np.square(small.se)) / np.mean(np.square(big.se)))
        assert abs(ratio - 2.0) < 0.4

    def test_rejects_tiny_sample_counts(self):
        p = GaussianSpec(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="n_mc"):
            check_score_projection(p, n_mc=999)

    def test_rejects_nonpositive_time(self):
        p = GaussianSpec(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="t > 0"):
            check_score_projection(p, t=0.0, n_mc=2_000)

    def test_unknown_test_function_tag(self):
        p = GaussianSpec(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="identity"):
            check_score_projection(p, u="fourier", n_mc=2_000)
        assert "net" in U_TAGS


class TestGradientIdentity:
    def test_matched_pair_has_null_gradient(self):
        p = LinearGenerator(np.eye(2), np.zeros(2))
        q = GaussianSpec(np.zeros(2), np.eye(2))
        rep = check_theorem1(p, q, DistanceFn.l2(), [1.0], n_mc=1024, seed=5, replicates=4)
        assert rep.passed
        assert np.linalg.norm(rep.target) < 0.05

    def test_mean_shift_gradient_matches_closed_form(self):
        # p = N(b, 2I) at t=1 vs q = N(0, 2I): score gap is the constant b/2,
        # divergence ||b||^2/4, so the b-gradient is b/2 on both sides.
        p = LinearGenerator(np.eye(2), np.array([1.0, 0.0]))
        q = GaussianSpec(np.zeros(2), np.eye(2))
        rep = check_theorem1(p, q, DistanceFn.l2(), [1.0], n_mc=4096, seed=6, replicates=6)
        assert rep.passed
        est, tgt, se = (np.asarray(rep.estimate), np.asarray(rep.target), np.asarray(rep.se))
        for vec in (est, tgt):
            assert abs(vec[4] - 0.5) <= 4 * se[4] + 1e-6
            assert abs(vec[5]) <= 4 * se[5] + 1e-6

    def test_bounded_distance_against_mixture(self):
        p = LinearGenerator(np.diag([1.5, 0.7]), np.array([0.3, -0.2]))
        rep = check_theorem1(
            p, TWO_MODE, DistanceFn.pseudo_huber(0.5), [0.5, 1.0, 2.0],
            n_mc=2048, seed=7, replicates=6,
        )
        assert rep.passed
        assert rep.name == "gradient-identity[d=pseudo_huber]"

    def test_same_seed_reproduces_report_exactly(self):
        p = LinearGenerator(np.eye(2), np.array([0.5, 0.5]))
        q = GaussianSpec(np.zeros(2), np.eye(2))
        kw = dict(n_mc=512, seed=21, replicates=3)
        a = check_theorem1(p, q, DistanceFn.l2(), [1.0], **kw)
        b = check_theorem1(p, q, DistanceFn.l2(), [1.0], **kw)
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    def test_standard_error_shrinks_like_root_n(self):
        p = LinearGenerator(np.diag([1.5, 0.7]), np.array([0.3, -0.2]))
        q = GaussianSpec(np.zeros(2), np.eye(2))
        small = check_theorem1(p, q, DistanceFn.l2(), [1.0], n_mc=1024, seed=8, replicates=8)
        big = check_theorem1(p, q, DistanceFn.l2(), [1.0], n_mc=4096, seed=8, replicates=8)
        ratio = np.sqrt(np.mean(np.square(small.se)) / np.mean(np.square(big.se)))
        assert abs(ratio - 2.0) < 0.4

    def test_fd_step_outside_supported_band(self):
        p = LinearGenerator(np.eye(2), np.zeros(2))
        q = GaussianSpec(np.zeros(2), np.eye(2))
        for bad in (1e-6, 1e-2):
            with pytest.raises(ValueError, match="fd_step"):
                check_theorem1(p, q, DistanceFn.l2(), [1.0], fd_step=bad)

    def test_needs_two_replicates_for_an_se(self):
        p = LinearGenerator(np.eye(2), np.zeros(2))
        q = GaussianSpec(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="replicates"):
            check_theorem1(p, q, DistanceFn.l2(), [1.0], replicates=1)

    def test_wrong_gradient_is_caught(self, monkeypatch):
        # negative control: dropping the gradient through d'(y) leaves only
        # half of the identity's right side, which the t-quantile gate must
        # reject on the acceptance battery's own configuration
        monkeypatch.setattr(
            "simdistill.verify.sim_generator_loss",
            functools.partial(sim_generator_loss, first_factor_grad=False),
        )
        theta_rng = make_rng(31)
        A = np.eye(2) + 0.25 * theta_rng.standard_normal((2, 2))
        b = 0.5 * theta_rng.standard_normal(2)
        rep = check_theorem1(
            LinearGenerator(A, b), GaussianSpec([0.0, 0.0], np.eye(2)),
            DistanceFn.pseudo_huber(0.5), (0.5, 1.0, 2.0),
            n_mc=2048, seed=300, replicates=12,
        )
        assert rep.verdict == "fail"

    def test_verdict_classifier_branches(self):
        gap = np.array([0.1, 0.2])
        assert _identity_verdict(gap, np.array([0.2, 0.3]), signal=1.0, noise=0.0) == "pass"
        # a miss with noise dominating the signal cannot be called either way
        assert _identity_verdict(gap, np.array([0.05, 0.3]), signal=0.1, noise=0.2) == "inconclusive"
        assert _identity_verdict(gap, np.array([0.05, 0.3]), signal=1.0, noise=0.01) == "fail"


def _mixture_score(x, t):
    """Diffused two-mode mixture score, plain numpy."""
    var = TWO_MODE.scales**2 + t * t
    diff = x[:, None, :] - TWO_MODE.means[None, :, :]
    logw = np.log(TWO_MODE.weights) - 0.5 * np.sum(diff**2, axis=2) / var - np.log(var)
    logw -= logw.max(axis=1, keepdims=True)
    r = np.exp(logw)
    r /= r.sum(axis=1, keepdims=True)
    return np.sum(r[:, :, None] * (-diff / var[:, None]), axis=1)


def _push_score(x, t, A, b):
    """Score of the diffused linear push-forward N(b, AA^T + t^2 I)."""
    S = A @ A.T + t * t * np.eye(2)
    return -np.linalg.solve(S, (x - b).T).T


class TestIdentityByQuadrature:
    """The gradient identity evaluated with deterministic Gauss-Hermite
    quadrature: no Monte Carlo, no autodiff, fields hand-rolled. Pins the
    statement itself (including the convention that the distance derivative
    follows the perturbed sample while both score fields stay frozen), and
    then pins the Monte-Carlo verifier against the quadrature values."""

    A0 = np.array([[1.2, 0.25], [-0.15, 0.9]])
    b0 = np.array([0.4, -0.3])
    T_NODE = 1.5

    def _theta(self):
        return np.concatenate([self.A0.ravel(), self.b0])

    def _unflat(self, th):
        return th[:4].reshape(2, 2), th[4:]

    def _divergence(self, th, d_val):
        # 2-D expectation over x_t drawn from the frozen base marginal
        t = self.T_NODE
        u, w = hermegauss(80)
        U = np.stack(np.meshgrid(u, u, indexing="ij"), axis=-1).reshape(-1, 2)
        W = (w[:, None] * w[None, :]).ravel() / (2 * np.pi)
        L = np.linalg.cholesky(self.A0 @ self.A0.T + t * t * np.eye(2))
        x = self.b0 + U @ L.T
        A, b = self._unflat(th)
        y = _push_score(x, t, A, b) - _mixture_score(x, t)
        return float(np.sum(W * d_val(y)))

    def _matching_loss(self, th, d_prime, order=24):
        # 4-D expectation over (z, eps); fields frozen at the base parameters
        t = self.T_NODE
        u, w = hermegauss(order)
        w = w / np.sqrt(2 * np.pi)
        g = np.meshgrid(u, u, u, u, indexing="ij")
        Z = np.stack([g[0].ravel(), g[1].ravel()], axis=-1)
        E = np.stack([g[2].ravel(), g[3].ravel()], axis=-1)
        W = (w[:, None, None, None] * w[None, :, None, None]
             * w[None, None, :, None] * w[None, None, None, :]).ravel()
        A, b = self._unflat(th)
        x0 = Z @ A.T + b
        xt = x0 + t * E
        ps = _push_score(xt, t, self.A0, self.b0)
        y = ps - _mixture_score(xt, t)
        f2 = ps - (x0 - xt) / (t * t)
        return float(np.sum(W * (-np.sum(d_prime(y) * f2, axis=1))))

    def _both_gradients(self, d_val, d_prime, h=1e-5, order=24):
        th0 = self._theta()
        lhs = np.zeros(6)
        rhs = np.zeros(6)
        for i in range(6):
            e = np.zeros(6)
            e[i] = h
            lhs[i] = (self._divergence(th0 + e, d_val) - self._divergence(th0 - e, d_val)) / (2 * h)
            rhs[i] = (
                self._matching_loss(th0 + e, d_prime, order)
                - self._matching_loss(th0 - e, d_prime, order)
            ) / (2 * h)
        return lhs, rhs

    def test_squared_distance(self):
        lhs, rhs = self._both_gradients(
            lambda y: np.sum(y * y, axis=1), lambda y: 2.0 * y,
        )
        assert np.linalg.norm(lhs) > 0.05  # non-degenerate configuration
        np.testing.assert_allclose(lhs, rhs, atol=1e-6)

    def test_bounded_distance(self):
        c = 0.5
        lhs, rhs = self._both_gradients(
            lambda y: np.sqrt(np.sum(y * y, axis=1) + c * c) - c,
            lambda y: y / np.sqrt(np.sum(y * y, axis=1) + c * c)[:, None],
            order=32,
        )
        assert np.linalg.norm(lhs) > 0.01
        np.testing.assert_allclose(lhs, rhs, atol=1e-6)

    def test_monte_carlo_verifier_is_centered_on_quadrature(self):
        lhs, _ = self._both_gradients(lambda y: np.sum(y * y, axis=1), lambda y: 2.0 * y)
        rep = check_theorem1(
            LinearGenerator(self.A0, self.b0), TWO_MODE, DistanceFn.l2(),
            [self.T_NODE], n_mc=8192, seed=12, replicates=8,
        )
        assert rep.passed
        est, tgt, se = (np.asarray(rep.estimate), np.asarray(rep.target), np.asarray(rep.se))
        # each side sits within 5 combined SEs of the deterministic value
        assert np.all(np.abs(est - lhs) <= 5 * se + 1e-6)
        assert np.all(np.abs(tgt - lhs) <= 5 * se + 1e-6)


class TestGradcheckSuite:
    def test_every_default_case_passes(self):
        reports = gradcheck_suite(seed=0, probes=8)
        assert len(reports) == len(default_gradcheck_cases()) + 1
        names = [r.name for r in reports]
        assert len(set(names)) == len(names)
        assert all(n.startswith("gradcheck-") for n in names)
        failures = [r.name for r in reports if not r.passed]
        assert failures == []

    def test_distance_tags_each_get_a_case(self):
        names = set(default_gradcheck_cases())
        for tag in ("l2", "power4", "exp_power", "l1", "huber", "pseudo_huber"):
            assert f"distance-{tag}" in names

    def test_zero_subgradient_report(self):
        reports = gradcheck_suite(seed=0, probes=1)
        rep = {r.name: r for r in reports}["gradcheck-zero-subgradient"]
        assert rep.passed
        assert rep.tolerance == 0.0

    def test_corrupted_derivative_is_caught(self):
        # the planted case lies to autodiff (x2) but not to the FD probe (x3)
        def two_faced(a):
            return a * 2.0 if a.requires_grad else a * 3.0

        cases = {"two-faced-scale": (two_faced, [lambda r: r.standard_normal((3, 2))])}
        reports = gradcheck_suite(seed=0, probes=3, cases=cases)
        planted = [r for r in reports if r.name == "gradcheck-two-faced-scale"]
        assert len(planted) == 1
        assert planted[0].verdict == "fail"
        assert planted[0].estimate[0] > 0.1

    def test_planted_gmm_score_vjp_is_caught(self):
        # the mixture score primitive passes; the same forward whose VJP drops
        # the −s sᵀ term of the Hessian must fail
        mix = GmmSpec(np.array([0.3, 0.7]), np.array([[1.5, 0.0], [-1.0, 1.0]]), 0.6)
        t = np.array([0.05, 0.5, 1.0, 4.0])

        def planted(x):
            good = gmm_score_graph(mix, x, t)
            s = good.data

            def vjp(g):
                return (good.vjp(g)[0] + (g * s).sum(axis=1, keepdims=True) * s,)

            return T.primitive(s, "gmm-score-planted", (x,), vjp)

        points = [lambda r: 2.0 * r.standard_normal((4, 2))]
        cases = {
            "gmm-score": (lambda x: gmm_score_graph(mix, x, t), points),
            "gmm-score-planted": (planted, points),
        }
        reports = {r.name: r for r in gradcheck_suite(seed=0, probes=5, cases=cases)}
        assert reports["gradcheck-gmm-score"].passed
        assert reports["gradcheck-gmm-score-planted"].verdict == "fail"
        assert reports["gradcheck-gmm-score-planted"].estimate[0] > 0.1

    def test_same_seed_reproduces_estimates(self):
        a = gradcheck_suite(seed=3, probes=3)
        b = gradcheck_suite(seed=3, probes=3)
        assert [r.estimate for r in a] == [r.estimate for r in b]

    def test_probe_count_is_echoed(self):
        reports = gradcheck_suite(seed=0, probes=2)
        assert all(r.n_mc == 2 for r in reports if r.name != "gradcheck-zero-subgradient")
