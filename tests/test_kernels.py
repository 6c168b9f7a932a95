"""Numeric kernels: the MMD sums and the mixture fields against brute force,
their determinism, and the MMD sums' independence of the worker count.
"""

import re
import sys
import threading
import time

import numpy as np
import pytest

from simdistill import kernels
from simdistill.metrics import BANDWIDTH_FACTORS, BANDWIDTH_FLOOR, median_heuristic_bandwidths
from simdistill.rng import make_rng


def brute_force_sums(X, Y, bandwidths):
    """mmd_sums from full difference tensors, diagonals excluded."""
    dxx = ((X[:, None, :] - X[None, :, :]) ** 2).sum(-1)
    dyy = ((Y[:, None, :] - Y[None, :, :]) ** 2).sum(-1)
    dxy = ((X[:, None, :] - Y[None, :, :]) ** 2).sum(-1)
    rows = []
    for h in bandwidths:
        kxx = np.exp(-dxx / (2 * h * h))
        np.fill_diagonal(kxx, 0.0)
        kyy = np.exp(-dyy / (2 * h * h))
        np.fill_diagonal(kyy, 0.0)
        rows.append([kxx.sum(), kyy.sum(), np.exp(-dxy / (2 * h * h)).sum()])
    return np.array(rows)


def sequential_mmd_sums(X, Y, bandwidths, squarings=True):
    """mmd_sums as one sequential loop over the row blocks, the reference for
    the thread pool: same centring, same blocks, same ops, same sum order.

    A block's squared distances are one product of augmented rows. Its rungs
    run from the widest to the narrowest; with ``squarings``, a rung whose
    scale is 2^p times the last one's is that kernel block squared p times,
    unless that makes more than 8 squarings since the last exp. Without, every
    rung is its own exp: the plain formula."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    centre = np.vstack([X, Y]).mean(axis=0)
    X = X - centre
    Y = Y - centre
    scales = -0.5 / np.asarray(bandwidths, dtype=np.float64) ** 2
    order = sorted(range(len(scales)), key=lambda b: -scales[b])

    def left(A):
        a2 = (A * A).sum(axis=1, keepdims=True)
        return np.hstack([A, a2, np.ones_like(a2)])

    def right(B):
        b2 = (B * B).sum(axis=1, keepdims=True)
        return np.hstack([-2.0 * B, np.ones_like(b2), b2])

    def pair_sums(A, B, same):
        L, R = left(A), right(B)
        sums = np.zeros(len(scales))
        for i0 in range(0, len(A), 64):
            i1 = min(i0 + 64, len(A))
            j0 = i0 if same else 0
            sq = np.maximum(L[i0:i1] @ R[j0:].T, 0.0)
            if same:
                rows = np.arange(i1 - i0)
                sq[rows, rows] = np.inf
            k, last, since = None, None, 0
            for b in order:
                p = 0
                if squarings and last is not None:
                    for q in range(1, 9 - since):
                        if scales[b] == last * 2.0**q:
                            p = q
                if p:
                    for _ in range(p):
                        k = k * k
                    since += p
                else:
                    k = np.exp(sq * scales[b])
                    since = 0
                last = scales[b]
                if same:
                    sums[b] += k[:, : i1 - i0].sum() + 2.0 * k[:, i1 - i0 :].sum()
                else:
                    sums[b] += k.sum()
        return sums

    return np.stack([pair_sums(X, X, True), pair_sums(Y, Y, True), pair_sums(X, Y, False)], axis=1)


def _parity_cases():
    rng = make_rng(5)
    sizes = [(2, 2), (63, 65), (64, 64), (65, 2), (129, 63), (2048, 2048), (2048, 129)]
    cases = [(f"{m}x{n}", rng.standard_normal((m, 2)), rng.standard_normal((n, 2))) for m, n in sizes]
    X = rng.standard_normal((2049, 2))
    Y = rng.standard_normal((2048, 2))
    cases.append(("shifted", X + 1e3, Y + 1e3))
    cases.append(("duplicates", np.vstack([X[:1500], X[:300]]), np.vstack([Y[:1500], X[1000:1300]])))
    return cases


class TestMmdSums:
    def test_deterministic(self):
        rng = make_rng(2)
        X = rng.standard_normal((64, 2))
        Y = rng.standard_normal((64, 2))
        bw = np.array([0.7, 1.3])
        assert np.array_equal(kernels.mmd_sums(X, Y, bw), kernels.mmd_sums(X, Y, bw))

    def test_tiny_case_by_hand(self):
        # X = {0, 1}, Y = {2}: sum_xx = 2·exp(-1/(2h²)), sum_yy = 0,
        # sum_xy = exp(-4/(2h²)) + exp(-1/(2h²))
        X = np.array([[0.0], [1.0]])
        Y = np.array([[2.0]])
        h = 1.0
        out = kernels.mmd_sums(X, Y, np.array([h]))
        sxx, syy, sxy = out[0]
        assert sxx == pytest.approx(2 * np.exp(-0.5), rel=1e-15)
        assert syy == 0.0
        assert sxy == pytest.approx(np.exp(-2.0) + np.exp(-0.5), rel=1e-15)

    @pytest.mark.parametrize("ladder", ["two rungs", "default"])
    def test_block_boundary_consistency(self, ladder):
        # sizes straddling the row blocks must not change results; nor may a
        # cloud far from the origin (‖a‖² + ‖b‖² − 2ab on raw coordinates
        # loses ~2e-11 relative at 10³) or exact repeats within X and across
        # X and Y, which sit at distance 0. The default ladder's narrow rungs
        # are squared kernel blocks.
        rng = make_rng(3)
        X = rng.standard_normal((2049, 2))
        Y = rng.standard_normal((2048, 2))
        cases = [
            (X, Y),
            (X + 1e3, Y + 1e3),
            (np.vstack([X[:1500], X[:300]]), np.vstack([Y[:1500], X[1000:1300]])),
        ]
        for A, B in cases:
            bw = np.array([0.25, 1.0]) if ladder == "two rungs" else median_heuristic_bandwidths(A, B)
            np.testing.assert_allclose(kernels.mmd_sums(A, B, bw), brute_force_sums(A, B, bw), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("bw", [[0.25, 1.0, 4.0], [2.0, 0.25, 1.0, 0.5, 4.0]], ids=["ratio-4", "ratio-2"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_any_worker_count_matches_sequential_loop_to_the_bit(self, workers, bw, monkeypatch):
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: workers)
        baseline = threading.active_count()
        for name, A, B in _parity_cases():
            assert np.array_equal(kernels.mmd_sums(A, B, bw), sequential_mmd_sums(A, B, bw)), name
            assert threading.active_count() == baseline, f"{name}: pool threads outlived the call"

    def test_default_ladder_takes_one_exp_and_eight_squarings(self):
        h = np.array(BANDWIDTH_FACTORS) * 1.7
        plan = kernels._ladder_plan(-0.5 / h**2)
        assert [b for b, _, _ in plan] == [4, 3, 2, 1, 0]  # widest first
        assert [p for _, _, p in plan] == [0, 2, 2, 2, 2]

    @pytest.mark.parametrize(
        "bw, squarings",
        [
            ([0.7, 1.3], [0, 0]),  # no power-of-two ratio
            ([1.0, 1.0], [0, 0]),  # equal rungs
            ([1.0, 32.0], [0, 0]),  # 2^10 passes the cap of 2^8
            ([16.0, 1.0], [0, 8]),  # 2^8 sits on it
            ([1.0, 2.0, 4.0, 8.0, 16.0, 32.0], [0, 2, 2, 2, 2, 0]),  # the cap counts since the last exp
        ],
    )
    def test_rungs_without_an_exact_power_of_two_take_their_own_exp(self, bw, squarings):
        h = np.array(bw)
        assert [p for _, _, p in kernels._ladder_plan(-0.5 / h**2)] == squarings  # widest first
        rng = make_rng(8)
        X = rng.standard_normal((300, 2))
        Y = rng.standard_normal((257, 2)) + 0.5
        got = kernels.mmd_sums(X, Y, h)
        np.testing.assert_allclose(got, brute_force_sums(X, Y, h), rtol=1e-12, atol=0)
        if not any(squarings):
            assert np.array_equal(got, sequential_mmd_sums(X, Y, h, squarings=False))

    def test_rungs_clamped_by_the_bandwidth_floor_take_their_own_exp(self):
        # clouds so tight that the 0.25 rung of the median ladder falls below
        # BANDWIDTH_FLOOR: the clamped rung is 1.25 rungs below the next, so
        # it is an exp of its own, to the bit of the plain formula
        rng = make_rng(9)
        X = 1.5e-6 * rng.standard_normal((300, 2))
        Y = 1.5e-6 * rng.standard_normal((280, 2))
        h = median_heuristic_bandwidths(X, Y)
        assert h[0] == BANDWIDTH_FLOOR < h[1] < 2.0 * BANDWIDTH_FLOOR
        plan = {b: p for b, _, p in kernels._ladder_plan(-0.5 / h**2)}
        assert plan[0] == 0 and sum(plan.values()) == 6
        got = kernels.mmd_sums(X, Y, h)
        np.testing.assert_allclose(got, brute_force_sums(X, Y, h), rtol=1e-12, atol=0)
        assert np.array_equal(got[0], sequential_mmd_sums(X, Y, h, squarings=False)[0])

    def test_pool_gets_one_worker_per_cpu_capped_at_the_block_count(self, monkeypatch):
        sizes = []

        class RecordingPool(kernels.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(kernels, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: 8)
        rng = make_rng(6)
        bw = np.array([1.0])
        kernels.mmd_sums(rng.standard_normal((2, 2)), rng.standard_normal((3, 2)), bw)  # 3 blocks
        kernels.mmd_sums(rng.standard_normal((640, 2)), rng.standard_normal((64, 2)), bw)  # 21 blocks
        assert sizes == [3, 8]

    @pytest.mark.parametrize(
        "bandwidths, named",
        [
            ([0.0], "0.0"),
            ([1.0, -1.0], "-1.0"),
            ([np.inf], "inf"),
            ([0.5, np.nan], "nan"),
            ([], "shape (0,)"),
            ([[0.5, 1.0]], "shape (1, 2)"),
        ],
        ids=["zero", "negative", "inf", "nan", "empty", "2-D"],
    )
    def test_rejects_bad_bandwidth_ladder(self, bandwidths, named):
        rng = make_rng(7)
        X = rng.standard_normal((10, 2))
        Y = rng.standard_normal((12, 2))
        with pytest.raises(ValueError, match=re.escape(named)):
            kernels.mmd_sums(X, Y, bandwidths)


class TestMapBlocks:
    def test_results_come_back_in_block_order_with_scratch_made_here(self, monkeypatch):
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: 3)
        makers = []

        def make_scratch():
            makers.append(threading.get_ident())
            return len(makers)

        out = kernels.map_blocks(lambda block, scratch: (block, scratch), range(10), make_scratch)
        assert [block for block, _ in out] == list(range(10))
        assert makers == [threading.get_ident()] * 3  # one per worker, all on this thread
        assert {scratch for _, scratch in out} <= {1, 2, 3}

    def test_a_block_error_reaches_the_caller_after_the_workers_end(self, monkeypatch):
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: 2)
        baseline = threading.active_count()

        def block(i, _):
            if i == 7:
                raise RuntimeError("block 7")

        with pytest.raises(RuntimeError, match="block 7"):
            kernels.map_blocks(block, range(20), lambda: None)
        assert threading.active_count() == baseline

    def test_every_block_runs_once_under_contention(self, monkeypatch):
        # more workers than CPUs and a short switch interval: a block taken
        # twice or lost shows in the counts
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: 8)
        runs = [0] * 3000
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:

            def block(i, _):
                runs[i] += 1
                return i

            start = time.perf_counter()
            out = kernels.map_blocks(block, range(len(runs)), lambda: None)
        finally:
            sys.setswitchinterval(interval)
        assert time.perf_counter() - start < 30
        assert out == list(range(len(runs))) and runs == [1] * len(runs)


class TestGmmFields:
    def _inputs(self):
        # kernel convention: variances arrive with the noise folded in
        # (signal² + t²)
        rng = make_rng(4)
        x = rng.standard_normal((40, 2)) * 3
        means = np.array([[2.0, 0.0], [-2.0, 1.0], [0.0, -2.0]])
        diffused = np.array([0.25, 0.49, 1.0]) + 0.81
        log_w = np.log(np.array([0.2, 0.5, 0.3]))
        return x, means, diffused, log_w

    def test_matches_brute_force(self):
        x, means, diffused, log_w = self._inputs()
        logdens, resp, comp, score = kernels.gmm_fields(x, means, diffused, log_w)
        from scipy.stats import multivariate_normal

        dens_k = np.stack(
            [np.exp(log_w[k]) * multivariate_normal(means[k], diffused[k] * np.eye(2)).pdf(x) for k in range(3)],
            axis=1,
        )
        np.testing.assert_allclose(logdens, np.log(dens_k.sum(axis=1)), rtol=1e-10)
        np.testing.assert_allclose(resp, dens_k / dens_k.sum(axis=1, keepdims=True), rtol=1e-10)
        np.testing.assert_allclose(comp, (means[None] - x[:, None]) / diffused[None, :, None], rtol=1e-14)
        np.testing.assert_allclose(score, (resp[:, :, None] * comp).sum(axis=1), rtol=1e-14)
        # FD score on the first few points
        h = 1e-6
        for i in range(5):
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                lp = kernels.gmm_fields((x[i] + e)[None], means, diffused, log_w)[0][0]
                lm = kernels.gmm_fields((x[i] - e)[None], means, diffused, log_w)[0][0]
                assert score[i, j] == pytest.approx((lp - lm) / (2 * h), rel=1e-5, abs=1e-7)
        # one variance row per point gives each row its own scalar-variance answer
        per_row = diffused[None, :] * np.linspace(0.5, 4.0, len(x))[:, None]
        batched = kernels.gmm_fields(x, means, per_row, log_w)
        for i in (0, 17, 39):
            single = kernels.gmm_fields(x[i : i + 1], means, per_row[i], log_w)
            for a, b in zip(batched, single):
                np.testing.assert_allclose(a[i : i + 1], b, rtol=1e-14)


class TestBackendSelection:
    def test_backend_name_reports(self):
        assert kernels.backend_name() == "numpy"
