"""Hot numeric kernels: pairwise RBF sums for MMD and mixture field evaluation.

Both are numpy only, one implementation per formula. ``mmd_sums`` works in
row blocks, so its memory grows linearly in the sample size. Each block makes
one BLAS Gram product of augmented rows, which gives its squared distances
whole, and one exp for the widest rung of a bandwidth ladder whose rungs halve:
each narrower rung's kernel is the wider one's squared twice, within ~1e-13
relative of its own exp. The blocks run through ``map_blocks`` on a thread
pool with one worker per CPU the process may use: the matmul, the ufuncs and
the reductions all release the interpreter lock. Each block returns its own
partial sums, which are added in block order, so the result does not depend
on the worker count. ``nnkit.MlpNet`` runs the row blocks of a large forward
through ``map_blocks`` as well.
``gmm_fields`` is the one implementation of the diffused-mixture math, which
both the plain-array oracles and the graph-mode score primitive in
``oracles`` call.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Rows per block of squared distances. Each worker holds two float64 buffers
# of _BLOCK × n, 2·64·n·8 bytes (10 MB at n = 10⁴): the distances, and the
# kernel block that the rungs of the ladder are made in. On a 2-vCPU Xeon with
# one BLAS thread, blocks of 512 rows ran ~40% slower at n = 10⁴. The block
# boundaries fix how each partial sum is grouped, so changing _BLOCK changes
# the last bits.
_BLOCK = 64

# A multi-threaded OpenBLAS splits a product over its own threads once
# M·N·K passes 4·65536, and those threads then spin against the pool's
# workers: on a 2-vCPU Xeon with two BLAS threads, unchunked Gram products
# made n = 10⁴ take 3.5–4.3 s on the pool against 2.7–3.2 s for a sequential
# loop. The products that run on a pool are cut into chunks of at most this
# many multiply-adds, which OpenBLAS runs on the calling thread.
# ``nnkit.MlpNet`` cuts its products by it too.
SERIAL_BLAS_MNK = 4 * 65536

# The most squarings a kernel block takes since its last exp, which raise it
# to at most the 2^8 = 256th power. The rounding error of p squarings grows
# like 2^p, so a kernel value stays within about 2·256 ulp (~1e-13 relative)
# of its own exp.
_MAX_SQUARINGS = 8


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def map_blocks(fn, blocks, make_scratch) -> list:
    """``[fn(block, scratch) for block in blocks]`` on a thread pool made for this call.

    The pool has one worker per CPU the process may use, capped at the block
    count, and the calling thread is one of them: its caches and malloc arena
    are warm, where a new thread's first block ran at a third of the speed of
    its later ones. The pool's threads end with the call. Each worker takes
    the next block until none is left, so a block costs a lock rather than a
    future (25 µs each when every block was its own task). A worker's scratch
    comes from ``make_scratch``, called on the calling thread, so it is freed
    when the call returns: arrays allocated in the workers stayed in the
    workers' malloc arenas (RSS 32 MB higher after an MMD at n = 10⁴). The
    results come back in block order.
    """
    blocks = list(blocks)
    results = [None] * len(blocks)
    todo = iter(range(len(blocks)))
    lock = threading.Lock()

    def drain(scratch) -> None:
        while True:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            results[i] = fn(blocks[i], scratch)

    workers = max(1, min(_usable_cpus(), len(blocks)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(drain, make_scratch()) for _ in range(workers - 1)]
        try:
            drain(make_scratch())
        finally:
            for future in futures:
                future.result()
    return results


def _check_bandwidths(bandwidths) -> np.ndarray:
    h = np.asarray(bandwidths, dtype=np.float64)
    if h.ndim != 1 or h.size == 0:
        raise ValueError(f"bandwidths must be a non-empty 1-D array, got shape {h.shape}")
    bad = h[~(np.isfinite(h) & (h > 0.0))]
    if bad.size:
        raise ValueError(f"bandwidths must be finite and positive, got {float(bad[0])!r}")
    return h


# ---------------------------------------------------------------------------
# pairwise RBF sums (the O(n²) core of the MMD estimator)


def mmd_sums(X: np.ndarray, Y: np.ndarray, bandwidths: np.ndarray) -> np.ndarray:
    """Σ exp(-‖a-b‖²/(2h²)) over XX (i≠j), YY (i≠j), XY pairs, per bandwidth.

    Returns an array of shape (len(bandwidths), 3) with columns
    (sum_xx, sum_yy, sum_xy). The samples are first centred on their pooled
    mean: without the centring, ‖a‖² + ‖b‖² − 2abᵀ loses digits to
    cancellation when the clouds sit far from the origin. A row block's
    squared distances are one Gram product of augmented rows (``_augmented``),
    and its rungs come from as few exps as ``_ladder_plan`` allows: the
    default ladder takes one. Each sum is within ~1e-13 relative of the sum
    of exps. The row blocks of all three pair sums go to one ``map_blocks``
    pool; their partial sums are added into each column in block order, so
    every worker count gives the same bits.

    Raises:
        ValueError: unless ``bandwidths`` is a non-empty 1-D array of finite
            positive values.
    """
    plan = _ladder_plan(-0.5 / _check_bandwidths(bandwidths) ** 2)
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    centre = np.vstack([X, Y]).mean(axis=0)
    (xl, xr), (yl, yr) = _augmented(X - centre), _augmented(Y - centre)
    pairs = ((xl, xr, True), (yl, yr, True), (xl, yr, False))
    blocks = [(col, i0) for col, (A, *_) in enumerate(pairs) for i0 in range(0, len(A), _BLOCK)]
    size = _BLOCK * max(len(X), len(Y))
    partials = map_blocks(
        lambda blk, buffers: _block_sums(*pairs[blk[0]], blk[1], plan, *buffers),
        blocks,
        lambda: (np.empty(size), np.empty(size)),
    )
    sums = np.zeros((len(plan), 3))
    for (col, _), part in zip(blocks, partials):
        sums[:, col] += part
    return sums


def _augmented(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows [s, ‖s‖², 1] and [−2s, 1, ‖s‖²], whose products are squared distances.

    ``left[i] · right[j]`` is ‖s_i‖² − 2 s_i·s_j + ‖s_j‖². Scaling by −2 is
    exact, so a gemm that adds the inner dimension in order rounds it as
    ``(−2·(s_i·s_j) + ‖s_i‖²) + ‖s_j‖²``.
    """
    s2 = np.einsum("ij,ij->i", S, S)[:, None]
    one = np.ones_like(s2)
    return np.hstack([S, s2, one]), np.hstack([-2.0 * S, one, s2])


def _ladder_plan(scales: np.ndarray) -> list[tuple[int, float, int]]:
    """How each rung's kernel block is made: (rung, scale, squarings), in visiting order.

    The rungs go from the widest bandwidth to the narrowest. A rung whose
    scale is exactly 2^p times the previous rung's (p ≥ 1) is the previous
    kernel block squared p times: exp(2^p·s·d) = exp(s·d)^(2^p), and 2^p·s·d
    rounds exactly as s·d does. Any other rung takes a fresh exp (squarings
    0), as does a rung that would take the block past _MAX_SQUARINGS since its
    last exp. Squaring starts from the widest rung because a narrow kernel
    underflows to 0 where a wider one does not.
    """
    plan: list[tuple[int, float, int]] = []
    since_exp = 0
    for b in np.argsort(-scales, kind="stable"):
        scale = float(scales[b])
        p = 0
        if plan:
            prev = plan[-1][1]
            mantissa, exponent = np.frexp(scale / prev)
            if mantissa == 0.5 and exponent >= 2 and np.ldexp(prev, exponent - 1) == scale:
                p = int(exponent) - 1
        if p > _MAX_SQUARINGS - since_exp:
            p = 0
        since_exp = since_exp + p if p else 0
        plan.append((int(b), scale, p))
    return plan


def _block_sums(
    A: np.ndarray,
    B: np.ndarray,
    same: bool,
    i0: int,
    plan: list[tuple[int, float, int]],
    sq_buf: np.ndarray,
    k_buf: np.ndarray,
) -> np.ndarray:
    """Σ exp(scale·‖a_i − b_j‖²) per rung of ``plan`` over rows i0 : i0 + _BLOCK of A.

    ``A`` and ``B`` are the left and right rows of ``_augmented``; ``sq_buf``
    and ``k_buf`` are flat scratch of at least _BLOCK × len(B) floats. The
    Gram product is cut into even column chunks of at most SERIAL_BLAS_MNK
    multiply-adds, so a split never leaves a one-column product (numpy sends
    those to gemv, whose last bits differ from gemm's). With ``same`` (B is
    A's own right rows) the sum runs over i ≠ j: the block pairs only with
    columns from its own first row onward, its diagonal square is summed
    whole with the diagonal removed, and the rest counts twice for the
    mirrored lower triangle.
    """
    i1 = min(i0 + _BLOCK, len(A))
    j0 = i0 if same else 0
    width = len(B) - j0
    sq = sq_buf[: (i1 - i0) * width].reshape(i1 - i0, width)
    parts = -(-width * _BLOCK * A.shape[1] // SERIAL_BLAS_MNK)
    for c in range(parts):
        c0, c1 = width * c // parts, width * (c + 1) // parts
        np.matmul(A[i0:i1], B[j0 + c0 : j0 + c1].T, out=sq[:, c0:c1])
    np.maximum(sq, 0.0, out=sq)
    if same:
        rows = np.arange(i1 - i0)
        sq[rows, rows] = np.inf  # exp(-inf) = 0 drops the i = j terms
    k = k_buf[: (i1 - i0) * width].reshape(i1 - i0, width)
    sums = np.empty(len(plan))
    for b, scale, squarings in plan:
        if squarings:
            for _ in range(squarings):
                np.multiply(k, k, out=k)
        else:
            np.multiply(sq, scale, out=k)
            np.exp(k, out=k)
        sums[b] = k[:, : i1 - i0].sum() + 2.0 * k[:, i1 - i0 :].sum() if same else k.sum()
    return sums


# ---------------------------------------------------------------------------
# Gaussian-mixture diffused fields (log-density, responsibilities, scores)


def gmm_fields(
    x: np.ndarray,
    means: np.ndarray,
    variances: np.ndarray,
    log_weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Diffused-mixture log-density and score at x, with their parts.

    Args:
        x: (n, d) evaluation points.
        means: (K, d) component means.
        variances: per-component isotropic variances with the noise already
            included (signal² + t²): shape (K,) when every row shares one
            time, (n, K) for one time per row.
        log_weights: (K,) log mixing weights.

    Returns:
        (logdens (n,), resp (n, K), comp (n, K, d), score (n, d)), where
        resp are the posterior responsibilities r_k, comp the per-component
        scores a_k = (μ_k − x)/v_k and score s = Σ_k r_k a_k. The score's
        Jacobian, −(Σ_k r_k/v_k) I + Σ_k r_k a_k a_kᵀ − s sᵀ, needs nothing
        else.
    """
    d = x.shape[1]
    comp = means[None, :, :] - x[:, None, :]  # (n, K, d)
    sq = np.square(comp).sum(axis=2)  # (n, K)
    logits = log_weights - 0.5 * d * np.log(2.0 * np.pi * variances) - sq / (2.0 * variances)
    peak = logits.max(axis=1, keepdims=True)
    w = np.exp(logits - peak)
    total = w.sum(axis=1, keepdims=True)
    logdens = (peak + np.log(total)).ravel()
    resp = w / total
    comp /= variances[..., None]
    score = (resp[:, :, None] * comp).sum(axis=1)
    return logdens, resp, comp, score


def backend_name() -> str:
    """The array backend the kernels run on."""
    return "numpy"
