"""Hot numeric kernels: pairwise RBF sums for MMD and mixture field evaluation.

Both are numpy only, one implementation per formula. ``mmd_sums`` builds its
squared distances in row blocks from BLAS Gram products, so its memory grows
linearly in the sample size. The blocks run through ``map_blocks`` on a thread
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
# of _BLOCK × n, 2·64·n·8 bytes (10 MB at n = 10⁴), which stay in cache across
# the bandwidth passes; at n = 10⁴ on a 2-vCPU Xeon with one BLAS thread,
# blocks of 512 rows ran ~40% slower. The block boundaries fix how each
# partial sum is grouped, so changing _BLOCK changes the last bits.
_BLOCK = 64

# Columns per Gram product. A multi-threaded OpenBLAS splits a product over
# its own threads once M·N·K passes 4·65536, and those threads then spin
# against the pool's workers: on a 2-vCPU Xeon with two BLAS threads,
# unchunked products made n = 10⁴ take 3.5–4.3 s on the pool against
# 2.7–3.2 s for a sequential loop. _BLOCK × 1024 × d stays below the
# threshold for d ≤ 4. The columns are split evenly, so a split never leaves
# a one-column product (numpy sends those to gemv, whose last bits differ
# from gemm's).
_GRAM_COLS = 1024


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
    (sum_xx, sum_yy, sum_xy). Distances come from Gram blocks of the samples
    centred on their pooled mean: without the centring, ‖a‖² + ‖b‖² − 2abᵀ
    loses digits to cancellation when the clouds sit far from the origin.
    The row blocks of all three pair sums go to one ``map_blocks`` pool;
    their partial sums are added into each column in block order, so every
    worker count gives the same bits.

    Raises:
        ValueError: unless ``bandwidths`` is a non-empty 1-D array of finite
            positive values.
    """
    scales = -0.5 / _check_bandwidths(bandwidths) ** 2
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    centre = np.vstack([X, Y]).mean(axis=0)
    X = X - centre
    Y = Y - centre
    x2 = np.einsum("ij,ij->i", X, X)
    y2 = np.einsum("ij,ij->i", Y, Y)
    pairs = ((X, x2, X, x2, True), (Y, y2, Y, y2, True), (X, x2, Y, y2, False))
    blocks = [(col, i0) for col, (A, *_) in enumerate(pairs) for i0 in range(0, len(A), _BLOCK)]
    size = _BLOCK * max(len(X), len(Y))
    partials = map_blocks(
        lambda blk, buffers: _block_sums(*pairs[blk[0]], blk[1], scales, *buffers),
        blocks,
        lambda: (np.empty(size), np.empty(size)),
    )
    sums = np.zeros((len(scales), 3))
    for (col, _), part in zip(blocks, partials):
        sums[:, col] += part
    return sums


def _block_sums(
    A: np.ndarray,
    a2: np.ndarray,
    B: np.ndarray,
    b2: np.ndarray,
    same: bool,
    i0: int,
    scales: np.ndarray,
    sq_buf: np.ndarray,
    k_buf: np.ndarray,
) -> np.ndarray:
    """Σ exp(scale·‖a_i − b_j‖²) per scale over rows i0 : i0 + _BLOCK of A.

    ``a2`` and ``b2`` are the squared row norms; ``sq_buf`` and ``k_buf`` are
    flat scratch of at least _BLOCK × len(B) floats. With ``same`` (B is A) the
    sum runs over i ≠ j: the block pairs only with columns from its own first
    row onward, its diagonal square is summed whole with the diagonal
    removed, and the rest counts twice for the mirrored lower triangle.
    """
    i1 = min(i0 + _BLOCK, len(A))
    j0 = i0 if same else 0
    width = len(B) - j0
    sq = sq_buf[: (i1 - i0) * width].reshape(i1 - i0, width)
    parts = -(-width // _GRAM_COLS)
    for c in range(parts):
        c0, c1 = width * c // parts, width * (c + 1) // parts
        np.matmul(A[i0:i1], B[j0 + c0 : j0 + c1].T, out=sq[:, c0:c1])
    sq *= -2.0
    sq += a2[i0:i1, None]
    sq += b2[None, j0:]
    np.maximum(sq, 0.0, out=sq)
    if same:
        rows = np.arange(i1 - i0)
        sq[rows, rows] = np.inf  # exp(-inf) = 0 drops the i = j terms
    k = k_buf[: (i1 - i0) * width].reshape(i1 - i0, width)
    sums = np.empty(len(scales))
    for b, scale in enumerate(scales):
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
