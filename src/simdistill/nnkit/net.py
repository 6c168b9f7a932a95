"""Fully connected networks over the tensor primitives.

The only architecture here is a plain MLP with an optional time column
appended to the input, which is all the 2-D score/denoiser experiments need.
A forward runs the whole layer stack over one block of rows at a time; on the
tape a call is a single ``mlp`` node with a hand-written backward.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..rng import make_rng
from . import tensor as T
from .tensor import Tensor

# The tape ops of each activation. A network call does not record them one
# by one: its forward and backward below run the same numpy ops in place.
ACTIVATIONS = {"relu": T.relu, "silu": T.silu, "tanh": T.tanh}
CONDITIONINGS = ("raw", "concat-t", "concat-log-t")
# relu and tanh written into their argument; SiLU keeps its σ apart
_INPLACE_ACTIVATIONS = {
    "relu": lambda z: np.maximum(z, 0.0, out=z),
    "tanh": lambda z: np.tanh(z, out=z),
}

# Rows per block of a forward. A training batch of ≤ 512 rows is one block,
# so it runs the same products as a whole-batch forward. On the pool, each
# numpy call of a block releases and retakes the interpreter lock, and calls
# of a few µs left the workers waiting on it: on a 2-vCPU Xeon with one BLAS
# thread, 10⁴ rows took 5.9 ms in 1024-row blocks and 6.9 ms in 512-row ones,
# against 9.8 ms for the unblocked forward, which 256-row blocks beat by only
# 14%. The blocks are fixed, so the output does not depend on how they are
# shared out.
_BLOCK_ROWS = 1024
# A call of several blocks runs them on a kernels.map_blocks pool when it
# makes at least this many multiply-adds (rows × Σ fan_in·fan_out). The pool
# costs ~0.15 ms to start, and a narrow net does too little work to repay it:
# on a 2-vCPU Xeon with one BLAS thread, the one-layer 2→2 net's 4096-row
# forward took 0.21 ms pooled and 0.06 ms on the calling thread. A 2-64-64-2
# net makes 8.9·10⁶ at 2048 rows, so it is pooled from there on. Training
# batches of ≤ 512 rows are one block and stay on the calling thread.
_POOL_MIN_MULADDS = 2**23
# On the pool, each product is cut into row chunks of at most
# kernels.SERIAL_BLAS_MNK multiply-adds, so that a multi-threaded OpenBLAS
# does not start threads of its own: with two BLAS threads, 10⁴ rows took
# 20.6 ms on the pool against 8.3 ms for one unblocked forward. 64-row chunks
# of a 64-wide layer matched the whole product bit for bit.


def _matmul_rows(h: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
    """``h @ w`` into ``out``, in even row chunks of at most kernels.SERIAL_BLAS_MNK.

    The chunks are even, so none is a single row unless ``h`` is (numpy sends
    a one-row product to gemv, whose last bits differ from gemm's).
    """
    parts = -(-len(h) * w.size // kernels.SERIAL_BLAS_MNK)
    for c in range(parts):
        lo, hi = len(h) * c // parts, len(h) * (c + 1) // parts
        np.matmul(h[lo:hi], w, out=out[lo:hi])


class MlpNet:
    """Multi-layer perceptron ``x [, t] -> y`` on float64 tensors.

    Args:
        widths: layer widths including data input and output, e.g.
            ``[2, 64, 64, 2]``. The time column (when conditioning is not
            ``"raw"``) is appended on top of ``widths[0]``.
        activation: ``"relu"``, ``"silu"`` or ``"tanh"``; applied between
            layers, never after the last.
        conditioning: ``"raw"`` ignores ``t``; ``"concat-t"`` appends ``t``
            as an extra input column; ``"concat-log-t"`` appends ``log t``.
        zero_final: start the last layer at exactly zero, so the initial
            network output is zero regardless of input.
        seed: seeds the uniform ``±1/sqrt(fan_in)`` weight and bias init.
    """

    def __init__(
        self,
        widths: list[int],
        activation: str = "silu",
        conditioning: str = "raw",
        zero_final: bool = False,
        seed: int = 0,
    ):
        if len(widths) < 2:
            raise ValueError(f"need at least input and output widths, got {widths}")
        if min(widths) < 1:
            raise ValueError(f"every width must be at least 1, got {widths}")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}, expected one of {sorted(ACTIVATIONS)}")
        if conditioning not in CONDITIONINGS:
            raise ValueError(f"unknown conditioning {conditioning!r}, expected one of {CONDITIONINGS}")
        self.widths = list(widths)
        self.activation = activation
        self.conditioning = conditioning
        self.zero_final = zero_final
        self.seed = seed

        rng = make_rng(seed)
        self.layers: list[tuple[Tensor, Tensor]] = []
        fan_ins = list(widths[:-1])
        if conditioning != "raw":
            fan_ins[0] += 1
        for i, (fan_in, fan_out) in enumerate(zip(fan_ins, widths[1:])):
            bound = 1.0 / np.sqrt(fan_in)
            last = i == len(widths) - 2
            if zero_final and last:
                w = np.zeros((fan_in, fan_out))
                b = np.zeros(fan_out)
            else:
                w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
                b = rng.uniform(-bound, bound, size=fan_out)
            self.layers.append((Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)))

    # -- parameter access ---------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for i, (w, b) in enumerate(self.layers):
            out.append((f"layer{i}.weight", w))
            out.append((f"layer{i}.bias", b))
        return out

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        names = [name for name, _ in self.named_parameters()]
        missing = sorted(set(names) - set(state))
        extra = sorted(set(state) - set(names))
        if missing or extra:
            raise ValueError(f"state mismatch: missing={missing}, unexpected={extra}")
        for name, p in self.named_parameters():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise ValueError(f"{name}: shape {arr.shape} does not match {p.data.shape}")
            p.data[...] = arr

    def detached(self) -> "MlpNet":
        """A view of this network whose parameters never take gradients.

        Parameter storage is shared, so in-place optimizer updates to the
        source network are visible through the view; only gradient tracking
        is cut. Evaluating the view on a grad-tracked input still records
        the input side of the graph.
        """
        twin = object.__new__(MlpNet)
        twin.widths = self.widths
        twin.activation = self.activation
        twin.conditioning = self.conditioning
        twin.zero_final = self.zero_final
        twin.seed = self.seed
        twin.layers = [
            (Tensor(w.data, requires_grad=False), Tensor(b.data, requires_grad=False))
            for w, b in self.layers
        ]
        return twin

    # -- forward ------------------------------------------------------------

    def _check_input(self, shape: tuple[int, ...], t) -> None:
        """Raise on an input the layer chain cannot take; both forwards call it."""
        if len(shape) != 2:
            raise ValueError(f"expected a (batch, features) input, got shape {shape}")
        if shape[1] != self.widths[0]:
            raise ValueError(f"input has {shape[1]} features, network expects {self.widths[0]}")
        width = shape[1]
        if self.conditioning != "raw":
            if t is None:
                raise ValueError(f"conditioning {self.conditioning!r} requires a time input")
            rows = np.size(t)
            if rows != shape[0] and not (rows == 1 and shape[0] > 1):
                raise ValueError(f"time input has {rows} rows, batch has {shape[0]}")
            width += 1
        for i, (w, _) in enumerate(self.layers):
            if width != w.shape[0]:
                raise ValueError(f"layer{i}: got {width} input features, weight expects {w.shape[0]}")
            width = w.shape[1]

    def _time_column(self, t, n: int) -> np.ndarray:
        """``t`` as an (n, 1) column, logged under ``concat-log-t``."""
        col = np.broadcast_to(np.asarray(t, dtype=np.float64).reshape(-1, 1), (n, 1))
        return np.log(col) if self.conditioning == "concat-log-t" else col

    def _input(self, x: np.ndarray, t) -> np.ndarray:
        """The first layer's input: ``x``, with the time column when conditioned."""
        self._check_input(x.shape, t)
        if self.conditioning == "raw":
            return x
        return np.concatenate([x, self._time_column(t, x.shape[0])], axis=1)

    def _hidden_arrays(self, rows: int, keep: bool) -> list[tuple]:
        """Per hidden layer, (pre-activation, σ, output) arrays of ``rows`` rows.

        relu and tanh run in place, their three arrays one and σ unused. SiLU
        keeps its pre-activation and σ for the backward, and writes its
        output apart from them only with ``keep``.
        """
        arrays = []
        for w, _ in self.layers[:-1]:
            z = np.empty((rows, w.shape[1]))
            if self.activation != "silu":
                arrays.append((z, None, z))
            else:
                arrays.append((z, np.empty_like(z), np.empty_like(z) if keep else z))
        return arrays

    def _forward(self, inp: np.ndarray, saved: list[tuple] | None) -> np.ndarray:
        """The network output on the rows of ``inp``, one block of rows at a time.

        A block of _BLOCK_ROWS rows runs the whole layer stack: per layer one
        matmul into the block's rows, then the bias and the activation in
        place. With ``saved`` (full-size ``_hidden_arrays``, which the tape
        keeps) a block writes its rows of every hidden layer there; without,
        it works in per-worker scratch. Every product of up to 6000 rows, and
        every 64-wide product, matched the whole-batch one bit for bit; from
        8192 rows on, the 2-wide output product takes another gemm path than
        its blocks, which moved 10⁴-row outputs by ≤ 9.1e-16·max|out|.
        """
        n = len(inp)
        rows = min(n, _BLOCK_ROWS)
        # over several blocks each bias is tiled to a block's rows once: a
        # flat add, where adding a bias row by broadcast took three times as
        # long; a single block adds the row itself
        reps = rows if n > _BLOCK_ROWS else 1
        tiled = [(w.data, np.tile(b.data, (reps, 1))) for w, b in self.layers]
        hidden, (w_out, b_out) = tiled[:-1], tiled[-1]
        out = np.empty((n, w_out.shape[1]))
        inplace = _INPLACE_ACTIVATIONS.get(self.activation)
        widest = max([w.shape[1] for w, _ in hidden], default=0)

        def make_scratch():
            hidden_scratch = self._hidden_arrays(rows, keep=False) if saved is None else None
            return hidden_scratch, np.empty(rows * widest)

        def block(lo: int, scratch) -> None:
            hi = min(lo + _BLOCK_ROWS, n)
            arrays, at = (saved, slice(lo, hi)) if saved is not None else (scratch[0], slice(0, hi - lo))
            h = inp[lo:hi]
            for (w, b), (z, sig, post) in zip(hidden, arrays):
                z = z[at]
                matmul(h, w, out=z)
                z += b[: hi - lo]
                if inplace is not None:
                    h = inplace(z)
                else:
                    work = scratch[1][: z.size].reshape(z.shape)
                    h = np.multiply(z, T._sigmoid(z, out=sig[at], work=work), out=post[at])
            matmul(h, w_out, out=out[lo:hi])
            out[lo:hi] += b_out[: hi - lo]

        blocks = range(0, n, _BLOCK_ROWS)
        # the chunks depend on the block count alone, so pooling or not
        # leaves the output's bits alone
        matmul = _matmul_rows if len(blocks) > 1 else np.matmul
        if len(blocks) > 1 and n * sum(w.size for w, _ in tiled) >= _POOL_MIN_MULADDS:
            kernels.map_blocks(block, blocks, make_scratch)
        else:
            scratch = make_scratch()
            for lo in blocks:
                block(lo, scratch)
        return out

    def __call__(self, x, t=None) -> Tensor:
        """Forward pass on the tape as one ``mlp`` node; ``t`` is a scalar or one value per row.

        The node keeps each hidden layer in full-size arrays. Its VJP is one
        loop down the layers that runs the ops of the per-layer chain
        ``add(matmul(h, w), b)`` and the activation's VJP in that chain's
        order, so the gradients are the chain's to the bit: weight and bias
        gradients come from full-batch products, and an operand that needs no
        gradient gets ``None``. A call with nothing to differentiate keeps
        nothing.
        """
        xt = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
        inp = self._input(xt.data, t)
        parents = (xt, *(p for layer in self.layers for p in layer))
        if not any(p.requires_grad for p in parents):
            return T.primitive(self._forward(inp, None), "mlp", parents, None)
        saved = self._hidden_arrays(len(inp), keep=True)
        out = self._forward(inp, saved)
        layers = list(self.layers)
        # needs[i]: whether the input of layer i needs a gradient
        needs = [xt.requires_grad]
        for w, b in layers[:-1]:
            needs.append(needs[-1] or w.requires_grad or b.requires_grad)
        act_grad = {"relu": T._relu_grad, "tanh": T._tanh_grad}.get(self.activation)

        def vjp(g):
            grads = [None] * len(parents)
            for i in reversed(range(len(layers))):
                w, b = layers[i]
                h = inp if i == 0 else saved[i - 1][2]
                if w.requires_grad:
                    grads[1 + 2 * i] = h.T @ g
                if b.requires_grad:
                    grads[2 + 2 * i] = T._unbroadcast(g, b.shape)
                if not needs[i]:
                    break
                g = g @ w.data.T
                if i == 0:
                    grads[0] = g if self.conditioning == "raw" else np.ascontiguousarray(g[:, : xt.shape[1]])
                elif act_grad is not None:
                    g = act_grad(saved[i - 1][2], g)
                else:
                    g = T._silu_grad(saved[i - 1][0], saved[i - 1][1], g)
            return tuple(grads)

        return T.primitive(out, "mlp", parents, vjp)

    def predict(self, x, t=None) -> np.ndarray:
        """The forward pass on plain arrays, recording nothing.

        Bit-identical to ``self(x, t).data``, which runs the same blocks.
        """
        return self._forward(self._input(np.asarray(x, dtype=np.float64), t), None)
