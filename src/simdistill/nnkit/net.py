"""Fully connected networks over the tensor primitives.

The only architecture here is a plain MLP with an optional time column
appended to the input, which is all the 2-D score/denoiser experiments need.
"""

from __future__ import annotations

import numpy as np

from ..rng import make_rng
from . import tensor as T
from .tensor import Tensor

ACTIVATIONS = {"relu": T.relu, "silu": T.silu, "tanh": T.tanh}
# the same elementwise ops as ACTIVATIONS, written into their argument
_INPLACE_ACTIVATIONS = {
    "relu": lambda h: np.maximum(h, 0.0, out=h),
    "silu": lambda h: np.multiply(h, T._sigmoid(h), out=h),
    "tanh": lambda h: np.tanh(h, out=h),
}
_BLOCK_ROWS = 256  # 256 rows of a 64-wide layer: 128 KiB, within L2
CONDITIONINGS = ("raw", "concat-t", "concat-log-t")


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

    def __call__(self, x, t=None) -> Tensor:
        """Forward pass on the tape; ``t`` is a scalar or one value per row."""
        h = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
        self._check_input(h.shape, t)
        if self.conditioning != "raw":
            h = T.concat([h, Tensor(self._time_column(t, h.shape[0]))], axis=1)
        act = ACTIVATIONS[self.activation]
        last = len(self.layers) - 1
        for i, (w, b) in enumerate(self.layers):
            h = T.dense(h, w, b)
            if i != last:
                h = act(h)
        return h

    def predict(self, x, t=None) -> np.ndarray:
        """The forward pass on plain arrays, recording nothing.

        Bit-identical to ``self(x, t).data``: each layer runs one full-batch
        matmul (row chunks of it would not be bit-identical), then adds the
        bias and applies the activation in place over blocks of
        ``_BLOCK_ROWS`` rows, so each block stays in cache between the ops.
        """
        h = np.asarray(x, dtype=np.float64)
        self._check_input(h.shape, t)
        if self.conditioning != "raw":
            h = np.concatenate([h, self._time_column(t, h.shape[0])], axis=1)
        act = _INPLACE_ACTIVATIONS[self.activation]
        last = len(self.layers) - 1
        for i, (w, b) in enumerate(self.layers):
            h = h @ w.data
            for lo in range(0, h.shape[0], _BLOCK_ROWS):
                blk = h[lo : lo + _BLOCK_ROWS]
                blk += b.data
                if i != last:
                    act(blk)
        return h
