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

    def _time_column(self, t, n: int) -> Tensor:
        if isinstance(t, Tensor):
            col = T.reshape(t, (-1, 1)) if t.data.ndim >= 1 else T.reshape(t, (1, 1))
            if col.shape[0] == 1 and n > 1:
                col = T.broadcast_to(col, (n, 1))
        else:
            arr = np.asarray(t, dtype=np.float64).reshape(-1, 1)
            if arr.shape[0] == 1 and n > 1:
                arr = np.broadcast_to(arr, (n, 1))
            col = Tensor(arr)
        if col.shape[0] != n:
            raise ValueError(f"time input has {col.shape[0]} rows, batch has {n}")
        if self.conditioning == "concat-log-t":
            col = T.log(col)
        return col

    def __call__(self, x, t=None) -> Tensor:
        h = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
        if h.data.ndim != 2:
            raise ValueError(f"expected a (batch, features) input, got shape {h.shape}")
        if h.shape[1] != self.widths[0]:
            raise ValueError(f"input has {h.shape[1]} features, network expects {self.widths[0]}")
        if self.conditioning != "raw":
            if t is None:
                raise ValueError(f"conditioning {self.conditioning!r} requires a time input")
            h = T.concat([h, self._time_column(t, h.shape[0])], axis=1)
        act = ACTIVATIONS[self.activation]
        last = len(self.layers) - 1
        for i, (w, b) in enumerate(self.layers):
            if h.shape[1] != w.shape[0]:
                raise ValueError(
                    f"layer{i}: got {h.shape[1]} input features, weight expects {w.shape[0]}"
                )
            h = T.add(T.matmul(h, w), b)
            if i != last:
                h = act(h)
        return h
