"""Adam optimizer over named tensor parameters.

Defaults follow the distillation recipes used throughout this package:
no first-moment averaging (``beta1 = 0``) and heavy second-moment averaging
(``beta2 = 0.999``), with the usual bias correction.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class Adam:
    """Adam with in-place parameter updates.

    Updates write through ``param.data[...]``, so detached views that share
    storage observe every step.
    """

    def __init__(
        self,
        named_params: list[tuple[str, Tensor]],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.0, 0.999),
        eps: float = 1e-8,
    ):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        self.names = [name for name, _ in named_params]
        self.params = [p for _, p in named_params]
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads: list[np.ndarray]) -> None:
        """Apply one update from gradients aligned with the parameter list.

        Raises:
            FloatingPointError: if any gradient contains NaN or inf; the
                message names the offending parameter.
        """
        if len(grads) != len(self.params):
            raise ValueError(f"got {len(grads)} gradients for {len(self.params)} parameters")
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for name, p, g, m, v in zip(self.names, self.params, grads, self.m, self.v):
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            # lr·(m/c1) / (√(v/c2) + eps), built in two buffers with the same ops
            s = m / c1
            s *= self.lr
            den = v / c2
            np.sqrt(den, out=den)
            den += self.eps
            s /= den
            p.data -= s

    def state_dict(self) -> dict:
        return {
            "t": self.t,
            "m": {name: m.copy() for name, m in zip(self.names, self.m)},
            "v": {name: v.copy() for name, v in zip(self.names, self.v)},
        }

    def load_state_dict(self, state: dict) -> None:
        self.t = int(state["t"])
        for i, name in enumerate(self.names):
            self.m[i][...] = np.asarray(state["m"][name], dtype=np.float64)
            self.v[i][...] = np.asarray(state["v"][name], dtype=np.float64)
