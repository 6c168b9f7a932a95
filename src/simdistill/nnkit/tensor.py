"""Dense f64 tensors with recorded-operation reverse-mode differentiation.

Every primitive returns a new :class:`Tensor` and, when any operand requires
gradients, records the operand references plus a vector-Jacobian closure on
the result. A :class:`Tape` is the topologically ordered record of those
primitives reachable from a root; ``backward`` replays it in reverse. Replays
are pure: running backward twice on an unchanged tape produces bit-identical
gradients.

An operation defined elsewhere records itself as one node through
:func:`primitive`: a whole ``MlpNet`` call is one ``mlp`` node whose VJP
uses the ops of :func:`matmul`, :func:`add` and the activations here, in the
same order. A forward that is never differentiated does not belong on the
tape at all: ``MlpNet.predict`` runs it on plain arrays.

Conventions baked in here and relied on elsewhere:
  - all data is float64, row-major;
  - a VJP reads its upstream gradient ``g`` and never writes into it, and the
    gradients ``backward`` returns are read-only: one may share memory with
    another gradient or with an upstream ``g``;
  - broadcasting follows numpy; backward sums gradients over broadcast axes;
  - kinks use subgradient zero (``sign(0) == 0``, relu'(0) == 0, clip passes
    gradient only strictly inside the interval).
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence

import numpy as np

_COUNTER = itertools.count()


class Tensor:
    """A dense array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "op", "parents", "vjp", "uid")

    # force `ndarray <op> Tensor` to dispatch to our reflected operators
    __array_ufunc__ = None

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        *,
        op: str = "leaf",
        parents: tuple["Tensor", ...] = (),
        vjp: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.op = op
        self.parents = parents
        self.vjp = vjp
        self.uid = next(_COUNTER)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """A leaf view of the same data with gradient tracking cut."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.shape}, grad={self.requires_grad})"

    # arithmetic sugar; the module-level functions hold the actual rules
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __rtruediv__(self, other):
        return div(_wrap(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def sum(self, axis=None):
        return tsum(self, axis=axis)

    def mean(self, axis=None):
        return tmean(self, axis=axis)

    def reshape(self, shape):
        return reshape(self, shape)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum an upstream gradient back down to the operand's shape."""
    grad = np.asarray(grad, dtype=np.float64)
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _make(data, op, parents: tuple[Tensor, ...], vjp) -> Tensor:
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, op=op, parents=parents, vjp=vjp)
    return Tensor(data, op=op)


def primitive(data, op: str, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """Record an operation defined outside this module as one tape node.

    ``vjp(g)`` returns one gradient per parent, as for the built-in
    primitives, or ``None`` for a parent that requires none; it is kept only
    when some parent requires gradients. It must not write into ``g``, which
    other nodes' gradients may share; a returned array may be ``g`` itself.
    """
    return _make(data, op, parents, vjp)


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    return _make(out, "add", (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    return _make(out, "sub", (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, "neg", (a,), lambda g: (-g,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    return _make(
        out,
        "mul",
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.data / b.data
    return _make(
        out,
        "div",
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
        ),
    )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    out = a.data @ b.data
    return _make(out, "matmul", (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def square(a: Tensor) -> Tensor:
    return _make(a.data * a.data, "square", (a,), lambda g: (2.0 * a.data * g,))


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _make(out, "sqrt", (a,), lambda g: (g / (2.0 * out),))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _make(out, "exp", (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    return _make(np.log(a.data), "log", (a,), lambda g: (g / a.data,))


def powi(a: Tensor, n: int) -> Tensor:
    """Integer power, elementwise. Backward is n * a**(n-1)."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"powi expects a positive integer exponent, got {n!r}")
    out = a.data**n
    return _make(out, "powi", (a,), lambda g: (g * n * a.data ** (n - 1),))


def _relu_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The relu VJP; ``x`` is relu's input or its output, positive alike."""
    return g * (x > 0.0)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    return _make(out, "relu", (a,), lambda g: (_relu_grad(a.data, g),))


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """σ(x), into ``out`` and with ``work`` as its temporary when given."""
    # 1/(1+e) for x ≥ 0 and e/(1+e) for x < 0, with e = exp(-|x|) ≤ 1 so no
    # exp can overflow. The branch is a max against the 0/1 sign mask rather
    # than a masked gather or np.where, which are several times slower than
    # the exp itself; the work is done in place to keep to two temporaries.
    ex = np.abs(x, out=work)
    np.negative(ex, out=ex)
    np.exp(ex, out=ex)
    out = np.maximum(x >= 0, ex, out=out)
    ex += 1.0
    out /= ex
    return out


def _silu_grad(a: np.ndarray, sig: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g·σ·(1 + a·(1 − σ)), the SiLU VJP, built in one temporary."""
    d = 1.0 - sig
    d *= a
    d += 1.0
    d *= sig
    d *= g
    return d


def silu(a: Tensor) -> Tensor:
    sig = _sigmoid(np.asarray(a.data, dtype=np.float64))
    out = a.data * sig
    return _make(out, "silu", (a,), lambda g: (_silu_grad(a.data, sig, g),))


def _tanh_grad(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The tanh VJP from tanh's output."""
    return g * (1.0 - out * out)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _make(out, "tanh", (a,), lambda g: (_tanh_grad(out, g),))


def absolute(a: Tensor) -> Tensor:
    return _make(np.abs(a.data), "abs", (a,), lambda g: (g * np.sign(a.data),))


def sign(a: Tensor) -> Tensor:
    """Elementwise sign with sign(0) == 0; piecewise constant, zero gradient."""
    return _make(np.sign(a.data), "sign", (a,), lambda g: (np.zeros_like(a.data),))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    out = np.clip(a.data, lo, hi)
    inside = (a.data > lo) & (a.data < hi)
    return _make(out, "clip", (a,), lambda g: (g * inside,))


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    out = a.data.sum(axis=axis)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).astype(np.float64, copy=True),)
        ge = np.expand_dims(g, axis)
        return (np.broadcast_to(ge, a.shape).astype(np.float64, copy=True),)

    return _make(out, "sum", (a,), vjp)


def tmean(a: Tensor, axis: int | None = None) -> Tensor:
    count = a.size if axis is None else a.shape[axis]
    out = a.data.mean(axis=axis)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g / count, a.shape).astype(np.float64, copy=True),)
        ge = np.expand_dims(g / count, axis)
        return (np.broadcast_to(ge, a.shape).astype(np.float64, copy=True),)

    return _make(out, "mean", (a,), vjp)


def broadcast_to(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = np.broadcast_to(a.data, shape).astype(np.float64, copy=True)
    return _make(out, "broadcast", (a,), lambda g: (_unbroadcast(g, a.shape),))


def reshape(a: Tensor, shape) -> Tensor:
    return _make(a.data.reshape(shape), "reshape", (a,), lambda g: (g.reshape(a.shape),))


def concat(parts: Sequence[Tensor], axis: int = 1) -> Tensor:
    parts = tuple(parts)
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=axis))

    return _make(out, "concat", parts, vjp)


# ---------------------------------------------------------------------------
# tape and backward


class Tape:
    """Topologically ordered record of the primitives reachable from a root.

    Every operand precedes its consumer. The order is a deterministic function
    of the graph (depth-first over parent links), so repeated traces of the
    same root coincide.
    """

    __slots__ = ("nodes",)

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "Tape":
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if node.uid in seen:
                continue
            seen.add(node.uid)
            stack.append((node, True))
            for p in node.parents:
                if p.uid not in seen:
                    stack.append((p, False))
        return cls(order)

    def __len__(self) -> int:
        return len(self.nodes)


def backward(
    loss: Tensor,
    params: Iterable[Tensor] | None = None,
    tape: Tape | None = None,
) -> list[np.ndarray]:
    """Gradients of a scalar loss with respect to ``params``.

    Pure given the tape: accumulators are rebuilt on every call and ``.grad``
    attributes are overwritten, never summed across calls. With ``params``
    omitted, every grad-required leaf in the tape receives its ``.grad`` and
    the list is returned in tape order. The returned arrays (and ``.grad``)
    are read-only: they may share memory with one another.
    """
    if loss.data.ndim != 0 and loss.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    if tape is None:
        tape = Tape.trace(loss)
    if not tape.nodes:
        raise ValueError("backward expects a non-empty tape")

    grads: dict[int, np.ndarray] = {loss.uid: np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g = grads.get(node.uid)
        if g is None or node.vjp is None:
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if not parent.requires_grad:
                continue
            acc = grads.get(parent.uid)
            grads[parent.uid] = pg if acc is None else acc + pg

    for node in tape.nodes:
        if node.requires_grad and not node.parents:
            hit = grads.get(node.uid)
            node.grad = hit if hit is not None else np.zeros_like(node.data)

    if params is None:
        return [
            grads.get(n.uid, np.zeros_like(n.data))
            for n in tape.nodes
            if n.requires_grad and not n.parents
        ]
    return [grads.get(p.uid, np.zeros_like(p.data)) if p.requires_grad else np.zeros_like(p.data) for p in params]
