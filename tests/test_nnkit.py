"""Autodiff engine, MLP and Adam checked against independent oracles:

- central finite differences for every primitive's backward rule;
- a straight-line numpy re-implementation of the MLP forward, and the chain
  of per-layer tape nodes for its gradients;
- a scalar recurrence re-implementation of Adam;
- a read-only upstream gradient for every VJP, which none may write into.
"""

import re
import threading
from pathlib import Path

import numpy as np
import pytest

from simdistill import kernels
from simdistill.nnkit import Adam, MlpNet, Tape, Tensor, backward
from simdistill.nnkit import net as net_mod
from simdistill.nnkit import tensor as T
from simdistill.oracles import gmm_score_graph, ring_gmm

REL_TOL = 1e-6
FLOOR = 1e-4


def rel_err(a, b):
    return np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b), np.full_like(np.asarray(a, dtype=float), FLOOR)])


def fd_grad(f, x, h=1e-6):
    """Central finite-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def check_unary(op, x, h=1e-6):
    xt = Tensor(x, requires_grad=True)
    out = op(xt)
    w = WEIGHT[: out.size].reshape(out.shape)
    loss = T.tsum(T.mul(out, Tensor(w)))
    (g,) = backward(loss, [xt])

    def scalar(xv):
        return float(np.sum(op(Tensor(xv)).data * w))

    assert rel_err(g, fd_grad(scalar, x, h)).max() < REL_TOL


# fixed per-element weights make the scalarized losses sensitive to every output
WEIGHT = np.linspace(0.3, 1.7, 64)


@pytest.mark.parametrize(
    "op,x",
    [
        (T.square, np.array([[0.5, -1.2], [2.0, 0.3]])),
        (T.sqrt, np.array([[0.5, 1.2], [2.0, 0.3]])),
        (T.exp, np.array([[0.5, -1.2], [1.0, 0.3]])),
        (T.log, np.array([[0.5, 1.2], [2.0, 0.3]])),
        (lambda a: T.powi(a, 3), np.array([[0.5, -1.2], [2.0, 0.3]])),
        (T.relu, np.array([[0.5, -1.2], [2.0, 0.3]])),
        (T.silu, np.array([[0.5, -1.2], [2.0, 0.3]])),
        (T.tanh, np.array([[0.5, -1.2], [2.0, 0.3]])),
        (T.absolute, np.array([[0.5, -1.2], [2.0, 0.3]])),
        (T.neg, np.array([[0.5, -1.2], [2.0, 0.3]])),
        (lambda a: T.clip(a, -1.0, 1.0), np.array([[0.5, -1.2], [2.0, 0.3]])),
        (lambda a: T.reshape(a, (4, 1)), np.array([[0.5, -1.2], [2.0, 0.3]])),
        (lambda a: T.broadcast_to(a, (3, 2)), np.array([[0.5, -1.2]])),
        (lambda a: T.tsum(a, axis=0), np.array([[0.5, -1.2], [2.0, 0.3]])),
        (lambda a: T.tsum(a, axis=1), np.array([[0.5, -1.2], [2.0, 0.3]])),
        (lambda a: T.tmean(a, axis=0), np.array([[0.5, -1.2], [2.0, 0.3]])),
    ],
)
def test_unary_backward_matches_fd(op, x):
    check_unary(op, x)


@pytest.mark.parametrize(
    "op",
    [T.add, T.sub, T.mul, T.div],
)
def test_binary_backward_matches_fd_with_broadcast(op):
    rng = np.random.default_rng(7)
    a = rng.uniform(0.5, 2.0, size=(3, 4))
    b = rng.uniform(0.5, 2.0, size=(1, 4))  # exercises the broadcast-sum path
    w = WEIGHT[:12].reshape(3, 4)
    for idx, shapes in enumerate([(a, b), (b, a)]):
        xa, xb = shapes
        ta, tb = Tensor(xa, requires_grad=True), Tensor(xb, requires_grad=True)
        loss = T.tsum(T.mul(op(ta, tb), Tensor(w)))
        ga, gb = backward(loss, [ta, tb])

        def fa(v):
            return float(np.sum(op(Tensor(v), Tensor(xb)).data * w))

        def fb(v):
            return float(np.sum(op(Tensor(xa), Tensor(v)).data * w))

        assert rel_err(ga, fd_grad(fa, xa)).max() < REL_TOL
        assert rel_err(gb, fd_grad(fb, xb)).max() < REL_TOL


def test_matmul_backward_matches_fd():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    w = WEIGHT[:6].reshape(3, 2)
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    loss = T.tsum(T.mul(T.matmul(ta, tb), Tensor(w)))
    ga, gb = backward(loss, [ta, tb])
    fa = lambda v: float(np.sum((v @ b) * w))
    fb = lambda v: float(np.sum((a @ v) * w))
    assert rel_err(ga, fd_grad(fa, a)).max() < REL_TOL
    assert rel_err(gb, fd_grad(fb, b)).max() < REL_TOL


def test_concat_backward_splits_gradient():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    w = np.arange(10.0).reshape(2, 5)
    loss = T.tsum(T.mul(T.concat([a, b], axis=1), Tensor(w)))
    ga, gb = backward(loss, [a, b])
    assert np.array_equal(ga, w[:, :2])
    assert np.array_equal(gb, w[:, 2:])


def test_kink_conventions_use_zero_subgradient():
    x = Tensor(np.array([0.0, -1.0, 1.0, 2.0]), requires_grad=True)
    for op, expected in [
        (T.relu, [0.0, 0.0, 1.0, 1.0]),
        (T.absolute, [0.0, -1.0, 1.0, 1.0]),
        (T.sign, [0.0, 0.0, 0.0, 0.0]),
        (lambda a: T.clip(a, -1.0, 1.0), [1.0, 0.0, 0.0, 0.0]),  # boundary blocks gradient
    ]:
        (g,) = backward(T.tsum(op(x)), [x])
        assert np.array_equal(g, np.array(expected)), op


def test_sign_of_zero_is_zero():
    assert T.sign(Tensor(np.array([0.0, -0.0, 3.0, -2.0]))).data.tolist() == [0.0, 0.0, 1.0, -1.0]


def test_detach_cuts_gradient_flow():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = T.mul(x, x.detach())  # d/dx (x * c) with c = value of x
    (g,) = backward(T.tsum(y), [x])
    assert np.array_equal(g, np.array([2.0]))


def test_backward_rejects_non_scalar_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        backward(T.mul(x, x), [x])


def test_matmul_rejects_non_2d():
    with pytest.raises(ValueError, match="2-D"):
        T.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


def test_backward_replay_is_bit_identical():
    rng = np.random.default_rng(5)
    net = MlpNet([2, 16, 16, 2], seed=9, conditioning="concat-log-t")
    x = Tensor(rng.normal(size=(8, 2)), requires_grad=True)
    loss = T.tmean(T.square(net(x, 0.5)))
    tape = Tape.trace(loss)
    first = backward(loss, net.parameters(), tape=tape)
    second = backward(loss, net.parameters(), tape=tape)
    for g1, g2 in zip(first, second):
        assert np.array_equal(g1, g2)


def test_backward_does_not_leak_grads_across_graphs():
    p = Tensor(np.array([3.0]), requires_grad=True)
    q = Tensor(np.array([4.0]), requires_grad=True)
    backward(T.tsum(T.square(p)), [p])  # touches only p
    gp, gq = backward(T.tsum(T.square(p)), [p, q])
    assert np.array_equal(gq, np.zeros(1))  # q untouched by this tape


def test_grad_accumulates_within_one_graph():
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = T.add(T.square(x), T.mul(x, Tensor(np.array([5.0]))))  # x^2 + 5x
    (g,) = backward(T.tsum(y), [x])
    assert np.allclose(g, [11.0])


def _vjp_cases():
    rng = np.random.default_rng(21)

    def leaf(*shape):
        return Tensor(rng.uniform(0.5, 2.0, size=shape), requires_grad=True)

    a, b, row, m = leaf(3, 4), leaf(3, 4), leaf(1, 4), leaf(4, 2)
    return [
        T.add(a, row),
        T.sub(a, row),
        T.neg(a),
        T.mul(a, b),
        T.div(a, row),
        T.matmul(a, m),
        T.square(a),
        T.sqrt(a),
        T.exp(a),
        T.log(a),
        T.powi(a, 3),
        T.relu(T.sub(a, b)),
        T.silu(T.sub(a, b)),
        T.tanh(a),
        T.absolute(T.sub(a, b)),
        T.sign(a),
        T.clip(a, 0.8, 1.5),
        T.tsum(a),
        T.tsum(a, axis=0),
        T.tmean(a),
        T.tmean(a, axis=1),
        T.broadcast_to(row, (3, 4)),
        T.reshape(a, (4, 3)),
        T.concat([a, b], axis=1),
        gmm_score_graph(ring_gmm(4, 2.0, 0.5), T.reshape(a, (6, 2)), 0.3),
        *(MlpNet([4, 5, 5, 2], activation=act, conditioning="concat-t", seed=0)(a, 0.5) for act in ("relu", "silu", "tanh")),
    ]


def test_vjps_never_write_into_the_upstream_gradient():
    # backward hands a node's first gradient contribution on uncopied, so a
    # VJP that wrote into its g would corrupt the gradient of another node
    cases = _vjp_cases()
    source = Path(T.__file__).read_text(encoding="utf-8")
    builtin = set(re.findall(r'_make\(\s*[^,]+,\s*"(\w+)"', source))
    assert builtin <= {out.op for out in cases}, "a primitive without a VJP case"
    rng = np.random.default_rng(22)
    for out in cases:
        g = rng.normal(size=out.shape)
        before = g.copy()
        g.flags.writeable = False  # an in-place write raises
        out.vjp(g)
        assert np.array_equal(g, before), out.op


# -- MLP ---------------------------------------------------------------------


def straight_line_forward(net, x, t, block=None):
    """Pure-numpy mirror of MlpNet.__call__ for oracle comparison.

    With ``block``, the layer stack runs on each ``block`` rows in turn, the
    row blocks MlpNet's products run on; without, on the whole batch.
    """
    h = np.asarray(x, dtype=np.float64)
    if net.conditioning != "raw":
        col = np.empty((h.shape[0], 1))
        col[:, 0] = t  # a scalar or one time per row
        if net.conditioning == "concat-log-t":
            col = np.log(col)
        h = np.concatenate([h, col], axis=1)
    rows = block or len(h)
    return np.concatenate([_straight_line_layers(net, h[lo : lo + rows]) for lo in range(0, len(h), rows)])


def _straight_line_layers(net, h):
    def stable_sigmoid(z):
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    acts = {
        "relu": lambda z: np.maximum(z, 0.0),
        "silu": lambda z: z * stable_sigmoid(z),
        "tanh": np.tanh,
    }
    f = acts[net.activation]
    for i, (w, b) in enumerate(net.layers):
        h = h @ w.data + b.data
        if i != len(net.layers) - 1:
            h = f(h)
    return h


@pytest.mark.parametrize("conditioning", ["raw", "concat-t", "concat-log-t"])
@pytest.mark.parametrize("activation", ["relu", "silu", "tanh"])
def test_mlp_forward_matches_straight_line_numpy(activation, conditioning):
    net = MlpNet([2, 16, 16, 2], activation=activation, conditioning=conditioning, seed=42)
    x = np.random.default_rng(1).normal(size=(7, 2))
    out = net(x, 0.8) if conditioning != "raw" else net(x)
    ref = straight_line_forward(net, x, 0.8)
    assert np.array_equal(out.data, ref)


@pytest.mark.parametrize("n", [1, 255, 256, 257, 511, 512, 513, 1023, 1024, 1025, 2047, 2048, 10_000])
@pytest.mark.parametrize("per_row_t", [False, True])
@pytest.mark.parametrize("conditioning", ["raw", "concat-t", "concat-log-t"])
@pytest.mark.parametrize("activation", ["relu", "silu", "tanh"])
def test_mlp_predict_is_bit_identical_to_tape_forward(activation, conditioning, per_row_t, n):
    # batch sizes straddle the row blocks and the pool's threshold
    net = MlpNet([2, 64, 64, 2], activation=activation, conditioning=conditioning, seed=8)
    rng = np.random.default_rng(n)
    x = 3.0 * rng.normal(size=(n, 2))
    t = rng.uniform(0.01, 5.0, size=n) if per_row_t else 0.8
    out = net.predict(x, t)
    assert isinstance(out, np.ndarray)
    assert np.array_equal(out, net(x, t).data)
    assert np.array_equal(out, straight_line_forward(net, x, t, block=net_mod._BLOCK_ROWS))
    # whole-batch products differ from the blocks' only in the last bits
    full = straight_line_forward(net, x, t)
    assert np.abs(out - full).max() <= 1e-14 * np.abs(full).max()


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_mlp_forward_bits_do_not_depend_on_the_worker_count(workers, monkeypatch):
    net = MlpNet([2, 64, 64, 2], conditioning="concat-log-t", seed=2)
    rng = np.random.default_rng(10)
    x, t = rng.normal(size=(10_000, 2)), rng.uniform(0.01, 5.0, size=10_000)
    reference = straight_line_forward(net, x, t, block=net_mod._BLOCK_ROWS)
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: workers)
    baseline = threading.active_count()
    assert np.array_equal(net.predict(x, t), reference)
    xt = Tensor(x, requires_grad=True)
    out = net(xt, t)
    assert np.array_equal(out.data, reference)
    assert threading.active_count() == baseline, "pool threads outlived the call"
    # the tape's saved hidden layers, written by the workers, give the
    # gradients a one-worker forward gives
    grads = backward(T.tsum(T.square(out)), [xt, *net.parameters()])
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 1)
    xt1 = Tensor(x, requires_grad=True)
    for g, g1 in zip(grads, backward(T.tsum(T.square(net(xt1, t))), [xt1, *net.parameters()])):
        assert np.array_equal(g, g1)


@pytest.mark.parametrize(
    "widths, n, pooled",
    [([2, 2], 4096, False), ([2, 8, 8, 2], 10_000, False), ([2, 64, 64, 2], 1024, False), ([2, 64, 64, 2], 2048, True)],
)
def test_only_a_call_with_enough_work_makes_a_pool(widths, n, pooled, monkeypatch):
    made = []
    real = kernels.map_blocks
    monkeypatch.setattr(kernels, "map_blocks", lambda *args: made.append(len(args[1])) or real(*args))
    net = MlpNet(widths, seed=3)
    x = np.random.default_rng(n).normal(size=(n, 2))
    out = net.predict(x)
    assert bool(made) is pooled
    assert np.array_equal(out, net(Tensor(x, requires_grad=True)).data)
    assert np.array_equal(out, straight_line_forward(net, x, None, block=net_mod._BLOCK_ROWS))


def _error_message(fn):
    with pytest.raises(ValueError) as exc:
        fn()
    return str(exc.value)


def test_mlp_predict_raises_what_the_tape_forward_raises():
    cond = MlpNet([2, 8, 2], conditioning="concat-t", seed=0)
    broken = MlpNet([2, 8, 2], seed=0)
    broken.layers[1] = (Tensor(np.zeros((5, 2))), Tensor(np.zeros(2)))
    cases = [
        (cond, np.ones(4), 1.0),  # not (batch, features)
        (cond, np.ones((4, 3)), 1.0),  # wrong feature count
        (cond, np.ones((4, 2)), None),  # time missing
        (cond, np.ones((4, 2)), np.ones(3)),  # time rows do not match the batch
        (broken, np.ones((4, 2)), None),  # a layer that does not fit its input
    ]
    messages = []
    for net, x, t in cases:
        msg = _error_message(lambda: net(x, t))
        assert _error_message(lambda: net.predict(x, t)) == msg
        messages.append(msg)
    assert "layer1" in messages[-1]
    assert len(set(messages)) == len(cases)


def test_mlp_forward_records_one_mlp_node_per_call():
    net = MlpNet([2, 16, 16, 16, 2], conditioning="concat-log-t", seed=3)
    tape = Tape.trace(T.tsum(net(np.ones((5, 2)), 0.5)))
    assert [node.op for node in tape.nodes if node.parents] == ["mlp", "sum"]


def _chain_forward(net, x, t):
    """MlpNet.__call__ as the chain of per-layer tape nodes it replaces."""
    h = x
    if net.conditioning != "raw":
        col = np.broadcast_to(np.asarray(t, dtype=np.float64).reshape(-1, 1), (x.shape[0], 1))
        h = T.concat([h, Tensor(np.log(col) if net.conditioning == "concat-log-t" else col)], axis=1)
    act = getattr(T, net.activation)
    for i, (w, b) in enumerate(net.layers):
        h = T.add(T.matmul(h, w), b)
        if i != len(net.layers) - 1:
            h = act(h)
    return h


@pytest.mark.parametrize("conditioning", ["raw", "concat-t", "concat-log-t"])
@pytest.mark.parametrize("activation", ["relu", "silu", "tanh"])
def test_mlp_node_gradients_match_the_layer_chain_to_the_bit(activation, conditioning):
    net = MlpNet([2, 64, 64, 2], activation=activation, conditioning=conditioning, seed=5)
    rng = np.random.default_rng(6)
    x, t = rng.normal(size=(300, 2)), rng.uniform(0.01, 5.0, size=300)
    results = []
    for forward in (net.__call__, lambda xt, tt: _chain_forward(net, xt, tt)):
        xt = Tensor(x, requires_grad=True)
        out = forward(xt, t)
        results.append((out.data, backward(T.tsum(T.silu(out)), [xt, *net.parameters()])))
    (out, grads), (chain_out, chain_grads) = results
    assert np.array_equal(out, chain_out)
    for g, g_chain in zip(grads, chain_grads):
        assert np.array_equal(g, g_chain)


def test_mlp_vjp_returns_none_for_operands_without_grad():
    net = MlpNet([2, 8, 8, 2], conditioning="concat-t", seed=1)
    x = np.random.default_rng(2).normal(size=(4, 2))
    frozen_input = net(x, 0.5)  # parameters only
    pieces = frozen_input.vjp(np.ones_like(frozen_input.data))
    assert pieces[0] is None and all(p.shape == q.shape for p, q in zip(pieces[1:], net.parameters()))
    xt = Tensor(x, requires_grad=True)
    frozen_net = net.detached()(xt, 0.5)  # input only
    pieces = frozen_net.vjp(np.ones_like(frozen_net.data))
    assert pieces[0].shape == x.shape and all(p is None for p in pieces[1:])


@pytest.mark.parametrize("conditioning", ["raw", "concat-t", "concat-log-t"])
@pytest.mark.parametrize("activation", ["relu", "silu", "tanh"])
def test_mlp_node_gradient_matches_fd(activation, conditioning):
    from simdistill.verify import gradcheck_suite

    t = np.linspace(0.2, 3.0, 5)

    def mlp(x, *params):
        net = MlpNet([2, 6, 5, 2], activation=activation, conditioning=conditioning, seed=0)
        net.layers = list(zip(params[0::2], params[1::2]))
        return net(x, t)

    frozen = MlpNet([2, 6, 5, 2], activation=activation, conditioning=conditioning, seed=4).detached()
    shapes = [(5, 2), (2 + (conditioning != "raw"), 6), (6,), (6, 5), (5,), (5, 2), (2,)]
    cases = {
        "mlp": (mlp, [lambda r, s=s: r.standard_normal(s) for s in shapes]),
        "mlp-detached": (lambda x: frozen(x, t), [lambda r: r.standard_normal((5, 2))]),
    }
    reports = {r.name: r for r in gradcheck_suite(seed=3, probes=10, cases=cases)}
    for name in cases:
        assert reports[f"gradcheck-{name}"].verdict == "pass", reports[f"gradcheck-{name}"].detail


def test_mlp_end_to_end_gradient_matches_fd():
    net = MlpNet([2, 8, 2], activation="tanh", conditioning="concat-t", seed=4)
    x = np.random.default_rng(2).normal(size=(5, 2))

    def loss_value():
        return T.tmean(T.square(net(x, 1.3))).item()

    grads = backward(T.tmean(T.square(net(x, 1.3))), net.parameters())
    for (name, p), g in zip(net.named_parameters(), grads):
        flat = p.data.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + 1e-6
            fp = loss_value()
            flat[i] = orig - 1e-6
            fm = loss_value()
            flat[i] = orig
            fd = (fp - fm) / 2e-6
            assert rel_err(np.array(fd), np.array(gf[i])).max() < REL_TOL, name


def test_mlp_zero_final_outputs_zero_at_init():
    net = MlpNet([2, 32, 2], zero_final=True, seed=0)
    out = net(np.random.default_rng(3).normal(size=(6, 2)))
    assert np.array_equal(out.data, np.zeros((6, 2)))


def test_mlp_init_is_seed_deterministic_and_bounded():
    a = MlpNet([2, 16, 2], seed=12)
    b = MlpNet([2, 16, 2], seed=12)
    c = MlpNet([2, 16, 2], seed=13)
    for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert np.array_equal(pa.data, pb.data)
    assert any(
        not np.array_equal(pa.data, pc.data)
        for (_, pa), (_, pc) in zip(a.named_parameters(), c.named_parameters())
    )
    w0 = a.layers[0][0].data
    assert np.abs(w0).max() <= 1.0 / np.sqrt(2.0)


def test_mlp_rejects_bad_shapes_naming_the_layer():
    net = MlpNet([2, 8, 2], seed=0)
    with pytest.raises(ValueError, match="features"):
        net(np.ones((4, 3)))
    with pytest.raises(ValueError, match="batch, features"):
        net(np.ones(4))


def test_mlp_requires_time_when_conditioned():
    net = MlpNet([2, 8, 2], conditioning="concat-t", seed=0)
    with pytest.raises(ValueError, match="time"):
        net(np.ones((4, 2)))


def test_mlp_rejects_widths_below_one():
    for widths in ([2, 0, 2], [2, 8, -1], [0, 2]):
        with pytest.raises(ValueError, match="at least 1"):
            MlpNet(widths)


def test_mlp_rejects_unknown_tags():
    with pytest.raises(ValueError, match="activation"):
        MlpNet([2, 2], activation="gelu")
    with pytest.raises(ValueError, match="conditioning"):
        MlpNet([2, 2], conditioning="film")


def test_mlp_detached_view_shares_storage_and_blocks_param_grads():
    net = MlpNet([2, 8, 2], seed=6)
    frozen = net.detached()
    x = Tensor(np.random.default_rng(4).normal(size=(3, 2)), requires_grad=True)
    loss = T.tmean(T.square(frozen(x)))
    gx, gw = backward(loss, [x, net.layers[0][0]])
    assert np.abs(gx).max() > 0  # input side still differentiates
    assert np.array_equal(gw, np.zeros_like(gw))
    # in-place updates to the source are visible through the view
    net.layers[0][0].data[...] += 1.0
    assert np.array_equal(frozen.layers[0][0].data, net.layers[0][0].data)


def test_mlp_state_dict_round_trip():
    net = MlpNet([2, 8, 2], seed=1)
    state = net.state_dict()
    other = MlpNet([2, 8, 2], seed=99)
    other.load_state_dict(state)
    x = np.random.default_rng(5).normal(size=(4, 2))
    assert np.array_equal(net(x).data, other(x).data)
    with pytest.raises(ValueError, match="state mismatch"):
        other.load_state_dict({"layer0.weight": state["layer0.weight"]})


# -- Adam ---------------------------------------------------------------------


def scalar_adam_reference(grad_fn, w0, lr, beta1, beta2, eps, steps):
    """Independent plain-float Adam recurrence."""
    w, m, v = float(w0), 0.0, 0.0
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        w -= lr * mhat / (np.sqrt(vhat) + eps)
    return w


def test_adam_matches_scalar_recurrence_and_converges_on_quadratic():
    for betas in [(0.0, 0.999), (0.9, 0.999)]:
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([("w", p)], lr=0.1, betas=betas)
        for _ in range(100):
            opt.step([2.0 * p.data])  # d/dw w^2
        ref = scalar_adam_reference(lambda w: 2.0 * w, 1.0, 0.1, betas[0], betas[1], 1e-8, 100)
        assert abs(p.data[0] - ref) < 1e-12
        assert abs(p.data[0]) < 0.05


def test_adam_first_step_with_zero_betas_is_signed_lr():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam([("p", p)], lr=0.1, betas=(0.0, 0.0))
    g = np.array([0.5, -3.0])
    opt.step([g])
    expected = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + 1e-8)
    assert np.allclose(p.data, expected, atol=1e-12)


def test_adam_aborts_on_non_finite_gradient_naming_parameter():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([("layer3.bias", p)], lr=0.1)
    with pytest.raises(FloatingPointError, match="layer3.bias"):
        opt.step([np.array([np.nan])])
    with pytest.raises(FloatingPointError, match="layer3.bias"):
        opt.step([np.array([np.inf])])


def test_adam_state_dict_round_trip_resumes_identically():
    def run(steps_a, steps_b):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        opt = Adam([("p", p)], lr=0.05)
        for i in range(steps_a):
            opt.step([p.data * (i + 1)])
        state, pdata = opt.state_dict(), p.data.copy()
        q = Tensor(pdata.copy(), requires_grad=True)
        opt2 = Adam([("p", q)], lr=0.05)
        opt2.load_state_dict(state)
        for i in range(steps_a, steps_a + steps_b):
            opt.step([p.data * (i + 1)])
            opt2.step([q.data * (i + 1)])
        return p.data, q.data

    a, b = run(7, 5)
    assert np.array_equal(a, b)


def test_adam_validates_inputs():
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ValueError, match="learning rate"):
        Adam([("p", p)], lr=0.0)
    with pytest.raises(ValueError, match="betas"):
        Adam([("p", p)], betas=(1.0, 0.9))
    opt = Adam([("p", p)])
    with pytest.raises(ValueError, match="gradients"):
        opt.step([])
