import numpy as np
import pytest

from sakit.autograd import Graph, gradcheck
from sakit.netspec import ShapeError, SpecBuilder
from sakit.optim import SgdState, sgd_step
from sakit.rng import stream


def loss_head(b, cur, channels, classes=3):
    g = b.add("head.gap", "gap", [cur])
    fc = b.add("head.fc", "dense", [g], **{"in": channels, "out": classes})
    b.add("loss", "softmax_xent", [fc])


def relu_only_spec():
    b = SpecBuilder("relu-only")
    b.add("x", "input", c=2, h=1, w=1)
    b.add("r", "relu", ["x"])
    b.add("g", "gap", ["r"])
    b.add("loss", "softmax_xent", ["g"])
    return b.build()


def test_forward_identity_and_relu():
    g = Graph(relu_only_spec(), dtype=np.float64)
    x = np.array([-1.0, 2.0]).reshape(1, 2, 1, 1)
    acts = g.forward(x, labels=np.array([0]), keep=["r", "x"])
    assert acts["r"].reshape(-1).tolist() == [0.0, 2.0]
    # identity through the input node
    assert np.array_equal(acts["x"], x)


def test_zero_conv_relu_chain_outputs_zero():
    b = SpecBuilder("zero")
    b.add("x", "input", c=1, h=4, w=4)
    b.add("c", "conv", ["x"], **{"in": 1, "out": 2, "k": 3, "pad": 1})
    b.add("r", "relu", ["c"])
    loss_head(b, "r", 2)
    g = Graph(b.build(), dtype=np.float64, init=False)  # weights stay zero
    acts = g.forward(stream(0, "z").normal(size=(2, 1, 4, 4)), labels=np.array([0, 1]),
                     keep=["r"])
    assert np.all(acts["r"] == 0)


def test_forward_is_pure():
    b = SpecBuilder("pure")
    b.add("x", "input", c=2, h=6, w=6)
    b.add("c", "conv", ["x"], **{"in": 2, "out": 3, "k": 3, "pad": 1})
    b.add("p", "maxpool", ["c"], k=2, stride=2)
    loss_head(b, "p", 3)
    g = Graph(b.build(), seed=7)
    x = stream(1, "pure").normal(size=(2, 2, 6, 6)).astype(np.float32)
    every = [n.name for n in g.spec.nodes]
    y1 = g.forward(x, labels=np.array([0, 1]), mode="infer", keep=every)
    out1 = {k: v.copy() for k, v in y1.items()}
    assert set(out1) == set(every)
    y2 = g.forward(x, labels=np.array([0, 1]), mode="infer", keep=every)
    for k in out1:
        assert np.array_equal(out1[k], y2[k]), k


def test_input_shape_checked():
    g = Graph(relu_only_spec())
    with pytest.raises(ShapeError, match="expects"):
        g.forward(np.zeros((1, 3, 1, 1)))


def test_backward_requires_scalar_loss_and_forward():
    g = Graph(relu_only_spec(), dtype=np.float64)
    with pytest.raises(RuntimeError, match="before forward"):
        g.backward()


def test_unused_parameters_get_zero_gradients():
    # the projection shortcut is bypassed when the residual path saturates,
    # easiest honest case: a second dense head never feeding the loss is not
    # constructible (DAG must reach loss), so park an SA-style dead branch
    b = SpecBuilder("dead")
    b.add("x", "input", c=1, h=2, w=2)
    b.add("c1", "conv", ["x"], **{"in": 1, "out": 1, "k": 1})
    b.add("c2", "conv", ["x"], **{"in": 1, "out": 1, "k": 1})  # never consumed
    loss_head(b, "c1", 1, classes=2)
    g = Graph(b.build(), dtype=np.float64, seed=0)
    g.forward(np.ones((1, 1, 2, 2)), labels=np.array([0]))
    grads = g.backward()
    assert np.all(grads["c2.weight"] == 0)
    assert not np.all(grads["c1.weight"] == 0)


def test_backward_linearity_over_batches():
    # mean loss over a concatenated batch == sample-weighted mean of grads;
    # holds for batch-decoupled graphs (no batchnorm)
    b = SpecBuilder("lin")
    b.add("x", "input", c=2, h=4, w=4)
    b.add("c", "conv", ["x"], **{"in": 2, "out": 3, "k": 3, "pad": 1})
    b.add("r", "relu", ["c"])
    b.add("p", "avgpool", ["r"], k=2, stride=2)
    loss_head(b, "p", 3)
    g = Graph(b.build(), dtype=np.float64, seed=3)
    rng = stream(2, "lin")
    xa = rng.normal(size=(2, 2, 4, 4))
    xb = rng.normal(size=(3, 2, 4, 4))
    ya = rng.integers(0, 3, size=2)
    yb = rng.integers(0, 3, size=3)
    g.forward(xa, ya)
    ga = g.backward()
    g.forward(xb, yb)
    gb = g.backward()
    g.forward(np.concatenate([xa, xb]), np.concatenate([ya, yb]))
    gab = g.backward()
    for name in gab:
        combo = (2 * ga[name] + 3 * gb[name]) / 5
        assert np.allclose(gab[name], combo, atol=1e-12), name


def test_sgd_examples():
    p = {"w": np.array([1.0])}
    st = SgdState(learning_rate=1.0)
    sgd_step(st, p, {"w": np.array([0.5])})
    assert p["w"][0] == 0.5

    p = {"w": np.array([3.0])}
    st = SgdState(learning_rate=0.0, momentum=0.5, weight_decay=0.1)
    sgd_step(st, p, {"w": np.array([123.0])})
    assert p["w"][0] == 3.0

    # two-step momentum recurrence: v1=1, p1=-0.1; v2=1.9, p2=-0.29
    p = {"w": np.array([0.0])}
    st = SgdState(learning_rate=0.1, momentum=0.9)
    sgd_step(st, p, {"w": np.array([1.0])})
    sgd_step(st, p, {"w": np.array([1.0])})
    assert np.isclose(p["w"][0], -0.29)


def test_sgd_weight_decay_and_exemption():
    p = {"w": np.array([2.0]), "bn.gamma": np.array([2.0])}
    st = SgdState(learning_rate=1.0, weight_decay=0.5)
    sgd_step(st, p, {"w": np.array([0.0]), "bn.gamma": np.array([0.0])})
    assert p["w"][0] == 1.0          # decayed
    assert p["bn.gamma"][0] == 1.0   # batchnorm scales are decayed too


def test_sgd_validation():
    with pytest.raises(ValueError):
        SgdState(learning_rate=-1)
    with pytest.raises(ValueError):
        SgdState(learning_rate=0.1, momentum=1.0)
    st = SgdState(learning_rate=0.1)
    with pytest.raises(ValueError, match="shape"):
        sgd_step(st, {"w": np.zeros(2)}, {"w": np.zeros(3)})


def test_gradcheck_three_layer_net_vs_finite_differences():
    b = SpecBuilder("three")
    b.add("x", "input", c=2, h=6, w=6)
    b.add("c1", "conv", ["x"], **{"in": 2, "out": 4, "k": 3, "pad": 1})
    b.add("bn", "batchnorm", ["c1"], c=4)
    b.add("r1", "relu", ["bn"])
    b.add("c2", "conv", ["r1"], **{"in": 4, "out": 3, "k": 1})
    loss_head(b, "c2", 3)
    g = Graph(b.build(), dtype=np.float64, seed=11)
    rng = stream(11, "fd")
    x = rng.uniform(-1, 1, size=(2, 2, 6, 6))
    rep = gradcheck(g, x, rng.integers(0, 3, size=2), max_entries=25, seed=11)
    assert rep.ok, [(e.param, e.max_rel_err) for e in rep.entries if not e.ok]
    assert rep.max_rel_err < 1e-5


def test_gradcheck_zero_parameter_graph():
    b = SpecBuilder("nop")
    b.add("x", "input", c=4, h=2, w=2)
    b.add("g", "gap", ["x"])
    b.add("loss", "softmax_xent", ["g"])
    g = Graph(b.build(), dtype=np.float64)
    x = stream(0, "zp").uniform(-1, 1, size=(2, 4, 2, 2))
    rep = gradcheck(g, x, np.array([0, 3]))
    assert [e.param for e in rep.entries] == ["(input)"]
    assert rep.ok


def test_gradcheck_detects_corrupted_backward(monkeypatch):
    from sakit import ops
    orig = ops.conv2d_backward

    def corrupted(dy, w, cache):
        dx, dw = orig(dy, w, cache)
        return dx, dw * 1.01

    monkeypatch.setattr(ops, "conv2d_backward", corrupted)
    b = SpecBuilder("bad")
    b.add("x", "input", c=1, h=4, w=4)
    b.add("c", "conv", ["x"], **{"in": 1, "out": 2, "k": 3, "pad": 1})
    loss_head(b, "c", 2)
    g = Graph(b.build(), dtype=np.float64, seed=5)
    x = stream(5, "neg").uniform(-1, 1, size=(1, 1, 4, 4))
    rep = gradcheck(g, x, np.array([1]))
    assert not rep.ok


def test_gradcheck_requires_f64():
    g = Graph(relu_only_spec(), dtype=np.float32)
    with pytest.raises(ValueError, match="float64"):
        gradcheck(g, np.zeros((1, 2, 1, 1)), np.array([0]))
