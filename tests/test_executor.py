"""The executor contract: what one forward keeps, frees and allows after it."""

import tracemalloc

import numpy as np
import pytest

from sakit.autograd import Graph
from sakit.netspec import ShapeError, SpecBuilder
from sakit.optim import SgdState, sgd_step
from sakit.presets import build_cifar_resnet, build_seed
from sakit.rng import stream


@pytest.fixture(scope="module")
def seed_net():
    """A small aggregation network: cifar-n1 seed at scales 1, 2, 4."""
    spec = build_seed(build_cifar_resnet(1, num_classes=10, in_channels=1), [1, 2, 4])
    x = stream(3, "executor").normal(size=(4, 1, 32, 32)).astype(np.float32)
    return Graph(spec, seed=3), x, np.array([0, 1, 2, 3])


def test_inference_returns_logits_loss_and_keep_only(seed_net):
    g, x, y = seed_net
    spec = g.spec
    acts = g.forward(x, labels=y, mode="infer")
    assert set(acts) == {spec.logits_name, spec.loss_name}
    assert all(node.cache is None for node in g.nodes)
    kept = "sa2.sa.x2.conv"
    acts = g.forward(x, labels=y, mode="infer", keep=[kept, "x"])
    assert set(acts) == {spec.logits_name, spec.loss_name, kept, "x"}
    assert all(node.cache is None for node in g.nodes)
    # the loss node runs only when labels are given
    assert set(g.forward(x, mode="infer")) == {spec.logits_name}


def test_inference_logits_match_keep_everything_bitwise(seed_net):
    g, x, y = seed_net
    every = [n.name for n in g.spec.nodes]
    lean = g.forward(x, labels=y, mode="infer")[g.spec.logits_name].copy()
    full = g.forward(x, labels=y, mode="infer", keep=every)
    assert set(full) == set(every)
    assert lean.tobytes() == full[g.spec.logits_name].tobytes()


def test_unknown_keep_name_rejected(seed_net):
    g, x, y = seed_net
    with pytest.raises(ValueError, match="no-such-node"):
        g.forward(x, labels=y, mode="infer", keep=["no-such-node"])


def test_kernel_errors_are_shape_errors_in_both_modes(seed_net):
    g, x, _ = seed_net
    for mode in ("train", "infer"):
        with pytest.raises(ShapeError, match="'loss'.*label out of range"):
            g.forward(x, labels=np.array([0, 1, 2, 99]), mode=mode)
        # a batch of 4 images: labels that would broadcast, index past the
        # batch, are not integers or are missing
        for labels, got in [([1], r"int64 of shape \(1,\)"),
                            ([[0], [1], [2], [3]], r"shape \(4, 1\)"),
                            ([0, 1, 2], r"shape \(3,\)"),
                            ([0.0, 1.0, 2.0, 3.0], "float64"),
                            ([], r"shape \(0,\)")]:
            with pytest.raises(ShapeError, match=r"'loss'.*shape \(4,\), got .*" + got):
                g.forward(x, labels=labels, mode=mode)
        # an empty batch fails at the input, with labels or without
        for labels in (None, []):
            with pytest.raises(ShapeError, match=r"'x'.*N >= 1, got \(0, 1, 32, 32\)"):
                g.forward(x[:0], labels=labels, mode=mode)


def test_backward_needs_a_fresh_training_forward(seed_net):
    g, x, y = seed_net
    g.forward(x, labels=y, mode="infer")
    with pytest.raises(RuntimeError, match="before forward"):
        g.backward()
    g.forward(x, labels=y, mode="train")
    g.backward()
    with pytest.raises(RuntimeError, match="before forward"):
        g.backward()
    g.forward(x, mode="train")  # no labels, so no loss to differentiate
    assert all(node.cache is None for node in g.nodes)  # nothing can read them
    with pytest.raises(RuntimeError, match="before forward"):
        g.backward()


def test_training_frees_unkept_outputs_and_backward_drops_caches(seed_net):
    g, x, y = seed_net
    spec = g.spec
    acts = g.forward(x, labels=y, mode="train")
    assert set(acts) == {spec.logits_name, spec.loss_name}
    assert set(g.forward(x, labels=y, mode="train", keep=["x"])) == {
        spec.logits_name, spec.loss_name, "x"}
    assert any(node.cache is not None for node in g.nodes)
    g.backward()
    assert all(node.cache is None for node in g.nodes)
    # the next forward empties the previous pass's dict, even one a caller holds
    acts = g.forward(x, labels=y, mode="train")
    g.forward(x, labels=y, mode="infer")
    assert acts == {}


def _arrays(obj):
    """The ndarrays in a cache or a list of them, nested tuples and lists
    included."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [a for o in obj for a in _arrays(o)]
    return []


def _owner(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def test_training_caches_hold_activations_not_copies(seed_net):
    """Conv caches hold their input and relu's its output, so a training
    forward retains no patch matrix or mask beside them. Batchnorm caches
    its own xhat in place of its input, which no cache then holds."""
    g, x, y = seed_net
    acts = g.forward(x, labels=y, mode="train", keep=[n.name for n in g.spec.nodes])
    kinds = {"conv", "batchnorm", "relu"}
    checked = [n for n in g.nodes if n.layer.op in kinds]
    assert {n.layer.op for n in checked} == kinds
    cached = _arrays([n.cache for n in g.nodes])
    for node in checked:
        if node.layer.op == "batchnorm":
            xhat, source = node.cache[0], acts[node.layer.inputs[0]]
            assert not any(np.shares_memory(xhat, a) for a in acts.values()), node.name
            assert not any(np.shares_memory(a, source) for a in cached), node.name
            continue
        relu = node.layer.op == "relu"
        held = node.cache if relu else node.cache[0]
        source = acts[node.name] if relu else acts[node.layer.inputs[0]]
        assert np.shares_memory(held, source), node.name
    g.backward()


def test_training_retained_bytes_are_pinned(seed_net):
    """The distinct buffers that the activations and caches hold after a
    lean training forward: the figure of the executor that cached
    batchnorm's input, less the batch means those caches also held."""
    g, x, y = seed_net
    acts = g.forward(x, labels=y, mode="train")
    owners = {id(o): o for o in map(_owner, _arrays([list(acts.values()),
                                                     [n.cache for n in g.nodes]]))}
    means = sum(4 * n.attrs["c"] for n in g.spec.nodes if n.op == "batchnorm")
    assert sum(o.nbytes for o in owners.values()) == 10_101_696 - means
    g.backward()


def test_lean_training_gradients_match_keep_everything_bitwise(seed_net):
    g, x, y = seed_net
    every = [n.name for n in g.spec.nodes]
    runs = []
    for keep in ((), every):
        loss = g.forward(x, labels=y, mode="train", keep=keep)[g.spec.loss_name].copy()
        grads = g.backward()
        runs.append((loss.tobytes(), g.input_grad.tobytes(),
                     {p: v.tobytes() for p, v in grads.items()}))
    assert runs[0] == runs[1]


def test_skipping_the_input_gradient_changes_nothing_else(seed_net):
    """A training step whose backward skips the network input's gradient
    leaves the gradients, parameters and running stats of one that does not,
    byte for byte, and no ``input_grad``."""
    spec, x, y = seed_net[0].spec, seed_net[1], seed_net[2]
    runs = []
    for input_grad in (True, False):
        g = Graph(spec, seed=3)
        g.forward(x, labels=y, mode="train")
        grads = g.backward(input_grad=input_grad)
        assert (g.input_grad is None) != input_grad
        sgd_step(SgdState(0.05, momentum=0.9, weight_decay=1e-4), g.params, grads)
        runs.append([{k: v.tobytes() for k, v in d.items()} for d in (grads, g.params, g.state)])
    assert runs[0] == runs[1]


def test_training_retains_well_under_keep_everything(seed_net):
    """After a training forward only the arrays some backward cache reads
    stay alive, not every node output."""
    g, x, y = seed_net
    every = [n.name for n in g.spec.nodes]
    total = sum(a.nbytes for a in g.forward(x, labels=y, mode="train", keep=every).values())
    g.backward()
    g.forward(x, labels=y, mode="infer")  # drop the kept outputs before tracing
    tracemalloc.start()
    try:
        g.forward(x, labels=y, mode="train")
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    g.backward()
    assert retained < 0.7 * total, (retained, total)


def test_inference_peak_memory_is_well_under_keep_everything(seed_net):
    g, x, y = seed_net
    every = [n.name for n in g.spec.nodes]
    total = sum(a.nbytes for a in g.forward(x, labels=y, mode="infer", keep=every).values())
    g.forward(x, labels=y, mode="infer")  # drop the kept outputs before tracing
    tracemalloc.start()
    try:
        g.forward(x, labels=y, mode="infer")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * total, (peak, total)


@pytest.mark.parametrize("reader", ["relu", "add"])
def test_the_callers_input_is_never_written(reader):
    """A relu or an add that is the input's last reader still leaves the
    caller's array alone, though ``forward`` passes a contiguous input
    through uncopied."""
    b = SpecBuilder("reads-input")
    b.add("x", "input", c=2, h=3, w=3)
    if reader == "add":  # p has the shape of x
        b.add("p", "resize", ["x"], h=3, w=3)
    b.add("r", reader, ["x", "p"] if reader == "add" else ["x"])
    b.add("g", "gap", ["r"])
    b.add("fc", "dense", ["g"], **{"in": 2, "out": 2})
    b.add("loss", "softmax_xent", ["fc"])
    g = Graph(b.build(), seed=1)
    x = stream(3, "caller").normal(size=(2, 2, 3, 3)).astype(np.float32)
    before = x.tobytes()
    for mode in ("train", "infer"):
        g.forward(x, labels=np.array([0, 1]), mode=mode)
        assert x.tobytes() == before, mode


def test_a_kept_batchnorm_output_is_not_overwritten(seed_net):
    """The relu after a batchnorm writes into its input in inference, unless
    the caller keeps that input."""
    g, x, y = seed_net
    relu = next(n for n, into in zip(g.spec.nodes, g._writes_into)
                if into is not None and n.op == "relu")
    bn_name = relu.inputs[0]
    assert g.spec.node(bn_name).op == "batchnorm"
    every = [n.name for n in g.spec.nodes]
    full = g.forward(x, labels=y, mode="infer", keep=every)[bn_name]
    assert (full < 0).any()  # not the relu's output
    full = full.tobytes()
    assert g.forward(x, labels=y, mode="infer", keep=[bn_name])[bn_name].tobytes() == full
