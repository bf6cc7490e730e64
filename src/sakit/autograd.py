"""Reverse-mode autodiff over a static graph built from a NetworkSpec.

The graph owns named parameter and state arrays. One forward loop serves
both modes and frees each output after its last reader (found once from the
spec), so it returns only the logits, the loss and the names asked for in
``keep``. A training forward also stores the node caches, which are all that
backward reads and which hold arrays, not copies: conv, batchnorm and dense
keep their input, relu its output, softmax its probabilities. Backward frees
each cache after use; each forward first releases the previous pass. One
thread and no hidden randomness: identical weights, inputs and mode flags
give bitwise-identical outputs.
"""

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .netspec import NetworkSpec, ShapeError, propagate_shapes
from .rng import stream


class Node:
    """Runtime half of one LayerSpec: kernels plus the last training pass's cache."""

    def __init__(self, layer):
        self.layer = layer
        self.name = layer.name
        self.cache = None

    def param_shapes(self):
        return {}

    def state_shapes(self):
        return {}

    def init_params(self, params, rng_for):
        pass

    def forward(self, xs, params, state, training):
        """Return (output, backward cache)."""
        raise NotImplementedError

    def backward(self, dy, params):
        """Return (grads w.r.t. inputs, grads w.r.t. own params)."""
        raise NotImplementedError


class InputNode(Node):
    def forward(self, xs, params, state, training):
        return xs[0], None

    def backward(self, dy, params):
        return [dy], {}


class ConvNode(Node):
    def __init__(self, layer):
        super().__init__(layer)
        a = layer.attrs
        self.k = a["k"]
        self.stride, self.dilation = layer.get("stride"), layer.get("dilation")
        self.pad = layer.get("pad")
        self.cin, self.cout = a["in"], a["out"]
        self.has_bias = bool(layer.get("bias"))
        self.wname = f"{self.name}.weight"
        self.bname = f"{self.name}.bias"

    def param_shapes(self):
        shapes = {self.wname: (self.cout, self.cin, self.k, self.k)}
        if self.has_bias:
            shapes[self.bname] = (self.cout,)
        return shapes

    def init_params(self, params, rng_for):
        fan_in = self.cin * self.k * self.k
        std = np.sqrt(2.0 / fan_in)
        w = params[self.wname]
        w[...] = rng_for(self.wname).normal(0.0, std, size=w.shape)
        if self.has_bias:
            params[self.bname][...] = 0.0

    def forward(self, xs, params, state, training):
        y, cache = ops.conv2d_forward(
            xs[0], params[self.wname], self.stride, self.dilation, self.pad)
        if self.has_bias:
            y += params[self.bname][None, :, None, None]
        return y, cache

    def backward(self, dy, params):
        dx, dw = ops.conv2d_backward(dy, params[self.wname], self.cache)
        grads = {self.wname: dw}
        if self.has_bias:
            grads[self.bname] = dy.sum(axis=(0, 2, 3))
        return [dx], grads


class PoolNode(Node):
    def __init__(self, layer):
        super().__init__(layer)
        self.kind = layer.op
        self.k, self.stride = layer.attrs["k"], layer.attrs["stride"]
        self.pad, self.ceil = layer.get("pad"), bool(layer.get("ceil"))

    def forward(self, xs, params, state, training):
        if self.kind == "maxpool":
            return ops.maxpool2d_forward(xs[0], self.k, self.stride, self.pad, self.ceil)
        return ops.avgpool2d_forward(xs[0], self.k, self.stride, self.pad, self.ceil)

    def backward(self, dy, params):
        fn = ops.maxpool2d_backward if self.kind == "maxpool" else ops.avgpool2d_backward
        return [fn(dy, self.cache)], {}


class ResizeNode(Node):
    def forward(self, xs, params, state, training):
        return ops.resize_nearest_forward(xs[0], self.layer.attrs["h"], self.layer.attrs["w"])

    def backward(self, dy, params):
        return [ops.resize_nearest_backward(dy, self.cache)], {}


class BatchNormNode(Node):
    def __init__(self, layer):
        super().__init__(layer)
        self.c = layer.attrs["c"]
        self.gname = f"{self.name}.gamma"
        self.bname = f"{self.name}.beta"
        self.mname = f"{self.name}.running_mean"
        self.vname = f"{self.name}.running_var"

    def param_shapes(self):
        return {self.gname: (self.c,), self.bname: (self.c,)}

    def state_shapes(self):
        return {self.mname: (self.c,), self.vname: (self.c,)}

    def init_params(self, params, rng_for):
        params[self.gname][...] = 1.0
        params[self.bname][...] = 0.0

    def forward(self, xs, params, state, training):
        y, cache, new_mean, new_var = ops.batchnorm2d_forward(
            xs[0], params[self.gname], params[self.bname],
            state[self.mname], state[self.vname], training=training)
        # inference returns the running stats themselves, so this keeps them
        state[self.mname], state[self.vname] = new_mean, new_var
        return y, cache

    def backward(self, dy, params):
        dx, dgamma, dbeta = ops.batchnorm2d_backward(dy, self.cache)
        return [dx], {self.gname: dgamma, self.bname: dbeta}


class ReluNode(Node):
    def forward(self, xs, params, state, training):
        return ops.relu_forward(xs[0])

    def backward(self, dy, params):
        return [ops.relu_backward(dy, self.cache)], {}


class AddNode(Node):
    def forward(self, xs, params, state, training):
        return ops.add_forward(xs[0], xs[1]), None

    def backward(self, dy, params):
        return [dy, dy], {}


class ConcatNode(Node):
    def forward(self, xs, params, state, training):
        return ops.concat_channels_forward(xs)

    def backward(self, dy, params):
        return ops.concat_channels_backward(dy, self.cache), {}


class GapNode(Node):
    def forward(self, xs, params, state, training):
        return ops.global_avg_pool_forward(xs[0])

    def backward(self, dy, params):
        return [ops.global_avg_pool_backward(dy, self.cache)], {}


class DenseNode(Node):
    def __init__(self, layer):
        super().__init__(layer)
        self.cin, self.cout = layer.attrs["in"], layer.attrs["out"]
        self.wname = f"{self.name}.weight"
        self.bname = f"{self.name}.bias"

    def param_shapes(self):
        return {self.wname: (self.cin, self.cout), self.bname: (self.cout,)}

    def init_params(self, params, rng_for):
        std = np.sqrt(2.0 / self.cin)
        w = params[self.wname]
        w[...] = rng_for(self.wname).normal(0.0, std, size=w.shape)
        params[self.bname][...] = 0.0

    def forward(self, xs, params, state, training):
        return ops.dense_forward(xs[0], params[self.wname], params[self.bname])

    def backward(self, dy, params):
        dx, dw, db = ops.dense_backward(dy, params[self.wname], self.cache)
        return [dx], {self.wname: dw, self.bname: db}


class SoftmaxXentNode(Node):
    labels = None  # set by Graph.forward

    def forward(self, xs, params, state, training):
        return ops.softmax_cross_entropy_forward(xs[0], self.labels)

    def backward(self, dy, params):
        return [ops.softmax_cross_entropy_backward(dy, self.cache)], {}


_NODE_TYPES = {
    "input": InputNode,
    "conv": ConvNode,
    "maxpool": PoolNode,
    "avgpool": PoolNode,
    "resize": ResizeNode,
    "batchnorm": BatchNormNode,
    "relu": ReluNode,
    "add": AddNode,
    "concat": ConcatNode,
    "gap": GapNode,
    "dense": DenseNode,
    "softmax_xent": SoftmaxXentNode,
}


class Graph:
    """Executable network: ordered nodes, named parameters, named state."""

    def __init__(self, spec: NetworkSpec, dtype=np.float32, seed=0, init=True):
        self.spec = spec
        self.dtype = np.dtype(dtype)
        propagate_shapes(spec)
        self.nodes = [_NODE_TYPES[layer.op](layer) for layer in spec.nodes]
        self.params = {}
        self.state = {}
        for node in self.nodes:
            for pname, shape in node.param_shapes().items():
                self.params[pname] = np.zeros(shape, dtype=self.dtype)
            for sname, shape in node.state_shapes().items():
                init_val = 1.0 if sname.endswith("running_var") else 0.0
                self.state[sname] = np.full(shape, init_val, dtype=self.dtype)
        if init:
            self.init_params(seed)
        # liveness: an output dies after its last reader (at once if none
        # reads it), except the logits and the loss of a spec that has them
        outputs = {n for layer in spec.nodes if layer.op == "softmax_xent"
                   for n in (layer.name, layer.inputs[0])}
        last = {n: i for i, layer in enumerate(spec.nodes) for n in (layer.name, *layer.inputs)}
        self._dead_after = [[] for _ in self.nodes]
        for name, i in last.items():
            if name not in outputs:
                self._dead_after[i].append(name)
        self.activations = None
        self._backward_ready = False

    def init_params(self, seed):
        def rng_for(pname):
            return stream(seed, "init", pname)
        for node in self.nodes:
            node.init_params(self.params, rng_for)

    def forward(self, x, labels=None, mode="train", keep=()):
        """Run every node (the loss node only when ``labels`` are given).

        Both modes return the logits, the loss (of a spec that has them) and
        the node names in ``keep``, and free every other output after its
        last reader; training also stores the caches backward reads. The
        next forward empties the returned dict: copy what must outlive it.
        """
        if mode not in ("train", "infer"):
            raise ValueError(f"unknown mode '{mode}'")
        training = mode == "train"
        keep = frozenset(keep)
        unknown = sorted(n for n in keep if n not in self.spec)
        if unknown:
            raise ValueError(f"keep names unknown nodes {unknown}")
        # release the previous pass, also from a dict a caller still holds
        if self.activations is not None:
            self.activations.clear()
        for node in self.nodes:
            node.cache = None
        self._backward_ready = False
        x = np.ascontiguousarray(x, dtype=self.dtype)
        c, h, w = self.spec.input_shape
        if x.ndim != 4 or x.shape[1:] != (c, h, w):
            raise ShapeError(self.spec.input_name,
                             f"expects (N,{c},{h},{w}) input, got {x.shape}")
        acts = self.activations = {}
        for node, dead in zip(self.nodes, self._dead_after):
            if isinstance(node, SoftmaxXentNode):
                if labels is None:
                    continue
                node.labels = labels
            xs = [acts[i] for i in node.layer.inputs] if node.layer.inputs else [x]
            try:
                acts[node.name], node.cache = node.forward(xs, self.params, self.state, training)
            except ValueError as e:
                raise ShapeError(node.name, str(e)) from e
            if not training:
                node.cache = None
            for name in dead:
                if name not in keep:
                    del acts[name]
        self._backward_ready = training and labels is not None
        return acts

    def backward(self):
        """Gradients of the scalar loss for every parameter (zeros if unused);
        one backward per training forward with labels."""
        if not self._backward_ready:
            raise RuntimeError("backward before forward: each backward needs "
                               "its own training-mode forward with labels")
        self._backward_ready = False
        grads = {p: np.zeros_like(v) for p, v in self.params.items()}
        flowing = {self.spec.loss_name: np.asarray(1.0, dtype=self.dtype)}
        self.input_grad = None
        for node in reversed(self.nodes):
            dy = flowing.pop(node.name, None)
            if dy is not None:
                dxs, dparams = node.backward(dy, self.params)
                if isinstance(node, InputNode):
                    self.input_grad = dxs[0]
                for pname, g in dparams.items():
                    grads[pname] += g
                for in_name, dx in zip(node.layer.inputs, dxs):
                    flowing[in_name] = flowing[in_name] + dx if in_name in flowing else dx
            node.cache = None
        return grads


@dataclass
class GradcheckEntry:
    param: str
    max_rel_err: float
    ok: bool


@dataclass
class GradcheckReport:
    tolerance: float
    entries: list = field(default_factory=list)

    @property
    def ok(self):
        return all(e.ok for e in self.entries)

    @property
    def max_rel_err(self):
        return max((e.max_rel_err for e in self.entries), default=0.0)


def gradcheck(graph: Graph, x, labels=None, tolerance=1e-5,
              max_entries=None, seed=0) -> GradcheckReport:
    """Compare analytic gradients against central finite differences with
    step 1e-4.

    Requires an f64 graph. Every parameter is probed, plus the network input
    itself as ``(input)`` (so parameter-free ops are covered).
    The per-tensor error is the largest entrywise |analytic - numeric|
    scaled by max(1, ||numeric||_inf). Non-finite analytic gradients fail
    immediately with the offending tensor named.
    """
    if graph.dtype != np.float64:
        raise ValueError("gradcheck requires a float64 graph")
    x = np.array(x, dtype=np.float64)
    loss_name = graph.spec.loss_name
    h = 1e-4

    def loss_at():
        return float(graph.forward(x, labels, mode="train")[loss_name])

    loss_at()
    grads = dict(graph.backward())
    targets = {pname: (graph.params[pname], grads[pname])
               for pname in sorted(graph.params)}
    targets["(input)"] = (x, graph.input_grad)
    report = GradcheckReport(tolerance)
    for tname, (buf, analytic) in targets.items():
        if analytic is None or not np.all(np.isfinite(analytic)):
            report.entries.append(GradcheckEntry(tname, float("inf"), False))
            continue
        flat = buf.reshape(-1)
        idxs = np.arange(flat.size)
        if max_entries is not None and flat.size > max_entries:
            idxs = stream(seed, "gradcheck", tname).choice(
                flat.size, size=max_entries, replace=False)
        numeric = np.zeros(len(idxs))
        for j, i in enumerate(idxs):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_at()
            flat[i] = orig - h
            down = loss_at()
            flat[i] = orig
            numeric[j] = (up - down) / (2 * h)
        ana = analytic.reshape(-1)[idxs]
        scale = max(1.0, float(np.abs(numeric).max(initial=0.0)))
        err = float(np.abs(ana - numeric).max(initial=0.0)) / scale
        report.entries.append(GradcheckEntry(tname, err, err < tolerance))
    # leave grads and input_grad at the unperturbed point
    loss_at()
    graph.backward()
    return report
