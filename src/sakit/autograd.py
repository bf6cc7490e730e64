"""Reverse-mode autodiff over a static graph built from a NetworkSpec.

One ``Node`` class runs every op: its ``params``, ``forward`` and
``backward`` each branch once per op, as ``netspec._node_shape`` does, and
call the op's kernels in ``ops``. Batchnorm nodes own the running
statistics, which start at mean 0 and var 1.

The graph owns named parameter and state arrays. One forward loop serves
both modes and frees each output after its last reader (found once from the
spec), so it returns only the logits, the loss and the names asked for in
``keep``. A training forward with labels also stores the node caches,
which are all that backward reads and which hold arrays, not copies: conv
and dense keep their input, relu its output, softmax its probabilities,
and batchnorm its normalized input in place of its input. Backward frees
each cache after use; each forward first releases the previous pass.
Backward's gradient w.r.t. the network input can be skipped
(``input_grad=False``): training skips it, so the conv that reads the input
computes only its weight gradient, and ``gradcheck`` reads it. One thread
and no hidden randomness: identical weights, inputs and mode flags give
bitwise-identical outputs.

In inference an intermediate not named in ``keep`` may be overwritten by
its last reader (the in-place sharing of MXNet's memory planner, Chen et al.
2015): a relu, an add or a batchnorm writes its output into its first input
when it is that input's last reader and reads it once. Training writes
nothing in place. The caller's input array and the names in ``keep`` are
never written, and the bytes are those of a fresh output.
"""

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .netspec import KNOWN_OPS, NetworkSpec, ShapeError
from .rng import stream


class Node:
    """Runtime half of one LayerSpec: its op's kernels and the last training
    pass's cache. Each method branches once per op."""

    def __init__(self, layer):
        self.layer = layer
        self.name = layer.name
        self.cache = None

    def params(self):
        """{name: (shape, (mean, std))}: a weight starts as a seeded He-normal
        draw, any other parameter as ``mean`` (its ``std`` is 0)."""
        op, a, n = self.layer.op, self.layer.attrs, self.name
        zero, one = (0.0, 0.0), (1.0, 0.0)
        if op == "conv":
            k, fan_in = a["k"], a["in"] * a["k"] * a["k"]
            p = {f"{n}.weight": ((a["out"], a["in"], k, k), (0.0, np.sqrt(2.0 / fan_in)))}
            if self.layer.get("bias"):
                p[f"{n}.bias"] = ((a["out"],), zero)
            return p
        if op == "batchnorm":
            return {f"{n}.gamma": ((a["c"],), one), f"{n}.beta": ((a["c"],), zero)}
        if op == "dense":
            return {f"{n}.weight": ((a["in"], a["out"]), (0.0, np.sqrt(2.0 / a["in"]))),
                    f"{n}.bias": ((a["out"],), zero)}
        if op in KNOWN_OPS:
            return {}
        raise ShapeError(n, f"unhandled op '{op}'")

    def forward(self, xs, params, state, training, labels=None, out=None):
        """Return (output, backward cache); only the loss reads ``labels``.
        An ``out`` array is the first input, which an inference relu, add
        or batchnorm overwrites with its output."""
        layer, op, a, n, x = self.layer, self.layer.op, self.layer.attrs, self.name, xs[0]
        if op == "input":
            return x, None
        if op == "conv":
            y, cache = ops.conv2d_forward(x, params[f"{n}.weight"], layer.get("stride"),
                                          layer.get("dilation"), layer.get("pad"))
            if layer.get("bias"):
                y += params[f"{n}.bias"][None, :, None, None]
            return y, cache
        if op in ("maxpool", "avgpool"):
            pool = ops.maxpool2d_forward if op == "maxpool" else ops.avgpool2d_forward
            return pool(x, a["k"], a["stride"], layer.get("pad"), bool(layer.get("ceil")))
        if op == "resize":
            return ops.resize_nearest_forward(x, a["h"], a["w"])
        if op == "batchnorm":
            mean, var = f"{n}.running_mean", f"{n}.running_var"
            # inference returns the running stats themselves, so this keeps them
            y, cache, state[mean], state[var] = ops.batchnorm2d_forward(
                x, params[f"{n}.gamma"], params[f"{n}.beta"], state[mean], state[var],
                training=training, out=out)
            return y, cache
        if op == "relu":
            return ops.relu_forward(x, out=out)
        if op == "add":
            return ops.add_forward(x, xs[1], out=out), None
        if op == "concat":
            return ops.concat_channels_forward(xs)
        if op == "gap":
            return ops.global_avg_pool_forward(x)
        if op == "dense":
            return ops.dense_forward(x, params[f"{n}.weight"], params[f"{n}.bias"])
        if op == "softmax_xent":
            return ops.softmax_cross_entropy_forward(x, labels)
        raise ValueError(f"unhandled op '{op}'")

    def backward(self, dy, params, input_grad=True):
        """Return (grads w.r.t. inputs, grads w.r.t. own params). With
        ``input_grad`` false a conv computes only its parameter gradients and
        returns None for its input's."""
        op, n, cache = self.layer.op, self.name, self.cache
        if op == "input":
            return [dy], {}
        if op == "conv":
            w = params[f"{n}.weight"]
            dx, dw = ops.conv2d_backward(dy, w, cache) if input_grad else (
                None, ops.conv2d_dw(dy, w, cache))
            grads = {f"{n}.weight": dw}
            if self.layer.get("bias"):
                grads[f"{n}.bias"] = dy.sum(axis=(0, 2, 3))
            return [dx], grads
        if op in ("maxpool", "avgpool"):
            pool = ops.maxpool2d_backward if op == "maxpool" else ops.avgpool2d_backward
            return [pool(dy, cache)], {}
        if op == "resize":
            return [ops.resize_nearest_backward(dy, cache)], {}
        if op == "batchnorm":
            dx, dgamma, dbeta = ops.batchnorm2d_backward(dy, cache)
            return [dx], {f"{n}.gamma": dgamma, f"{n}.beta": dbeta}
        if op == "relu":
            return [ops.relu_backward(dy, cache)], {}
        if op == "add":
            return [dy, dy], {}
        if op == "concat":
            return ops.concat_channels_backward(dy, cache), {}
        if op == "gap":
            return [ops.global_avg_pool_backward(dy, cache)], {}
        if op == "dense":
            dx, dw, db = ops.dense_backward(dy, params[f"{n}.weight"], cache)
            return [dx], {f"{n}.weight": dw, f"{n}.bias": db}
        if op == "softmax_xent":
            return [ops.softmax_cross_entropy_backward(dy, cache)], {}
        raise ShapeError(n, f"unhandled op '{op}'")


# perfbench's tracer wraps forward and backward on every class in this mapping
_NODE_TYPES = dict.fromkeys(KNOWN_OPS, Node)


class Graph:
    """Executable network: ordered nodes, named parameters, named state."""

    def __init__(self, spec: NetworkSpec, dtype=np.float32, seed=0, init=True):
        self.spec = spec
        self.dtype = np.dtype(dtype)
        self.nodes = [Node(layer) for layer in spec.nodes]
        self.params, self.state = {}, {}
        for node in self.nodes:
            for pname, (shape, (mean, std)) in node.params().items():
                p = self.params[pname] = np.zeros(shape, dtype=self.dtype)
                if init and std:
                    p[...] = stream(seed, "init", pname).normal(mean, std, size=shape)
                elif init:
                    p[...] = mean
            # running statistics start as the identity: mean 0, var 1
            if node.layer.op == "batchnorm":
                c = node.layer.attrs["c"]
                self.state[f"{node.name}.running_mean"] = np.zeros(c, dtype=self.dtype)
                self.state[f"{node.name}.running_var"] = np.ones(c, dtype=self.dtype)
        # liveness: an output dies after its last reader (at once if none
        # reads it), except the logits and the loss of a spec that has them
        outputs = {n for layer in spec.nodes if layer.op == "softmax_xent"
                   for n in (layer.name, layer.inputs[0])}
        last = {n: i for i, layer in enumerate(spec.nodes) for n in (layer.name, *layer.inputs)}
        self._dead_after = [[] for _ in self.nodes]
        for name, i in last.items():
            if name not in outputs:
                self._dead_after[i].append(name)
        # in inference, the input a relu, an add or a batchnorm writes its
        # output into, if any: one that dies at it, that it reads once and
        # that is not the caller's array (``forward`` does not copy a
        # contiguous input)
        self._writes_into = []
        for layer, dead in zip(spec.nodes, self._dead_after):
            first = layer.inputs[0] if layer.inputs else None
            ok = (layer.op in ("relu", "add", "batchnorm") and first in dead
                  and layer.inputs.count(first) == 1 and first != spec.input_name)
            self._writes_into.append(first if ok else None)
        self.activations = None
        self._backward_ready = False

    def forward(self, x, labels=None, mode="train", keep=()):
        """Run every node (the loss node only when ``labels`` are given).

        Both modes return the logits, the loss (of a spec that has them) and
        the node names in ``keep``, and free every other output after its
        last reader; training with labels also stores the caches backward
        reads. The
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
        if x.ndim != 4 or x.shape[1:] != (c, h, w) or len(x) < 1:
            raise ShapeError(self.spec.input_name,
                             f"expects (N,{c},{h},{w}) input with N >= 1, got {x.shape}")
        acts = self.activations = {}
        ready = training and labels is not None
        for node, dead, into in zip(self.nodes, self._dead_after, self._writes_into):
            if node.layer.op == "softmax_xent" and labels is None:
                continue
            xs = [acts[i] for i in node.layer.inputs] if node.layer.inputs else [x]
            out = None if training or into is None or into in keep else acts[into]
            try:
                acts[node.name], node.cache = node.forward(
                    xs, self.params, self.state, training, labels, out)
            except ValueError as e:
                raise ShapeError(node.name, str(e)) from e
            if not ready:
                node.cache = None
            for name in dead:
                if name not in keep:
                    del acts[name]
        self._backward_ready = ready
        return acts

    def backward(self, input_grad=True):
        """Gradients of the scalar loss for every parameter (zeros if unused);
        one backward per training forward with labels. The gradient w.r.t.
        the network input goes to ``self.input_grad``; with ``input_grad``
        false it is not computed, ``self.input_grad`` is None and a conv
        that reads the input computes only its weight gradient."""
        if not self._backward_ready:
            raise RuntimeError("backward before forward: each backward needs "
                               "its own training-mode forward with labels")
        self._backward_ready = False
        grads = {p: np.zeros_like(v) for p, v in self.params.items()}
        flowing = {self.spec.loss_name: np.asarray(1.0, dtype=self.dtype)}
        self.input_grad = None
        x_name = self.spec.input_name
        for node in reversed(self.nodes):
            dy = flowing.pop(node.name, None)
            if dy is not None:
                dxs, dparams = node.backward(
                    dy, self.params, input_grad or x_name not in node.layer.inputs)
                if node.layer.op == "input":
                    self.input_grad = dxs[0]
                for pname, g in dparams.items():
                    grads[pname] += g
                for in_name, dx in zip(node.layer.inputs, dxs):
                    if input_grad or in_name != x_name:
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
