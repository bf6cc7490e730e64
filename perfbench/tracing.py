"""Outside-in tracing of sakit's public functions.

``Tracer`` wraps every function and method listed below, wherever a sakit
module binds it, and records one span per call: (label, start, end, parent
span, measured extras). Spans stay in memory; ``layer_metrics`` turns them
into the per-layer metrics named in ``PER_LAYER`` and ``node_rows`` into a
per-node table joined with the MAC counts from ``network_flops``.

Self time is a span's duration minus the durations of its direct children.
"""

import os
import statistics
import sys
import time
from collections import Counter

import numpy as np

OPS_KERNELS = (
    "conv2d_forward", "conv2d_backward",
    "maxpool2d_forward", "maxpool2d_backward",
    "resize_nearest_forward", "resize_nearest_backward",
    "batchnorm2d_forward", "batchnorm2d_backward",
    "relu_forward", "relu_backward",
    "concat_channels_forward", "concat_channels_backward",
    "add_forward",
    "global_avg_pool_forward", "global_avg_pool_backward",
    "dense_forward", "dense_backward",
    "softmax_cross_entropy_forward", "softmax_cross_entropy_backward",
)
# kernels whose computed bytes (inputs plus outputs, from shapes) are reported
BYTES_KERNELS = ("conv2d_forward", "conv2d_backward", "maxpool2d_forward",
                 "maxpool2d_backward", "batchnorm2d_forward", "batchnorm2d_backward",
                 "relu_forward", "relu_backward")

FUNCTIONS = tuple(("ops", k) for k in OPS_KERNELS) + (
    ("optim", "sgd_step"),
    ("data", "augment"),
    ("data", "normalize"),
    ("data", "synthetic_dataset"),
    ("training", "train"),
    ("training", "evaluate_graph"),
    ("allocator", "extract_importance"),
    ("allocator", "project_network"),
    ("flops", "network_flops"),
    ("netspec", "propagate_shapes"),
    ("presets", "build_seed"),
    ("presets", "build_scalenet"),
    ("presets", "build_resnet"),
    ("presets", "build_cifar_resnet"),
    ("blocks", "build_sa_residual"),
    ("checkpoint", "save_checkpoint"),
)
GRAPH_METHODS = ("__init__", "forward", "backward")


def _per_layer():
    rows = []
    for k in OPS_KERNELS:
        rows += [(f"ops.{k}.calls", "count", "lower"), (f"ops.{k}.self_s", "s", "lower")]
    for k in ("conv2d_forward", "conv2d_backward"):
        rows += [(f"ops.{k}.gmacs", "GMAC", "lower"),
                 (f"ops.{k}.gmac_per_s", "GMAC/s", "higher")]
    rows += [(f"ops.{k}.computed_mb", "MB", "lower") for k in BYTES_KERNELS]
    rows += [
        ("autograd.Graph.forward.self_s", "s", "lower"),
        ("autograd.Graph.backward.self_s", "s", "lower"),
        ("autograd.Graph.__init__.s", "s", "lower"),
        ("autograd.retained_mib", "MiB", "lower"),
        ("optim.sgd_step.calls", "count", "lower"),
        ("optim.sgd_step.self_s", "s", "lower"),
        ("data.augment.self_s", "s", "lower"),
        ("data.normalize.self_s", "s", "lower"),
        ("data.synthetic_dataset.s", "s", "lower"),
        ("training.train.seed_s", "s", "lower"),
        ("training.train.final_s", "s", "lower"),
        ("training.evaluate_graph.s", "s", "lower"),
        ("training.step_ms_p50", "ms", "lower"),
        ("allocator.extract_importance.s", "s", "lower"),
        ("allocator.project_network.s", "s", "lower"),
        ("allocator.budget_utilization", "fraction", "higher"),
        ("allocator.forced_blocks", "count", "lower"),
        ("flops.network_flops.calls", "count", "lower"),
        ("flops.network_flops.s", "s", "lower"),
        ("netspec.propagate_shapes.calls", "count", "lower"),
        ("netspec.propagate_shapes.s", "s", "lower"),
        ("presets.build_seed.s", "s", "lower"),
        ("presets.build_scalenet.s", "s", "lower"),
        ("presets.build_resnet.s", "s", "lower"),
        ("presets.build_cifar_resnet.s", "s", "lower"),
        ("blocks.build_sa_residual.calls", "count", "lower"),
        ("checkpoint.save_checkpoint.s", "s", "lower"),
        ("checkpoint.save_checkpoint.mb", "MB", "lower"),
        ("trace.overhead_frac", "fraction", "lower"),
    ]
    return rows


PER_LAYER = _per_layer()
UNITS = {name: unit for name, unit, _ in PER_LAYER}
# metrics that are counts of work: they must repeat exactly for one seed
EXACT = tuple(name for name, unit, _ in PER_LAYER
              if unit == "count" or name.endswith((".gmacs", ".computed_mb")))


def _nbytes(*arrays):
    return sum(a.nbytes for a in arrays)


def _conv_forward(args, result):
    x, w = args[0], args[1]
    y = result[0]
    macs = y.size * w[0].size
    return macs, _nbytes(x, w, y)


def _conv_backward(args, result):
    dy, w = args[0], args[1]
    dx, dw = result
    macs = 2 * dy.size * w[0].size  # one GEMM for dx, one for dw
    return macs, _nbytes(dy, w, dx, dw)


def _in_out(args, result):
    out = result[0] if isinstance(result, tuple) else result
    return 0, _nbytes(args[0], out)


_MEASURE = {
    "ops.conv2d_forward": _conv_forward,
    "ops.conv2d_backward": _conv_backward,
    **{f"ops.{k}": _in_out for k in BYTES_KERNELS if not k.startswith("conv")},
    "checkpoint.save_checkpoint": lambda args, result: os.path.getsize(args[0]),
    "allocator.project_network": lambda args, result: sum(
        r.forced for r in result.values()),
}


def retained_bytes(graph):
    """Bytes held by a graph's activations and node caches, each buffer once."""
    seen = {}

    def visit(obj):
        if isinstance(obj, np.ndarray):
            owner = obj if obj.base is None else obj.base
            if isinstance(owner, np.ndarray):
                seen[id(owner)] = owner.nbytes
            else:
                seen[id(obj)] = obj.nbytes
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                visit(item)
        elif isinstance(obj, dict):
            for item in obj.values():
                visit(item)

    visit(graph.activations or {})
    for node in graph.nodes:
        visit(node.cache)
    return sum(seen.values())


class Tracer:
    """Records spans while installed: ``with Tracer() as tr: ...``."""

    def __init__(self):
        self.spans = []  # [label, start_ns, end_ns, parent index, extra]
        self.specs = {}  # spec name -> NetworkSpec of every traced Graph
        self._stack = []
        self._owner = {}  # id(node) -> spec name of the graph that owns it
        self._restore = []

    # -- recording -----------------------------------------------------
    def _wrap(self, fn, label, measure=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [label, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if measure is not None:
                rec[4] = measure(args, result)
            return result

        return traced

    def _graph_init(self, args, result):
        graph = args[0]
        self.specs[graph.spec.name] = graph.spec
        for node in graph.nodes:
            self._owner[id(node)] = graph.spec.name
        return None

    def _node_call(self, args, result):
        node, xs = args[0], args[1]
        shape = np.shape(xs[0] if isinstance(xs, list) else xs)
        batch = shape[0] if shape else 0  # the loss gradient is a scalar
        return (self._owner.get(id(node), "?"), node.name, node.layer.op, batch)

    # -- installing ----------------------------------------------------
    def __enter__(self):
        import sakit.autograd as autograd
        modules = [m for name, m in sys.modules.items()
                   if name == "sakit" or name.startswith("sakit.")]
        for mod_name, fn_name in FUNCTIONS:
            orig = getattr(sys.modules[f"sakit.{mod_name}"], fn_name)
            label = f"{mod_name}.{fn_name}"
            wrapped = self._wrap(orig, label, _MEASURE.get(label))
            # rebind every name that refers to the function, so callers that
            # imported it by name (``from .optim import sgd_step``) see the wrapper
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, orig, wrapped)
        graph = autograd.Graph
        measures = {"__init__": self._graph_init,
                    "forward": lambda args, result: retained_bytes(args[0])}
        for meth in GRAPH_METHODS:
            orig = graph.__dict__[meth]
            self._patch(graph, meth, orig,
                        self._wrap(orig, f"autograd.Graph.{meth}", measures.get(meth)))
        for cls in sorted(set(autograd._NODE_TYPES.values()), key=lambda c: c.__name__):
            for meth in ("forward", "backward"):
                if meth in cls.__dict__:
                    orig = cls.__dict__[meth]
                    self._patch(cls, meth, orig,
                                self._wrap(orig, f"node.{meth}", self._node_call))
        return self

    def _patch(self, owner, attr, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, orig))

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()
        return False

    # -- reading -------------------------------------------------------
    def calls(self):
        return Counter(s[0] for s in self.spans)

    def self_times(self):
        """Per-span self time in seconds (duration minus direct children)."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(end - start - child[i]) * 1e-9
                for i, (_, start, end, _, _) in enumerate(self.spans)]


_ZERO = {"calls": 0, "s": 0.0, "self_s": 0.0, "macs": 0, "bytes": 0, "sum": 0, "max": 0}


def _aggregate(tracer):
    agg = {}
    for (label, start, end, _, extra), self_s in zip(tracer.spans, tracer.self_times()):
        a = agg.setdefault(label, dict(_ZERO))
        a["calls"] += 1
        a["s"] += (end - start) * 1e-9
        a["self_s"] += self_s
        if isinstance(extra, tuple) and label.startswith("ops."):
            a["macs"] += extra[0]
            a["bytes"] += extra[1]
        elif isinstance(extra, int):
            a["sum"] += extra
            a["max"] = max(a["max"], extra)
    return agg


def seed_steps(tracer):
    """(forward start, sgd end) of each training step of the first ``train``
    call, i.e. the seed network's steps in a pipeline run."""
    spans = tracer.spans
    seed = next((i for i, s in enumerate(spans) if s[0] == "training.train"), None)
    if seed is None:
        return []
    steps, fwd_start = [], None
    for label, start, end, parent, _ in spans[seed + 1:]:
        if parent != seed:
            continue
        if label == "autograd.Graph.forward":
            fwd_start = start
        elif label == "optim.sgd_step" and fwd_start is not None:
            steps.append((fwd_start, end))
            fwd_start = None
    return steps


def layer_metrics(tracer, budget_utilization, overhead_frac):
    """Every ``PER_LAYER`` metric from one trace; absent layers read 0."""
    agg = _aggregate(tracer)

    def get(label):
        return agg.get(label, _ZERO)

    out = {}
    for k in OPS_KERNELS:
        out[f"ops.{k}.calls"] = get(f"ops.{k}")["calls"]
        out[f"ops.{k}.self_s"] = get(f"ops.{k}")["self_s"]
    for k in ("conv2d_forward", "conv2d_backward"):
        a = get(f"ops.{k}")
        out[f"ops.{k}.gmacs"] = a["macs"] / 1e9
        out[f"ops.{k}.gmac_per_s"] = a["macs"] / 1e9 / a["self_s"] if a["self_s"] else 0.0
    for k in BYTES_KERNELS:
        out[f"ops.{k}.computed_mb"] = get(f"ops.{k}")["bytes"] / 1e6
    out["autograd.Graph.forward.self_s"] = get("autograd.Graph.forward")["self_s"]
    out["autograd.Graph.backward.self_s"] = get("autograd.Graph.backward")["self_s"]
    out["autograd.Graph.__init__.s"] = get("autograd.Graph.__init__")["s"]
    out["autograd.retained_mib"] = get("autograd.Graph.forward")["max"] / 2 ** 20
    out["optim.sgd_step.calls"] = get("optim.sgd_step")["calls"]
    out["optim.sgd_step.self_s"] = get("optim.sgd_step")["self_s"]
    out["data.augment.self_s"] = get("data.augment")["self_s"]
    out["data.normalize.self_s"] = get("data.normalize")["self_s"]
    out["data.synthetic_dataset.s"] = get("data.synthetic_dataset")["s"]
    trains = [(end - start) * 1e-9 for label, start, end, _, _ in tracer.spans
              if label == "training.train"]
    out["training.train.seed_s"] = trains[0] if trains else 0.0
    out["training.train.final_s"] = trains[1] if len(trains) > 1 else 0.0
    out["training.evaluate_graph.s"] = get("training.evaluate_graph")["s"]
    steps = [(end - start) * 1e-6 for start, end in seed_steps(tracer)]
    out["training.step_ms_p50"] = statistics.median(steps) if steps else 0.0
    out["allocator.extract_importance.s"] = get("allocator.extract_importance")["s"]
    out["allocator.project_network.s"] = get("allocator.project_network")["s"]
    out["allocator.budget_utilization"] = budget_utilization
    out["allocator.forced_blocks"] = get("allocator.project_network")["sum"]
    for label in ("flops.network_flops", "netspec.propagate_shapes"):
        out[f"{label}.calls"] = get(label)["calls"]
        out[f"{label}.s"] = get(label)["s"]
    for fn in ("build_seed", "build_scalenet", "build_resnet", "build_cifar_resnet"):
        out[f"presets.{fn}.s"] = get(f"presets.{fn}")["s"]
    out["blocks.build_sa_residual.calls"] = get("blocks.build_sa_residual")["calls"]
    out["checkpoint.save_checkpoint.s"] = get("checkpoint.save_checkpoint")["s"]
    out["checkpoint.save_checkpoint.mb"] = get("checkpoint.save_checkpoint")["sum"] / 1e6
    out["trace.overhead_frac"] = overhead_frac
    assert list(out) == [name for name, _, _ in PER_LAYER]
    return out


def node_rows(tracer, network_flops):
    """One row per (network, node): forward and backward time (kernel
    included), samples seen, MACs per sample and achieved GMAC/s."""
    rows = {}
    for label, start, end, _, extra in tracer.spans:
        if not label.startswith("node."):
            continue
        spec_name, node, op, batch = extra
        r = rows.setdefault((spec_name, node), {
            "network": spec_name, "node": node, "op": op, "fwd_s": 0.0,
            "bwd_s": 0.0, "fwd_samples": 0, "bwd_samples": 0})
        phase = "fwd" if label == "node.forward" else "bwd"
        r[f"{phase}_s"] += (end - start) * 1e-9
        r[f"{phase}_samples"] += batch
    macs = {}
    for spec_name, spec in tracer.specs.items():
        for row in network_flops(spec).rows:
            macs[(spec_name, row.name)] = row.macs
    for key, r in rows.items():
        r["macs_per_sample"] = macs.get(key, 0)
        done = r["macs_per_sample"] * r["fwd_samples"]
        r["fwd_gmac_per_s"] = done / 1e9 / r["fwd_s"] if r["fwd_s"] and done else 0.0
    return list(rows.values())


KINDS = {"conv2d": "conv", "batchnorm2d": "batchnorm", "maxpool2d": "maxpool",
         "relu": "relu", "resize_nearest": "resize", "concat_channels": "concat",
         "add": "add", "global_avg_pool": "gap", "dense": "dense",
         "softmax_cross_entropy": "softmax"}


def _kind(label):
    kernel = label[len("ops."):].rsplit("_", 1)[0]
    return KINDS[kernel]


def _ancestors(spans, idx):
    parent = spans[idx][3]
    while parent >= 0:
        yield parent
        parent = spans[parent][3]


def op_shares(tracer):
    """Kernel self time per op kind as a share of the time it was measured
    in: the seed network's training steps when the trace has a ``train``
    call, otherwise all ``evaluate_graph`` calls."""
    spans, self_s = tracer.spans, tracer.self_times()
    steps = seed_steps(tracer)
    if steps:
        seed = next(i for i, s in enumerate(spans) if s[0] == "training.train")
        total = sum(end - start for start, end in steps) * 1e-9

        def in_scope(i):
            up = list(_ancestors(spans, i))
            return seed in up and all(spans[j][0] != "training.evaluate_graph" for j in up)
    else:
        total = sum((s[2] - s[1]) * 1e-9 for s in spans
                    if s[0] == "training.evaluate_graph")

        def in_scope(i):
            return any(spans[j][0] == "training.evaluate_graph"
                       for j in _ancestors(spans, i))
    shares = Counter()
    for i, label in enumerate(s[0] for s in spans):
        if label.startswith("ops.") and in_scope(i):
            shares[_kind(label)] += self_s[i] / total
    return dict(shares)
