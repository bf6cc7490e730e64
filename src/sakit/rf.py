"""Receptive-field propagation over multi-branch graphs, plus an empirical
perturbation oracle.

Each tensor carries an interval of (jump, extent) states in exact rationals:
jump is input pixels per output step, extent the input span influencing one
output unit. Conv and pool grow the extent by dilation*(k-1)*jump and scale
the jump by the stride; nearest resize divides the jump by the resize factor
and keeps the extent; branch merges take the extremes. Square maps are
assumed (the height axis is tracked).
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .autograd import Graph
from .netspec import NetworkSpec, csv_text


@dataclass(frozen=True)
class RFState:
    jump: Fraction
    rf: Fraction

    def after_window(self, k, stride, dilation=1) -> "RFState":
        return RFState(self.jump * stride, self.rf + dilation * (k - 1) * self.jump)

    def after_resize(self, factor: Fraction) -> "RFState":
        return RFState(self.jump / factor, self.rf)


@dataclass(frozen=True)
class RFInterval:
    lo: RFState
    hi: RFState

    @classmethod
    def unit(cls):
        one = Fraction(1)
        return cls(RFState(one, one), RFState(one, one))

    @property
    def min_rf(self):
        return self.lo.rf

    @property
    def max_rf(self):
        return self.hi.rf


_ELEMENTWISE = ("relu", "batchnorm")
_WINDOWED = ("conv", "maxpool", "avgpool")


def rf_propagate(node, incoming, in_shape=None) -> RFInterval:
    """Interval after one node; ``incoming`` is a list of input intervals.

    ``in_shape`` (the producing tensor's CHW shape) is required for resize
    nodes so the rational resize factor can be formed.
    """
    op, a = node.op, node.attrs
    if op == "input":
        return RFInterval.unit()
    if op in _ELEMENTWISE:
        return incoming[0]
    if op in _WINDOWED:
        k, s = a["k"], node.get("stride")
        d = node.get("dilation") if op == "conv" else 1  # pools declare none
        iv = incoming[0]
        return RFInterval(iv.lo.after_window(k, s, d), iv.hi.after_window(k, s, d))
    if op == "resize":
        if in_shape is None:
            raise ValueError(f"resize node '{node.name}' needs its input shape")
        factor = Fraction(a["h"], in_shape[1])
        iv = incoming[0]
        return RFInterval(iv.lo.after_resize(factor), iv.hi.after_resize(factor))
    if op in ("concat", "add"):
        lo = min((iv.lo for iv in incoming), key=lambda s: (s.rf, s.jump))
        hi = max((iv.hi for iv in incoming), key=lambda s: (s.rf, s.jump))
        return RFInterval(lo, hi)
    raise ValueError(f"unsupported op '{op}' for receptive-field propagation")


def rf_all_nodes(spec: NetworkSpec) -> dict:
    """Interval for every spatial node; propagation stops at the gap node."""
    intervals = {}
    for n in spec.nodes:
        if n.op in ("gap", "dense", "softmax_xent"):
            continue
        ins = [intervals[i] for i in n.inputs]
        in_shape = spec.shapes[n.inputs[0]] if n.inputs else None
        intervals[n.name] = rf_propagate(n, ins, in_shape)
    return intervals


def rf_network_report(spec: NetworkSpec):
    """(block_index, min_rf, max_rf) at every residual-block output.

    The identity shortcut carries the block input's minimum straight through,
    so the reported minimum is the smallest extent any merged path has.
    """
    intervals = rf_all_nodes(spec)
    rows = []
    for k, add in spec.block_nodes("add").items():
        iv = intervals[add.name]
        rows.append((k, iv.min_rf, iv.max_rf))
    return rows


def rf_report_csv(rows) -> str:
    return csv_text("block_index,min_rf,max_rf",
                    ((k, _fmt(lo), _fmt(hi)) for k, lo, hi in rows))


def _fmt(x: Fraction):
    return str(int(x)) if x.denominator == 1 else f"{float(x):.3f}"


def rf_empirical_oracle(spec: NetworkSpec, node_name):
    """Influence extent (rows, cols) at the centermost unit of a node.

    All conv/dense weights are replaced by a positive constant; biases keep
    their initial zero, and batchnorm runs in inference mode with fresh
    running stats and its initial unit scale and zero shift, so the network
    is monotone and any influencing pixel registers. Influence
    is probed in float32 by forward-differencing one bumped pixel per batch
    element, 128 pixels per pass; a pixel counts as influencing when its
    response exceeds 3e-6 of the strongest response. Corner pixels of the
    true field reach the output through a single tap path, attenuated by
    roughly the product of kernel areas, so the threshold assumes that
    product stays below ~1e5 (float32 headroom).
    """
    graph = Graph(spec)
    for pname, p in graph.params.items():
        if pname.endswith(".weight"):
            p[...] = 0.1
    c, h, w = spec.input_shape
    base = np.ones((1, c, h, w), dtype=np.float32)
    acts = graph.forward(base, mode="infer", keep=[node_name])
    out = acts[node_name]
    ho, wo = out.shape[2], out.shape[3]
    oy, ox = ho // 2, wo // 2
    y0 = out[0, :, oy, ox].copy()
    deltas = np.zeros((h, w))
    coords = [(r, cc) for r in range(h) for cc in range(w)]
    for start in range(0, len(coords), 128):
        batch_coords = coords[start:start + 128]
        xb = np.repeat(base, len(batch_coords), axis=0)
        for i, (r, cc) in enumerate(batch_coords):
            xb[i, :, r, cc] += 1.0
        yb = graph.forward(xb, mode="infer", keep=[node_name])[node_name][:, :, oy, ox]
        # a unit covering anything in any channel counts as influence
        resp = np.abs(yb - y0[None, :]).max(axis=1)
        for i, (r, cc) in enumerate(batch_coords):
            deltas[r, cc] = resp[i]
    peak = deltas.max()
    if peak == 0.0:
        return (0, 0)
    hits = deltas > 3e-6 * peak
    rows = np.nonzero(hits.any(axis=1))[0]
    cols = np.nonzero(hits.any(axis=0))[0]
    return (int(rows[-1] - rows[0] + 1), int(cols[-1] - cols[0] + 1))
