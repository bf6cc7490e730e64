"""Multiply-accumulate accounting for specs, blocks, and single neurons.

Totals count conv and dense MACs only; pooling, resizing, batchnorm and
relu are free. Aggregation-block budgets equal the MAC count of the replaced
3x3 conv, and per-neuron unit costs cover only the per-scale 3x3 convs, so
the budget check matches the constraint the allocator enforces.
"""

import math
from dataclasses import dataclass, field

from .netspec import NetworkSpec, csv_text


def neuron_cost(in_channels, h, w, scale) -> int:
    """MACs contributed by one output channel of a per-scale 3x3 conv:
    9 * C_in * ceil(h/scale) * ceil(w/scale)."""
    return 9 * in_channels * math.ceil(h / scale) * math.ceil(w / scale)


@dataclass
class BlockBudget:
    budget: int  # MACs of the replaced 3x3 conv
    unit_costs: dict  # scale -> MACs per output neuron


def block_budget(in_channels, out_channels, h, w, scales) -> BlockBudget:
    """Budget of the block replacing a 'same'-padded, stride-1 3x3 conv whose
    output dims h x w are also the block's working dims."""
    budget = 9 * in_channels * out_channels * h * w
    units = {s: neuron_cost(in_channels, h, w, s) for s in scales}
    return BlockBudget(budget, units)


@dataclass
class NodeCost:
    name: str
    op: str
    macs: int


@dataclass
class FlopsReport:
    rows: list = field(default_factory=list)  # NodeCost per counted node
    sa_block_macs: dict = field(default_factory=dict)  # k -> per-scale-conv MACs
    sa_block_detail: dict = field(default_factory=dict)  # k -> [(scale, channels, unit)]
    budgets: dict = field(default_factory=dict)  # k -> BlockBudget

    @property
    def total_macs(self):
        return sum(r.macs for r in self.rows)

    def block_table(self):
        """Rows (k, scale, channels, unit_cost, subtotal, budget, utilization);
        utilization is the whole block's per-scale-conv MACs over its budget."""
        out = []
        for k in sorted(self.sa_block_detail):
            budget = self.budgets[k].budget
            util = self.sa_block_macs[k] / budget
            for scale, channels, unit in self.sa_block_detail[k]:
                out.append((k, scale, channels, unit, channels * unit, budget, util))
        return out

    def block_table_csv(self) -> str:
        return csv_text("k,scale,channels,unit_cost,subtotal,budget,utilization",
                        ((k, s, ch, unit, sub, budget, f"{util:.6f}")
                         for k, s, ch, unit, sub, budget, util in self.block_table()))


def network_flops(spec: NetworkSpec) -> FlopsReport:
    """Count MACs node by node; aggregation blocks also get per-block
    subtotals of their per-scale convs against the reconstructed budget."""
    report = FlopsReport()
    for n in spec.nodes:
        macs = _node_macs(n, spec.shapes[n.name])
        if macs:
            report.rows.append(NodeCost(n.name, n.op, macs))
    macs = {r.name: r.macs for r in report.rows}
    cats = spec.block_nodes("concat")
    for k, branches in spec.sa_blocks().items():
        _, h, w = spec.shapes[cats[k].name]
        budget = block_budget(branches[0][1].attrs["in"], cats[k].attrs["base"], h, w,
                              [s for s, _, _ in branches])
        report.budgets[k] = budget
        report.sa_block_detail[k] = [(s, conv.attrs["out"], budget.unit_costs[s])
                                     for s, conv, _ in branches]
        report.sa_block_macs[k] = sum(macs[conv.name] for _, conv, _ in branches)
    return report


def _node_macs(n, out):
    if n.op == "conv":
        _, ho, wo = out
        return n.attrs["k"] ** 2 * n.attrs["in"] * n.attrs["out"] * ho * wo
    if n.op == "dense":
        return n.attrs["in"] * n.attrs["out"]
    return 0
