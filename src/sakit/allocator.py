"""Data-driven neuron allocation.

Importance of each aggregation-block output channel is the magnitude of its
batchnorm scale; the per-block budgeted selection ranks channels by
importance / cost**b and scans in order, keeping any channel whose cost
still fits (skip-and-continue). A brute-force reference re-derives the same
policy with independent bookkeeping and can also report the exact knapsack
optimum for diagnostics.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .flops import network_flops
from .netspec import NetworkSpec, SpecError, csv_rows, csv_text
from .presets import AllocationPlan, build_scalenet, build_seed, serialize_plan


@dataclass(frozen=True)
class NeuronRecord:
    """One aggregation-block output channel with its importance and cost."""

    block: int
    scale: int
    channel: int  # index within its scale
    gamma: float
    cost: int  # MACs per output neuron at this scale

    @property
    def importance(self):
        return abs(self.gamma)


@dataclass
class ProjectionConfig:
    exponent: float = 0.0  # cost-balance power b in importance / cost**b

    def __post_init__(self):
        if not math.isfinite(self.exponent):
            raise ValueError(f"cost exponent b must be finite, got {self.exponent}")

    def priority(self, rec: NeuronRecord) -> float:
        return rec.importance / rec.cost ** self.exponent


@dataclass
class ProjectionResult:
    selected: list  # NeuronRecords kept, in scan order
    per_scale: dict  # scale -> count
    total_cost: int
    budget: int
    forced: bool = False  # nothing fit; kept the single top-ranked neuron


def extract_importance(tensors: dict, spec: NetworkSpec):
    """One NeuronRecord per aggregation-block output channel of ``spec``.

    ``tensors`` maps parameter names to arrays (a checkpoint or live graph
    params); each per-scale conv must be paired with its batchnorm, and a
    gamma that is not finite raises ValueError naming its tensor and channel. A
    record's cost is its scale's unit cost in ``network_flops(spec).budgets``.
    """
    budgets = network_flops(spec).budgets
    records = []
    for k, branches in spec.sa_blocks().items():
        for scale, conv, bn in branches:
            gname = f"{bn.name}.gamma"
            if gname not in tensors:
                raise KeyError(f"missing batchnorm scale tensor '{gname}'")
            gammas = np.asarray(tensors[gname])
            if gammas.shape != (conv.attrs["out"],):
                raise ValueError(f"'{gname}' has shape {gammas.shape}, "
                                 f"expected ({conv.attrs['out']},)")
            bad = np.flatnonzero(~np.isfinite(gammas))
            if bad.size:
                raise ValueError(f"'{gname}' channel {bad[0]} is {gammas[bad[0]]}, "
                                 "not finite")
            cost = budgets[k].unit_costs[scale]
            for ch, g in enumerate(gammas):
                records.append(NeuronRecord(k, scale, ch, float(g), cost))
    return records


def greedy_project(records, budget, config: ProjectionConfig = None) -> ProjectionResult:
    """Budgeted selection for one block.

    Scan order is priority descending, ties by (scale asc, channel asc); a
    record is kept iff its cost still fits, otherwise skipped and the scan
    continues. If nothing fits, the top-ranked record is kept and flagged.
    """
    if not records:
        raise ValueError("no records to project")
    if budget <= 0:
        raise ValueError("budget must be positive")
    config = config or ProjectionConfig()
    order = sorted(records, key=lambda r: (-config.priority(r), r.scale, r.channel))
    selected = []
    total = 0
    for rec in order:
        if total + rec.cost <= budget:
            selected.append(rec)
            total += rec.cost
    forced = False
    if not selected:
        selected = [order[0]]
        total = order[0].cost
        forced = True
    per_scale = {}
    for rec in selected:
        per_scale[rec.scale] = per_scale.get(rec.scale, 0) + 1
    return ProjectionResult(selected, per_scale, total, budget, forced)


def brute_oracle(records, budget, config: ProjectionConfig = None,
                 with_optimum=True):
    """Independent reference for greedy_project plus the knapsack optimum.

    The policy is re-derived without sorting: the best remaining record is
    found by explicit pairwise comparison each step, and feasibility is
    tracked against a shrinking remaining budget. The true optimum (max sum
    of importances subject to the budget) is enumerated over all subsets when
    there are at most 16 records; it is diagnostic only.
    Returns (ProjectionResult, optimum_importance_or_None).
    """
    if len(records) > 24:
        raise ValueError(f"oracle handles at most 24 records, got {len(records)}")
    config = config or ProjectionConfig()

    def better(a, b):
        pa, pb = config.priority(a), config.priority(b)
        if pa != pb:
            return pa > pb
        if a.scale != b.scale:
            return a.scale < b.scale
        return a.channel < b.channel

    remaining = list(records)
    left = budget
    selected = []
    top = None
    while remaining:
        best = remaining[0]
        for cand in remaining[1:]:
            if better(cand, best):
                best = cand
        remaining.remove(best)
        if top is None:
            top = best
        if best.cost <= left:
            selected.append(best)
            left -= best.cost
    forced = False
    if not selected:
        selected = [top]
        left = budget - top.cost
        forced = True
    per_scale = {}
    for rec in selected:
        per_scale[rec.scale] = per_scale.get(rec.scale, 0) + 1
    result = ProjectionResult(selected, per_scale, budget - left, budget, forced)
    optimum = None
    if with_optimum and len(records) <= 16:
        optimum = _knapsack_optimum(records, budget)
    return result, optimum


def _knapsack_optimum(records, budget):
    n = len(records)
    costs = np.array([r.cost for r in records], dtype=np.int64)
    values = np.array([r.importance for r in records])
    masks = np.arange(1 << n, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(n)) & 1
    feasible = bits @ costs <= budget
    return float((bits @ values)[feasible].max())


def project_network(records, budgets, config: ProjectionConfig = None):
    """Run the per-block selection for every block; returns
    {block: ProjectionResult}. Blocks with records but no budget raise
    SpecError naming them."""
    config = config or ProjectionConfig()
    by_block = {}
    for rec in records:
        by_block.setdefault(rec.block, []).append(rec)
    missing = sorted(set(by_block) - set(budgets))
    if missing:
        raise SpecError(f"no budget for blocks {missing}")
    results = {}
    for k in sorted(by_block):
        results[k] = greedy_project(by_block[k], budgets[k], config)
    return results


def plan_from_results(results, scales, source="", exponent=None, budgets=None):
    """One plan row per block; a kept channel at a scale outside ``scales``
    raises SpecError rather than drop out of the row."""
    for k, res in results.items():
        lost = sorted(set(res.per_scale) - set(scales))
        if lost:
            raise SpecError(f"block {k} keeps channels at scales {lost}, "
                            f"outside the plan's scales {list(scales)}")
    rows = {k: [res.per_scale.get(s, 0) for s in scales]
            for k, res in results.items()}
    return AllocationPlan(list(scales), rows, source=source, exponent=exponent,
                          budgets=dict(budgets or {}))


_IMPORTANCE_HEADER = "k,scale,channel,gamma,abs_gamma,unit_cost"
_BUDGETS_HEADER = "k,budget"


def importance_csv(records) -> str:
    return csv_text(_IMPORTANCE_HEADER, ((r.block, r.scale, r.channel, r.gamma,
                                          r.importance, r.cost) for r in records))


def parse_importance_csv(text):
    """Records from ``importance_csv`` text. A repeated (k, scale, channel),
    a gamma that is not finite, an abs_gamma that is not |gamma|, a unit_cost
    below 1 or one that differs from an earlier row of the same (k, scale)
    raises SpecError naming its line."""
    records, seen, costs = [], set(), {}
    for lineno, (k, scale, channel, gamma, abs_gamma, cost) in csv_rows(
            text, _IMPORTANCE_HEADER, (int, int, int, float, float, int)):
        if (k, scale, channel) in seen:
            raise SpecError(f"duplicate channel {channel} of block {k} "
                            f"at scale {scale}", lineno)
        if not math.isfinite(gamma):
            raise SpecError(f"gamma must be finite, got {gamma!r}", lineno)
        if abs_gamma != abs(gamma):
            raise SpecError(f"abs_gamma {abs_gamma!r} is not |gamma| {abs(gamma)!r}",
                            lineno)
        if cost < 1:
            raise SpecError(f"unit_cost of block {k} at scale {scale} must be at "
                            f"least 1, got {cost}", lineno)
        if costs.setdefault((k, scale), cost) != cost:
            raise SpecError(f"unit_cost {cost} differs from {costs[k, scale]} of an "
                            f"earlier row of block {k} at scale {scale}", lineno)
        seen.add((k, scale, channel))
        records.append(NeuronRecord(k, scale, channel, gamma, cost))
    return records


def budgets_csv(budgets: dict) -> str:
    return csv_text(_BUDGETS_HEADER, ((k, budgets[k]) for k in sorted(budgets)))


def parse_budgets_csv(text):
    """{k: budget} from ``budgets_csv`` text; a repeated block or a budget
    below 1 raises SpecError naming its line."""
    out = {}
    for lineno, (k, budget) in csv_rows(text, _BUDGETS_HEADER, (int, int)):
        if k in out:
            raise SpecError(f"duplicate block {k}", lineno)
        if budget < 1:
            raise SpecError(f"budget of block {k} must be at least 1, got {budget}", lineno)
        out[k] = budget
    return out


@dataclass
class PipelineResult:
    plan: AllocationPlan
    seed_spec: NetworkSpec
    final_spec: NetworkSpec
    seed_metrics: list
    final_metrics: list
    final_top1: float
    artifacts: dict = field(default_factory=dict)


def run_pipeline(base: NetworkSpec, scales, train_ds, val_ds, train_cfg,
                 proj_cfg: ProjectionConfig, out_dir, downsample="max") -> PipelineResult:
    """Seed-train, importance-ranked budgeted projection, retrain from scratch.

    Stages: build the over-provisioned seed, train it, read batchnorm scales,
    project each block onto its budget, emit the plan, rebuild, retrain with
    fresh weights (no transfer). Every run trains both stages; stage outputs
    are written under ``out_dir`` but never read back.
    """
    from . import training as train_mod
    from .checkpoint import save_checkpoint, write_text

    paths = {name: os.path.join(out_dir, name) for name in
             ("seed.netspec", "seed.sanc", "seed_metrics.csv",
              "importances.csv", "budgets.csv", "plan.txt",
              "final.netspec", "final.sanc", "final_metrics.csv")}

    def stage(name, spec):
        """Write the spec, train it, save its weights and its metrics."""
        write_text(paths[f"{name}.netspec"], spec.to_text())
        result = train_mod.train(spec, train_ds, val_ds, train_cfg)
        save_checkpoint(paths[f"{name}.sanc"], spec.to_text(), result.tensors())
        train_mod.write_metrics_csv(result.metrics, paths[f"{name}_metrics.csv"])
        return result

    seed_spec = build_seed(base, scales, downsample=downsample)
    seed_result = stage("seed", seed_spec)
    records = extract_importance(seed_result.tensors(), seed_spec)
    budgets = {k: b.budget for k, b in network_flops(seed_spec).budgets.items()}
    results = project_network(records, budgets, proj_cfg)
    plan = plan_from_results(results, scales, source=f"{base.name}-pipeline",
                             exponent=proj_cfg.exponent, budgets=budgets)
    write_text(paths["importances.csv"], importance_csv(records))
    write_text(paths["budgets.csv"], budgets_csv(budgets))
    write_text(paths["plan.txt"], serialize_plan(plan))

    final_spec = build_scalenet(base, plan, downsample=downsample)
    final_result = stage("final", final_spec)
    return PipelineResult(plan, seed_spec, final_spec, seed_result.metrics,
                          final_result.metrics, final_result.metrics[-1]["val_top1"],
                          paths)
