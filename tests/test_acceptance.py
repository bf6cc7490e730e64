"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np
import pytest

from fd_harness import OPS_UNDER_TEST, check_op
from rf_harness import random_rf_graph
from sakit.allocator import (NeuronRecord, ProjectionConfig, brute_oracle,
                             extract_importance, greedy_project,
                             plan_from_results, project_network, run_pipeline)
from sakit.blocks import SABlockSpec, build_sa_block
from sakit.data import synthetic_dataset
from sakit.flops import network_flops
from sakit.netspec import SpecBuilder, propagate_shapes
from sakit.presets import (build_cifar_resnet, build_resnet, build_scalenet,
                           build_seed, even_allocation, reference_plan)
from sakit.rf import rf_all_nodes, rf_empirical_oracle, rf_network_report
from sakit.rng import stream
from sakit.training import TrainConfig, downsample_sweep


def report(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_flops_reproduction():
    t0 = time.perf_counter()
    r50 = build_resnet(50)
    values = {
        "resnet50": (network_flops(r50).total_macs / 1e9, 4.1),
        "resnet101": (network_flops(build_resnet(101)).total_macs / 1e9, 7.8),
        "resnet152": (network_flops(build_resnet(152)).total_macs / 1e9, 11.5),
        "scalenet50": (network_flops(
            build_scalenet(r50, reference_plan("scalenet50"))).total_macs / 1e9, 3.8),
        "scalenet50-light": (network_flops(
            build_scalenet(r50, reference_plan("scalenet50-light"))).total_macs / 1e9, 2.9),
    }
    elapsed = time.perf_counter() - t0
    ok = all(abs(got - want) <= 0.10 * want for got, want in values.values())
    ok = ok and elapsed < 1.0
    detail = ", ".join(f"{k} {got:.3f}G vs {want}G" for k, (got, want) in values.items())
    report(1, ok, f"{detail} in {elapsed:.2f}s")


def test_criterion_2_budget_feasibility_random_suite():
    presets = [lambda: build_cifar_resnet(1, num_classes=10),
               lambda: build_cifar_resnet(2, num_classes=10),
               lambda: build_cifar_resnet(3, num_classes=10),
               lambda: build_resnet(50)]
    violations = 0
    blocks_checked = 0
    for run in range(50):
        rng = stream(1311, "budget-suite", run)
        base = presets[run % len(presets)]()
        scales = [1, 2, 4, 7] if base.name.startswith("resnet") else [1, 2, 4]
        seed_spec = build_seed(base, scales)
        gammas = {}
        for k, branches in seed_spec.sa_blocks().items():
            for s, conv, bn in branches:
                gammas[f"{bn.name}.gamma"] = rng.normal(0, 1, conv.attrs["out"])
        records = extract_importance(gammas, seed_spec)
        budgets = {k: b.budget for k, b in network_flops(seed_spec).budgets.items()}
        cfg = ProjectionConfig(exponent=float(rng.choice([0.0, 0.5, 1.0])))
        results = project_network(records, budgets, cfg)
        plan = plan_from_results(results, scales, budgets=budgets)
        rep = network_flops(build_scalenet(base, plan))
        for k, macs in rep.sa_block_macs.items():
            blocks_checked += 1
            if macs > rep.budgets[k].budget:
                violations += 1
    ok = violations == 0 and blocks_checked >= 50
    report(2, ok, f"{blocks_checked} blocks across 50 runs, {violations} violations")


def test_criterion_3_greedy_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    rescale_breaks = 0
    for i in range(1000):
        rng = stream(1312, "oracle-suite", i)
        n = int(rng.integers(1, 21))
        records = [NeuronRecord(1, int(rng.choice([1, 2, 4, 7])), c,
                                float(rng.uniform(-1, 1)), int(rng.integers(1, 16)))
                   for c in range(n)]
        budget = int(rng.integers(1, 80))
        cfg = ProjectionConfig(float(rng.choice([0.0, 0.5, 1.0])))
        mine = greedy_project(records, budget, cfg)
        ref, _ = brute_oracle(records, budget, cfg, with_optimum=False)
        key = lambda res: {(r.scale, r.channel) for r in res.selected}
        if key(mine) != key(ref):
            mismatches += 1
        factor = float(rng.uniform(0.05, 20.0))
        scaled = [NeuronRecord(r.block, r.scale, r.channel, r.gamma * factor, r.cost)
                  for r in records]
        base0 = greedy_project(records, budget, ProjectionConfig(0.0))
        resc = greedy_project(scaled, budget, ProjectionConfig(0.0))
        if key(base0) != key(resc):
            rescale_breaks += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and rescale_breaks == 0 and elapsed < 10.0
    report(3, ok, f"1000 instances, {mismatches} mismatches, "
                  f"{rescale_breaks} rescale breaks, {elapsed:.1f}s")


def test_criterion_4_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    all_failures = []
    for op in OPS_UNDER_TEST:
        w, failures = check_op(op, shapes=50, seed=1313, tolerance=1e-5,
                               max_entries=25)
        worst = max(worst, w)
        all_failures.extend(failures)
    elapsed = time.perf_counter() - t0
    ok = not all_failures and elapsed < 120.0
    report(4, ok, f"{len(OPS_UNDER_TEST)} ops x 50 shapes, worst rel err "
                  f"{worst:.2e} (tol 1e-5), {elapsed:.1f}s"
                  + (f"; failures: {all_failures[:3]}" if all_failures else ""))


def test_criterion_5_rf_equivalence():
    t0 = time.perf_counter()
    mismatches = []
    for i in range(20):
        rng = stream(1314, "rf-suite", i)
        spec, out = random_rf_graph(rng)
        analytic = rf_all_nodes(spec)[out].max_rf
        emp = rf_empirical_oracle(spec, out)
        if analytic.denominator != 1 or emp != (int(analytic), int(analytic)):
            mismatches.append((i, analytic, emp))
    # aggregation branch set at 56x56: extent 3*s per scale, 21 at scale 7
    for s, expect in [(1, 3), (2, 6), (4, 12), (7, 21)]:
        b = SpecBuilder(f"br{s}")
        cur = b.add("x", "input", c=1, h=56, w=56)
        if s > 1:
            cur = b.add("p", "maxpool", [cur], k=s, stride=s, ceil=1)
        cur = b.add("c", "conv", [cur], **{"in": 1, "out": 1, "k": 3, "pad": 1})
        if s > 1:
            cur = b.add("u", "resize", [cur], h=56, w=56)
        spec = b.build()
        analytic = rf_all_nodes(spec)[cur].max_rf
        emp = rf_empirical_oracle(spec, cur)
        if analytic != expect or emp != (expect, expect):
            mismatches.append((f"branch{s}", analytic, emp))
    s50 = build_scalenet(build_resnet(50), reference_plan("scalenet50"))
    rows = rf_network_report(s50)
    covers_input_by_block3 = rows[2][2] >= 224
    elapsed = time.perf_counter() - t0
    ok = not mismatches and covers_input_by_block3 and elapsed < 60.0
    report(5, ok, f"20 random graphs + 4 branches, {len(mismatches)} mismatches; "
                  f"block-3 max rf {rows[2][2]} >= 224; {elapsed:.1f}s")


def test_criterion_6_sa_shape_invariants():
    t0 = time.perf_counter()
    factors = [1, 2, 3, 4, 7]
    subsets = [[f for b, f in enumerate(factors) if mask >> b & 1]
               for mask in range(1, 32)]
    bad = []
    for scales in subsets:
        for hw in range(1, 65):
            channels = list(range(1, len(scales) + 1))
            b = SpecBuilder("sweep")
            b.add("x", "input", c=3, h=hw, w=hw)
            out = build_sa_block(b, "sa", "x",
                                 SABlockSpec(3, scales, channels, 1), hw, hw)
            b.add("g", "gap", [out])
            b.add("fc", "dense", ["g"], **{"in": sum(channels), "out": 2})
            b.add("loss", "softmax_xent", ["fc"])
            shape = propagate_shapes(b.build())[out]
            if shape != (sum(channels), hw, hw):
                bad.append((scales, hw, shape))
    # rectangular and executed anchors, including the non-divisible cases
    from sakit.autograd import Graph
    for scales, h, w in [([1, 2, 4, 7], 14, 14), ([7], 7, 7), ([1, 2, 4, 7], 14, 9),
                         ([2, 3], 5, 11), ([1, 2, 3, 4, 7], 64, 64)]:
        channels = [2] * len(scales)
        b = SpecBuilder("anchor")
        b.add("x", "input", c=2, h=h, w=w)
        out = build_sa_block(b, "sa", "x", SABlockSpec(2, scales, channels, 1), h, w)
        b.add("g", "gap", [out])
        b.add("fc", "dense", ["g"], **{"in": sum(channels), "out": 2})
        b.add("loss", "softmax_xent", ["fc"])
        spec = b.build()
        g = Graph(spec, seed=0)
        acts = g.forward(np.ones((2, 2, h, w), dtype=np.float32),
                         labels=np.array([0, 1]), keep=[out])
        if acts[out].shape != (2, sum(channels), h, w):
            bad.append((scales, (h, w), acts[out].shape))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 30.0
    report(6, ok, f"31 factor subsets x 64 sizes + executed anchors, "
                  f"{len(bad)} violations, {elapsed:.1f}s")


def test_criterion_7_pipeline_desk_scale(tmp_path):
    t0 = time.perf_counter()
    classes = 10
    train_ds = synthetic_dataset(classes, 60, 32, seed=42, split="train")
    val_ds = synthetic_dataset(classes, 12, 32, seed=42, split="val")
    base = build_cifar_resnet(1, num_classes=classes, in_channels=1)
    cfg = TrainConfig(epochs=8, batch_size=32, lr=0.1, milestones=(6,),
                      momentum=0.9, weight_decay=1e-4, seed=42,
                      augment_flags=("flip",), deterministic=True)
    result = run_pipeline(base, [1, 2, 4], train_ds, val_ds, cfg,
                          ProjectionConfig(0.0), out_dir=tmp_path)
    elapsed = time.perf_counter() - t0
    even = even_allocation(base, [1, 2, 4])
    differs = any(result.plan.rows[k] != even.rows[k] for k in result.plan.rows)
    rep = network_flops(result.final_spec)
    budgets_ok = all(rep.sa_block_macs[k] <= rep.budgets[k].budget
                     for k in rep.sa_block_macs)
    ok = (elapsed < 600.0 and result.final_top1 >= 3.0 / classes
          and differs and budgets_ok)
    report(7, ok, f"pipeline {elapsed:.0f}s (<600); top1 {result.final_top1:.3f} "
                  f">= {3.0 / classes}; plan differs from even: {differs}; "
                  f"budgets ok: {budgets_ok}; plan rows {dict(result.plan.rows)}")


def test_criterion_8_pipeline_determinism(tmp_path):
    classes = 6
    train_ds = synthetic_dataset(classes, 12, 32, seed=5, split="train")
    val_ds = synthetic_dataset(classes, 4, 32, seed=5, split="val")
    base = build_cifar_resnet(1, num_classes=classes, in_channels=1)
    cfg = TrainConfig(epochs=2, batch_size=8, lr=0.05, seed=5,
                      deterministic=True, augment_flags=("flip", "crop-pad-4"))
    run_pipeline(base, [1, 2, 4], train_ds, val_ds, cfg, ProjectionConfig(0.0),
                 out_dir=tmp_path / "a")
    train_ds2 = synthetic_dataset(classes, 12, 32, seed=5, split="train")
    val_ds2 = synthetic_dataset(classes, 4, 32, seed=5, split="val")
    run_pipeline(base, [1, 2, 4], train_ds2, val_ds2, cfg, ProjectionConfig(0.0),
                 out_dir=tmp_path / "b")
    artifacts = ["plan.txt", "seed.sanc", "final.sanc", "seed_metrics.csv",
                 "final_metrics.csv", "importances.csv", "budgets.csv"]
    diffs = [name for name in artifacts
             if (tmp_path / "a" / name).read_bytes()
             != (tmp_path / "b" / name).read_bytes()]
    report(8, not diffs, f"two seeded runs, byte-identical artifacts "
                         f"{artifacts}; differing: {diffs or 'none'}")


def test_criterion_9_downsampling_ablation(tmp_path):
    classes = 6
    train_ds = synthetic_dataset(classes, 20, 32, seed=9, split="train")
    val_ds = synthetic_dataset(classes, 5, 32, seed=9, split="val")
    base = build_cifar_resnet(1, num_classes=classes, in_channels=1)
    cfg = TrainConfig(epochs=3, batch_size=16, lr=0.05, seed=9,
                      deterministic=True)
    csv_path = tmp_path / "downsample_sweep.csv"
    rows = downsample_sweep(base, [1, 2], train_ds, val_ds, cfg,
                            out_csv=csv_path)
    lines = csv_path.read_text().strip().splitlines()
    modes = [r["mode"] for r in rows]
    ok = (modes == ["max", "avg", "conv", "dilated"] and len(lines) == 5
          and lines[0] == "mode,train_loss,val_top1,val_top5"
          and all(isinstance(r["val_top1"], float) for r in rows))
    report(9, ok, f"four downsampling modes trained; accuracies "
                  f"{[(r['mode'], round(r['val_top1'], 3)) for r in rows]} "
                  f"(no ordering asserted); csv at {csv_path.name}")
