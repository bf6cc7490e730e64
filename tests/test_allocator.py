import numpy as np
import pytest

from sakit.allocator import (NeuronRecord, ProjectionConfig, brute_oracle,
                             budgets_csv, extract_importance, greedy_project,
                             importance_csv, parse_budgets_csv,
                             parse_importance_csv, plan_from_results,
                             project_network)
from sakit.autograd import Graph
from sakit.flops import network_flops
from sakit.netspec import SpecError
from sakit.presets import build_cifar_resnet, build_resnet, build_seed
from sakit.rng import stream


def rec(v, cost, scale=1, channel=0, block=1):
    return NeuronRecord(block, scale, channel, v, cost)


FIVE = [rec(0.9, 4, 1, 0), rec(0.8, 4, 1, 1), rec(0.7, 4, 1, 2),
        rec(0.6, 1, 2, 0), rec(0.5, 1, 2, 1)]


def names(res):
    return {(r.scale, r.channel) for r in res.selected}


def test_greedy_scan_example_b0():
    res = greedy_project(FIVE, budget=10, config=ProjectionConfig(0.0))
    assert names(res) == {(1, 0), (1, 1), (2, 0), (2, 1)}
    assert res.total_cost == 10
    assert not res.forced


def test_greedy_scan_example_b1():
    res = greedy_project(FIVE, budget=10, config=ProjectionConfig(1.0))
    # priorities: D=0.6 E=0.5 A=0.225 B=0.2 C=0.175
    assert names(res) == {(2, 0), (2, 1), (1, 0), (1, 1)}
    assert res.total_cost == 10


def test_unconstrained_budget_selects_all():
    res = greedy_project(FIVE, budget=1000)
    assert len(res.selected) == 5


def test_force_select_when_nothing_fits():
    res = greedy_project([rec(0.5, 100), rec(0.9, 200)], budget=10)
    assert res.forced and len(res.selected) == 1
    assert res.selected[0].importance == 0.9


def test_greedy_validation():
    with pytest.raises(ValueError, match="records"):
        greedy_project([], 10)
    with pytest.raises(ValueError, match="budget"):
        greedy_project(FIVE, 0)
    # a NaN exponent makes every priority NaN, and the scan falls back to
    # record order
    for b in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="exponent b must be finite"):
            ProjectionConfig(b)


def test_tie_break_is_scale_then_channel():
    records = [rec(1.0, 2, s, c) for s in (2, 1) for c in (1, 0)]
    res = greedy_project(records, budget=4)
    assert [(r.scale, r.channel) for r in res.selected] == [(1, 0), (1, 1)]


def test_rescaling_invariance_at_b0():
    rng = stream(3, "rescale")
    for _ in range(50):
        n = int(rng.integers(1, 15))
        records = [rec(float(rng.uniform(0, 1)), int(rng.integers(1, 9)),
                       int(rng.choice([1, 2, 4])), i) for i in range(n)]
        budget = int(rng.integers(1, 40))
        base = greedy_project(records, budget)
        factor = float(rng.uniform(0.1, 10))
        scaled = [rec(r.gamma * factor, r.cost, r.scale, r.channel)
                  for r in records]
        res = greedy_project(scaled, budget)
        assert names(res) == names(base)


def test_deterministic_given_identical_inputs():
    rng = stream(4, "det")
    records = [rec(float(rng.uniform()), int(rng.integers(1, 5)), 1, i)
               for i in range(12)]
    a = greedy_project(records, 17)
    b = greedy_project(list(records), 17)
    assert names(a) == names(b)
    assert [r.channel for r in a.selected] == [r.channel for r in b.selected]


def test_negative_gamma_uses_magnitude():
    res = greedy_project([rec(-0.9, 1, 1, 0), rec(0.1, 1, 1, 1)], budget=1)
    assert names(res) == {(1, 0)}


def test_brute_oracle_matches_greedy_randomized():
    rng = stream(5, "oracle")
    for i in range(200):
        n = int(rng.integers(1, 21))
        records = [rec(float(rng.uniform(0, 1)), int(rng.integers(1, 12)),
                       int(rng.choice([1, 2, 4, 7])), c)
                   for c in range(n)]
        budget = int(rng.integers(1, 60))
        cfg = ProjectionConfig(float(rng.choice([0.0, 0.5, 1.0])))
        mine = greedy_project(records, budget, cfg)
        ref, _ = brute_oracle(records, budget, cfg, with_optimum=False)
        assert names(mine) == names(ref), (i, budget, cfg.exponent)
        assert mine.total_cost == ref.total_cost
        assert mine.forced == ref.forced


def test_greedy_never_beats_knapsack_optimum():
    rng = stream(6, "knap")
    for _ in range(40):
        n = int(rng.integers(1, 13))
        records = [rec(float(rng.uniform(0, 1)), int(rng.integers(1, 10)), 1, c)
                   for c in range(n)]
        budget = int(rng.integers(1, 30))
        res, optimum = brute_oracle(records, budget, with_optimum=True)
        got = sum(r.importance for r in res.selected)
        if not res.forced:
            assert got <= optimum + 1e-12


def test_brute_oracle_single_and_limits():
    res, opt = brute_oracle([rec(0.4, 3)], budget=5)
    assert len(res.selected) == 1 and opt == pytest.approx(0.4)
    with pytest.raises(ValueError, match="24"):
        brute_oracle([rec(0.1, 1)] * 30, 5)


def test_per_scale_counts_partition_selection():
    rng = stream(7, "partition")
    records = [rec(float(rng.uniform()), int(rng.integers(1, 6)),
                   int(rng.choice([1, 2, 4])), c) for c in range(30)]
    res = greedy_project(records, 40)
    by_scale = {}
    for r in res.selected:
        by_scale[r.scale] = by_scale.get(r.scale, 0) + 1
    assert by_scale == res.per_scale


def test_extract_importance_from_seed_network():
    base = build_cifar_resnet(1, num_classes=10)
    seed = build_seed(base, [1, 2, 4])
    graph = Graph(seed, seed=0)
    # batchnorm scales start at 1 -> all importances equal 1
    records = extract_importance(graph.params, seed)
    assert len(records) == 3 * (16 + 32 + 64)
    assert all(r.importance == 1.0 for r in records)
    block1 = [r for r in records if r.block == 1]
    assert len(block1) == 3 * 16
    # per-scale unit costs at 32x32: 9*16*1024, 9*16*256, 9*16*64
    costs = {r.scale: r.cost for r in block1}
    assert costs == {1: 9 * 16 * 1024, 2: 9 * 16 * 256, 4: 9 * 16 * 64}


def test_extract_importance_counts_imagenet_seed_block():
    seed = build_seed(build_resnet(50), [1, 2, 4, 7])
    gammas = {}
    for k, branches in seed.sa_blocks().items():
        for s, conv, bn in branches:
            gammas[f"{bn.name}.gamma"] = np.full(conv.attrs["out"], 0.5)
    records = extract_importance(gammas, seed)
    assert sum(1 for r in records if r.block == 1) == 4 * 64


def test_extract_importance_missing_bn():
    base = build_cifar_resnet(1, num_classes=10)
    seed = build_seed(base, [1, 2, 4])
    with pytest.raises(KeyError, match="gamma"):
        extract_importance({}, seed)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_extract_importance_rejects_a_gamma_that_is_not_finite(bad):
    # a NaN priority would reach greedy_project's sort, where it has no order
    seed = build_seed(build_cifar_resnet(1, num_classes=10), [1, 2, 4])
    gammas = {f"{bn.name}.gamma": np.ones(conv.attrs["out"])
              for branches in seed.sa_blocks().values() for _, conv, bn in branches}
    _, _, bn = seed.sa_blocks()[2][2]
    gammas[f"{bn.name}.gamma"][5] = bad
    with pytest.raises(ValueError, match=f"'{bn.name}.gamma' channel 5 is .*, not finite"):
        extract_importance(gammas, seed)


def test_abs_gamma_examples():
    assert rec(0.5, 1).importance == 0.5
    assert rec(-0.5, 1).importance == 0.5


def test_equal_importance_selection_is_tie_break_prefix():
    base = build_cifar_resnet(1, num_classes=10)
    seed = build_seed(base, [1, 2, 4])
    graph = Graph(seed, seed=0)
    records = extract_importance(graph.params, seed)
    budgets = {k: b.budget for k, b in network_flops(seed).budgets.items()}
    results = project_network(records, budgets)
    for k, res in results.items():
        order = sorted((r for r in records if r.block == k),
                       key=lambda r: (r.scale, r.channel))
        expect = []
        left = budgets[k]
        for r in order:
            if r.cost <= left:
                expect.append((r.scale, r.channel))
                left -= r.cost
        assert {(r.scale, r.channel) for r in res.selected} == set(expect)


def test_projection_respects_budgets_via_flops_model():
    from sakit.presets import build_scalenet

    base = build_cifar_resnet(2, num_classes=10)
    seed = build_seed(base, [1, 2, 4])
    rng = stream(9, "gamma")
    gammas = {}
    for k, branches in seed.sa_blocks().items():
        for s, conv, bn in branches:
            gammas[f"{bn.name}.gamma"] = rng.normal(0, 1, conv.attrs["out"])
    records = extract_importance(gammas, seed)
    budgets = {k: b.budget for k, b in network_flops(seed).budgets.items()}
    results = project_network(records, budgets)
    plan = plan_from_results(results, [1, 2, 4], budgets=budgets)
    report = network_flops(build_scalenet(base, plan))
    for k, macs in report.sa_block_macs.items():
        assert macs <= report.budgets[k].budget


def test_csv_round_trips():
    records = [rec(0.5, 100, 1, 0), rec(-0.25, 50, 2, 1, block=3)]
    text = importance_csv(records)
    back = parse_importance_csv(text)
    assert [(r.block, r.scale, r.channel, r.gamma, r.cost) for r in back] == \
        [(r.block, r.scale, r.channel, r.gamma, r.cost) for r in records]
    budgets = {1: 12345, 2: 999}
    assert parse_budgets_csv(budgets_csv(budgets)) == budgets
    with pytest.raises(ValueError, match="header"):
        parse_importance_csv("bogus\n1,1,1,1,1,1\n")
    header = importance_csv([]).strip()
    # a line whose first non-blank character is `#` is a comment, as in plans
    assert parse_budgets_csv("# budgets\nk,budget\n  # block 1\n1,10\n") == {1: 10}
    back = parse_importance_csv(f"# importances\n{header}\n# k=1\n1,1,0,0.5,0.5,9\n")
    assert [(r.block, r.gamma, r.cost) for r in back] == [(1, 0.5, 9)]
    with pytest.raises(SpecError, match="line 3: gamma 'x' is not a number"):
        parse_importance_csv(f"{header}\n1,1,0,0.5,0.5,9\n1,1,1,x,0.5,9\n")
    with pytest.raises(SpecError, match="line 4: k 'one' is not a number"):
        parse_importance_csv(f"{header}\n1,1,0,0.5,0.5,9\n\none,1,1,0.5,0.5,9\n")
    with pytest.raises(SpecError, match="line 3: duplicate channel 0 of block 1 at scale 1"):
        parse_importance_csv(f"{header}\n1,1,0,0.5,0.5,9\n1,1,0,0.7,0.7,9\n")
    with pytest.raises(SpecError, match=r"line 2: abs_gamma 0.1 is not \|gamma\| 0.7"):
        parse_importance_csv(f"{header}\n1,1,0,-0.7,0.1,9\n")
    for bad in (np.nan, np.inf, -np.inf):  # importance_csv writes any gamma it is given
        with pytest.raises(SpecError, match="line 3: gamma must be finite"):
            parse_importance_csv(importance_csv([rec(0.5, 9), rec(bad, 9, 1, 1)]))
    with pytest.raises(SpecError, match="line 4: unit_cost 8 differs from 9"):
        parse_importance_csv(f"{header}\n1,1,0,0.5,0.5,9\n1,2,0,0.5,0.5,8\n1,1,1,0.5,0.5,8\n")
    with pytest.raises(SpecError, match="line 2: unit_cost of block 1 at scale 1 must be "
                                        "at least 1, got 0"):
        parse_importance_csv(f"{header}\n1,1,0,0.9,0.9,0\n")
    with pytest.raises(SpecError, match="line 3: unit_cost of block 1 at scale 2 must be "
                                        "at least 1, got -3"):
        parse_importance_csv(f"{header}\n1,1,0,0.9,0.9,5\n1,2,0,0.7,0.7,-3\n")
    with pytest.raises(SpecError, match="line 2: budget '1e3' is not a number"):
        parse_budgets_csv("k,budget\n1,1e3\n")
    with pytest.raises(SpecError, match="line 3: duplicate block 1"):
        parse_budgets_csv("k,budget\n1,10\n1,20\n")
    with pytest.raises(SpecError, match="line 3: budget of block 2 must be at least 1, got 0"):
        parse_budgets_csv("k,budget\n1,10\n2,0\n")
    with pytest.raises(SpecError, match="line 2: budget of block 1 must be at least 1, got -5"):
        parse_budgets_csv("k,budget\n1,-5\n")


def test_blocks_without_a_budget_are_named():
    records = [rec(0.5, 10, 1, 0), rec(0.4, 10, 1, 0, block=2), rec(0.3, 10, 1, 0, block=5)]
    with pytest.raises(SpecError, match=r"no budget for blocks \[2, 5\]"):
        project_network(records, {1: 100})
    assert set(project_network(records, {1: 100, 2: 100, 5: 100, 9: 1})) == {1, 2, 5}


def test_slack_budget_keeps_all_seed_channels():
    base = build_cifar_resnet(1, num_classes=10)
    seed = build_seed(base, [1, 2, 4])
    graph = Graph(seed, seed=2)
    records = extract_importance(graph.params, seed)
    by_block = {}
    for r in records:
        by_block.setdefault(r.block, []).append(r)
    for k, recs in by_block.items():
        total = sum(r.cost for r in recs)
        res = greedy_project(recs, budget=total)
        assert len(res.selected) == len(recs)
        assert res.per_scale == {1: len(recs) // 3, 2: len(recs) // 3,
                                 4: len(recs) // 3}


def test_run_pipeline_trains_with_its_own_package(tmp_path):
    """A copy of sakit imported under another package name trains with its
    own ``training``, not with the ``sakit`` on ``sys.path``."""
    import importlib.util
    import sys
    from pathlib import Path

    import sakit

    name, src = "sakit_renamed", Path(sakit.__file__).parent
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    tree = sys.modules[name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(tree)

        class Trained(Exception):
            pass

        def train(*args, **kwargs):
            raise Trained

        tree.training.train = train
        base = tree.presets.build_cifar_resnet(1, num_classes=10, in_channels=1)
        with pytest.raises(Trained):
            tree.allocator.run_pipeline(base, [1, 2], None, None, None,
                                        tree.allocator.ProjectionConfig(), tmp_path)
    finally:
        for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
            del sys.modules[key]
