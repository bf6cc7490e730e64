from sakit.flops import block_budget, network_flops, neuron_cost
from sakit.presets import (AllocationPlan, build_cifar_resnet, build_resnet,
                           build_scalenet, even_allocation, reference_plan)
from sakit.rng import stream


def test_neuron_cost_examples():
    assert neuron_cost(64, 56, 56, 1) == 9 * 64 * 3136 == 1_806_336
    assert neuron_cost(64, 56, 56, 7) == 9 * 64 * 64 == 36_864
    assert neuron_cost(16, 14, 14, 4) == 9 * 16 * 16


def test_block_budget_examples():
    bb = block_budget(64, 64, 56, 56, [1, 2, 4, 7])
    assert bb.budget == 115_605_504
    assert bb.budget // bb.unit_costs[1] == 64
    bb4 = block_budget(512, 512, 7, 7, [1, 2, 4, 7])
    assert bb4.budget == 9 * 512 * 512 * 49


def test_network_flops_published_anchors():
    r50 = build_resnet(50)
    assert abs(network_flops(r50).total_macs / 1e9 - 4.1) <= 0.41
    s50 = build_scalenet(r50, reference_plan("scalenet50"))
    assert abs(network_flops(s50).total_macs / 1e9 - 3.8) <= 0.38
    light = build_scalenet(r50, reference_plan("scalenet50-light"))
    assert abs(network_flops(light).total_macs / 1e9 - 2.9) <= 0.29


def test_optional_node_costs_off_by_default():
    spec = build_cifar_resnet(1)
    ops_counted = {r.op for r in network_flops(spec).rows}
    assert ops_counted == {"conv", "dense"}


def test_monotonicity_pointwise_larger_plans():
    base = build_cifar_resnet(1, num_classes=10)
    rng = stream(7, "mono")
    scales = [1, 2, 4]
    for _ in range(10):
        rows_small = {}
        rows_big = {}
        for k in (1, 2, 3):
            small = [int(rng.integers(0, 8)) for _ in scales]
            if sum(small) == 0:
                small[0] = 1
            rows_small[k] = small
            rows_big[k] = [c + int(rng.integers(0, 4)) for c in small]
        f_small = network_flops(build_scalenet(base, AllocationPlan(scales, rows_small)))
        f_big = network_flops(build_scalenet(base, AllocationPlan(scales, rows_big)))
        assert f_big.total_macs >= f_small.total_macs


def test_remove_one_neuron_accounting_identity():
    base = build_cifar_resnet(1, num_classes=10)
    scales = [1, 2, 4]
    plan = even_allocation(base, scales)
    full = network_flops(build_scalenet(base, plan))
    for k, scale_idx in [(1, 0), (2, 1), (3, 2)]:
        rows = {kk: list(r) for kk, r in plan.rows.items()}
        rows[k][scale_idx] -= 1
        smaller = network_flops(build_scalenet(base, AllocationPlan(scales, rows)))
        # in-block saving is exactly the per-neuron cost; the expand conv
        # additionally loses one input channel (reported separately, not part
        # of the budget check)
        unit = full.budgets[k].unit_costs[scales[scale_idx]]
        assert full.sa_block_macs[k] - smaller.sa_block_macs[k] == unit
        expand = next(n for n in full.rows if n.name == f"sa{k}.expand")
        cat_channels = sum(ch for _s, ch, _u in full.sa_block_detail[k])
        expand_per_channel = expand.macs // cat_channels
        assert full.total_macs - smaller.total_macs == unit + expand_per_channel


def test_block_table_csv_shape():
    base = build_cifar_resnet(1, num_classes=10)
    spec = build_scalenet(base, even_allocation(base, [1, 2, 4]))
    report = network_flops(spec)
    lines = report.block_table_csv().strip().splitlines()
    assert lines[0] == "k,scale,channels,unit_cost,subtotal,budget,utilization"
    assert len(lines) == 1 + 3 * 3
    k, scale, ch, unit, sub, budget, util = lines[1].split(",")
    assert int(sub) == int(ch) * int(unit)
    assert 0 < float(util) <= 1.0


def test_scalenet_cheaper_than_baseline():
    r50 = build_resnet(50)
    s50 = build_scalenet(r50, reference_plan("scalenet50"))
    assert network_flops(s50).total_macs < network_flops(r50).total_macs
