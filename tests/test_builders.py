import pytest

from sakit.flops import network_flops
from sakit.netspec import NetworkSpec, SpecError, propagate_shapes
from sakit.presets import (AllocationPlan, build_cifar_resnet, build_resnet,
                           build_scalenet, build_seed, even_allocation,
                           load_plan, parse_plan, reference_plan, save_plan,
                           serialize_plan, weighted_layer_count)


def test_resnet_presets_weighted_layers():
    assert weighted_layer_count(build_resnet(50)) == 50
    assert weighted_layer_count(build_resnet(101)) == 101
    assert weighted_layer_count(build_resnet(152)) == 152
    with pytest.raises(ValueError, match="unknown depth"):
        build_resnet(34)


def test_cifar_layer_formula():
    # 9n+2 weighted layers; n=10 gives 92, the formula wins over any naming
    assert weighted_layer_count(build_cifar_resnet(4)) == 38
    assert weighted_layer_count(build_cifar_resnet(6)) == 56
    assert weighted_layer_count(build_cifar_resnet(10)) == 92
    assert weighted_layer_count(build_cifar_resnet(11)) == 101
    with pytest.raises(ValueError):
        build_cifar_resnet(0)


def test_all_presets_shape_check_to_loss():
    specs = [build_resnet(50), build_cifar_resnet(2)]
    r50 = specs[0]
    specs.append(build_scalenet(r50, reference_plan("scalenet50")))
    specs.append(build_seed(specs[1], [1, 2, 4]))
    specs.append(build_scalenet(specs[1], even_allocation(specs[1], [1, 2, 4])))
    for spec in specs:
        shapes = propagate_shapes(spec)
        assert shapes[spec.loss_name] == ()


def test_scalenet_block1_channels_and_expand_width():
    r50 = build_resnet(50)
    s50 = build_scalenet(r50, reference_plan("scalenet50"))
    branches = s50.sa_blocks()[1]
    assert [(s, conv.attrs["out"]) for s, conv, _ in branches] == \
        [(1, 62), (2, 9), (4, 5), (7, 12)]
    expand = s50.node("sa1.expand")
    assert expand.attrs["in"] == 88 and expand.attrs["out"] == 256
    # stage transitions became standalone pools; only the stem conv strides
    assert "sa4.pool" in s50
    assert all(n.attrs.get("stride", 1) == 1 for n in s50.nodes
               if n.op == "conv" and not n.name.startswith("stem."))


def test_seed_network_quadruples_block_channels():
    r50 = build_resnet(50)
    seed = build_seed(r50, [1, 2, 4, 7])
    shapes = propagate_shapes(seed)
    cat = next(n for n in seed.nodes if n.op == "concat" and n.attrs["block"] == 1)
    assert shapes[cat.name] == (256, 56, 56)  # 4 * 64


def test_even_allocation_examples():
    r50 = build_resnet(50)
    plan = even_allocation(r50, [1, 2, 4, 7])
    assert plan.rows[1] == [16, 16, 16, 16]
    plan3 = even_allocation(r50, [1, 2, 4])
    assert plan3.rows[1] == [22, 21, 21]
    # remainder starves the coarsest scale
    tiny = AllocationPlan([1, 2, 4, 7], {1: [1, 1, 1, 0]})
    q, r = divmod(3, 4)
    assert [q + (1 if i < r else 0) for i in range(4)] == tiny.rows[1]


def test_seed_flops_exceed_baseline_and_even_flops_do_not():
    for base in (build_resnet(50), build_cifar_resnet(2)):
        scales = [1, 2, 4, 7] if base.name.startswith("resnet") else [1, 2, 4]
        base_macs = network_flops(base).total_macs
        assert network_flops(build_seed(base, scales)).total_macs > base_macs
        even = build_scalenet(base, even_allocation(base, scales))
        assert network_flops(even).total_macs <= base_macs


def test_single_scale_plan_recovers_baseline_costs():
    from sakit.presets import describe_bottlenecks

    base = build_cifar_resnet(1, num_classes=10)
    _, descs = describe_bottlenecks(base)
    rows = {d.block_index: [d.mid, 0, 0] for d in descs}
    spec = build_scalenet(base, AllocationPlan([1, 2, 4], rows))
    shapes = propagate_shapes(spec)
    for n in spec.nodes:
        if n.op == "concat":
            assert shapes[n.name][0] == n.attrs["base"]


def test_plan_round_trips():
    plan = reference_plan("scalenet50")
    text = serialize_plan(plan)
    back = parse_plan(text)
    assert back.rows == plan.rows and back.scales == plan.scales
    assert serialize_plan(back) == text
    assert plan.rows[3] == [59, 26, 0, 3]  # zero-channel scale accepted


def test_plan_parse_line_examples():
    plan = parse_plan("scales: 1,2,4,7\n1: 62,9,5,12\n3: 30,27,7,0\n")
    assert plan.rows[1] == [62, 9, 5, 12]
    assert plan.rows[3] == [30, 27, 7, 0]


def test_plan_parse_errors_carry_line_numbers():
    with pytest.raises(SpecError, match="line 2"):
        parse_plan("scales: 1,2\n1: 3,x\n")
    with pytest.raises(SpecError, match="scales"):
        parse_plan("1: 3,4\n")
    with pytest.raises(SpecError, match="duplicate"):
        parse_plan("scales: 1,2\n1: 3,4\n1: 3,4\n")
    with pytest.raises(SpecError, match="no channels"):
        parse_plan("scales: 1,2\n1: 0,0\n")


@pytest.mark.parametrize("text, line, match", [
    ("scales: 1,2\nscales: 1,2\n1: 3,4\n", 2, "duplicate 'scales:'"),
    ("scales: 1,2\nsource: a\nsource: b\n1: 3,4\n", 3, "duplicate 'source:'"),
    ("scales: 1,2\nb: 0.5\nb: 1\n1: 3,4\n", 3, "duplicate 'b:'"),
    ("scales: 1,2\nbudget 1: 10\nbudget 1: 99\n1: 3,4\n", 3, "duplicate 'budget 1:'"),
    ("scales: 1,2\n1: 3,4\n01: 3,4\n", 3, "duplicate '1:'"),
    ("scales: 2,1\n1: 3,4\n", 1, "ascending"),
    ("scales: 1,1\n1: 3,4\n", 1, "ascending"),
    ("scales: 0,2\n1: 3,4\n", 1, "positive"),
    ("scales:\n1: 3,4\n", 1, "positive")])
def test_plan_rejects_repeated_keys_and_bad_scales(text, line, match):
    with pytest.raises(SpecError, match=f"line {line}: .*{match}"):
        parse_plan(text)


def test_plan_file_round_trip(tmp_path):
    plan = AllocationPlan([1, 2], {1: [4, 4], 2: [3, 5]}, source="t",
                          exponent=0.5, budgets={1: 100, 2: 200})
    path = tmp_path / "p.plan"
    save_plan(plan, path)
    back = load_plan(path)
    assert back.rows == plan.rows
    assert back.exponent == 0.5
    assert back.budgets == {1: 100, 2: 200}
    assert back.source == "t"


def test_scalenet_row_count_mismatch():
    base = build_cifar_resnet(1)
    with pytest.raises(SpecError, match="do not match"):
        build_scalenet(base, AllocationPlan([1, 2], {1: [1, 1]}))


def test_untagged_block_add_is_rejected():
    base = build_cifar_resnet(1)
    del base.node("s2.b1.add").attrs["block"]
    with pytest.raises(SpecError, match=r"adds of blocks \[1, 3\]"):
        even_allocation(base, [1, 2])


def test_reference_plan_unknown_name():
    with pytest.raises(ValueError, match="available"):
        reference_plan("nope")


def test_spec_round_trip_through_text_resnet_scalenet():
    base = build_cifar_resnet(1)
    spec = build_scalenet(base, even_allocation(base, [1, 2, 4]))
    back = NetworkSpec.from_text(spec.to_text())
    assert back.to_text() == spec.to_text()
    assert back.sa_blocks().keys() == spec.sa_blocks().keys()
