import hashlib

import numpy as np
import pytest

from sakit.autograd import Graph
from sakit.blocks import DOWNSAMPLE_MODES
from sakit.checkpoint import write_text
from sakit.flops import network_flops
from sakit.netspec import NetworkSpec, SpecError, propagate_shapes
from sakit.presets import (AllocationPlan, build_cifar_resnet, build_resnet,
                           build_scalenet, build_seed, even_allocation,
                           load_plan, parse_plan, reference_plan,
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
    # only a line that starts with `#` is a comment, so a source keeps its `#`
    plan.source = "run#7"
    assert parse_plan(serialize_plan(plan)).source == "run#7"


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
    ("scales:\n1: 3,4\n", 1, "positive"),
    ("scales: 1,2\nbudget 1: -5\n1: 3,4\n", 2, "budget of block 1 must be at least 1, got -5"),
    ("scales: 1,2\nbudget 1: 0\n1: 3,4\n", 2, "at least 1, got 0"),
    ("scales: 1,2\nbudget 1 2: 5\n1: 3,4\n", 2, "expected 'budget <block>: <MACs>'"),
    ("scales: 1,2\nb: nan\n1: 3,4\n", 2, "exponent b must be finite, got 'nan'"),
    ("scales: 1,2\nb: -inf\n1: 3,4\n", 2, "exponent b must be finite")])
def test_plan_rejects_repeated_keys_and_bad_scales(text, line, match):
    with pytest.raises(SpecError, match=f"line {line}: .*{match}"):
        parse_plan(text)


def test_plan_file_round_trip(tmp_path):
    plan = AllocationPlan([1, 2], {1: [4, 4], 2: [3, 5]}, source="t",
                          exponent=0.5, budgets={1: 100, 2: 200})
    path = tmp_path / "p.plan"
    write_text(path, serialize_plan(plan))
    back = load_plan(path)
    assert back.rows == plan.rows
    assert back.exponent == 0.5
    assert back.budgets == {1: 100, 2: 200}
    assert back.source == "t"


@pytest.mark.parametrize("source", ["run\n2: 9,9", "a\rb", " run", "run "])
def test_plan_source_that_would_not_read_back_is_rejected(source):
    with pytest.raises(ValueError, match="must be one line"):
        AllocationPlan([1, 2], {1: [3, 4]}, source=source)


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


@pytest.mark.parametrize("mode", DOWNSAMPLE_MODES)
@pytest.mark.parametrize("size", [97, 225, 230])
def test_scalenet_builds_at_odd_feature_sizes(size, mode):
    # the 2x2 pool before each strided block rounds up, as the stride-2 3x3
    # conv it replaces does, so odd feature sizes build (at 225 the blocks
    # run at 57, 29, 15 and 8)
    base = build_resnet(50, input_size=size)
    spec = build_scalenet(base, reference_plan("scalenet50"), downsample=mode)
    convs = base.block_nodes("conv")
    for k, cat in spec.block_nodes("concat").items():
        assert spec.shapes[cat.name][1:] == base.shapes[convs[k].name][1:]


def test_scalenet_infers_at_a_small_odd_size():
    # the blocks run at 9, 5, 3 and 2
    spec = build_scalenet(build_resnet(50, num_classes=10, input_size=35),
                          reference_plan("scalenet50"))
    x = np.random.default_rng(0).random((1, 3, 35, 35), dtype=np.float32)
    logits = Graph(spec).forward(x, mode="infer")[spec.logits_name]
    assert logits.shape == (1, 10) and np.all(np.isfinite(logits))


# sha256 of to_text(); a change to these bytes changes every checkpoint's spec
_PINNED_SPECS = {
    "resnet50": "887b4de2279d07447bf0243233a2834beffa92434291dcfd8d558e38fe9333ad",
    "resnet101": "09de3e8c98c57ccbe71b76d652f0b871dd833337c52b5eeccf8cc6a0a47908c6",
    "resnet152": "34747b5f62ab9bbe3eb395e7c7776adc6bf35e729af2fd0a90759e6aab77c89a",
    "cifar-n1-c1": "c1d0f6a38956b0d18ff421c9b52f8474c445f21d4540ff6eedf4fff41bdfcad4",
    "cifar-n1-c3": "68778593851e45fb6812d43b3d83f4d40872dfc280723f78934a2e217585586c",
    "cifar-n4-c1": "f8f53bce52938f2a7ca77baa8514c8c0bce4fee60aee336d9a84088b355ffd5b",
    "cifar-n4-c3": "1b98659cd33625381c45f28745bd620081c665f55e77e68a2dedea981f0f2cad",
    "cifar-n6-c1": "042592bc63c484ccd1a2ed5a7e8737dba8f96d4864af87f3cc8f459da02528ea",
    "cifar-n6-c3": "5d6583c53f67a010a2a50fc2b85af25193b5f0ddf1e86c548af885650cbfb057",
    "cifar-n11-c1": "aa4b32c08788820dad7e7d09b39ff5edf11724687d6a0d44173d158b7f3a18a9",
    "cifar-n11-c3": "27a5c389411382321806f285cf0c5e93bd00e7b5289ffd16c53a2d69a1e8b443",
    "scalenet50": "c9506a348c6b9d87b42279c3f84af7cd83a1310f7f1a3eb6147e65639da248d2",
    "scalenet101": "a3df77f69f1f98ca3eb67239623268a40e7b193c3145e58cc29e0f94dc03f670",
    "scalenet152": "cf47e86aa26ba1d028c4b3a7653e146b17e8f98fe5ce36f6ebda839a3bac6906",
    "scalenet50-light": "e21013beeb5af0f4a2b3031c54c0a02837f39e9c2cd8418543d81c69e5e278c9",
    "desk-seed": "82072aa8471f9021d307bd0d71f4e8cb4cd7c5fecd1b2b1d949af4413a53b344",
    "desk-even": "1db02f7f18f1600d0a9513432b7d76cb2c9ae940909fd796fb2a751e1dc7387b",
    "desk-seed-avg": "4edeb8d8dd95bdd78fa60686fb63d1bd9fb76a5ab0a268760669ce3052415125",
    "desk-seed-conv": "cb458e54f8ab5c13595604f7d1fb5ee2395cbb378262e29878004b248cdfde86",
    "desk-seed-dilated": "2b552b85d9fc63b493faf4ca9c73b77a39f92a91e8ace310ca25e0c98559e411",
}


def test_builder_output_is_pinned():
    desk = build_cifar_resnet(1, num_classes=10, in_channels=1)
    specs = {f"resnet{d}": build_resnet(d) for d in (50, 101, 152)}
    specs.update({f"cifar-n{n}-c{c}": build_cifar_resnet(n, in_channels=c)
                  for n in (1, 4, 6, 11) for c in (1, 3)})
    for depth, name in ((50, "scalenet50"), (101, "scalenet101"), (152, "scalenet152"),
                        (50, "scalenet50-light")):
        specs[name] = build_scalenet(build_resnet(depth), reference_plan(name))
    specs["desk-seed"] = build_seed(desk, [1, 2, 4])  # downsample "max"
    specs["desk-even"] = build_scalenet(desk, even_allocation(desk, [1, 2, 4]))
    for mode in DOWNSAMPLE_MODES[1:]:
        specs[f"desk-seed-{mode}"] = build_seed(desk, [1, 2, 4], downsample=mode)
    got = {name: hashlib.sha256(spec.to_text().encode()).hexdigest()
           for name, spec in specs.items()}
    assert got == _PINNED_SPECS


# sha256 over every param's and state's name, shape and bytes in the graph's
# order; no BLAS call is involved, so this holds on every kernel set
_PINNED_INITS = {
    "desk-seed": "eff1a6042c1cd748f0f8e9e7636df0efeb865d192b2653247c397b344868a2d5",
    "resnet50": "0e44e790fedecbcb8ca2982347dda5d270f3088c7161b592c847c7033bbb098b",
}


def test_initial_weights_are_pinned():
    desk = build_cifar_resnet(1, num_classes=10, in_channels=1)
    got = {}
    for name, spec in (("desk-seed", build_seed(desk, [1, 2, 4])),
                       ("resnet50", build_resnet(50))):
        graph = Graph(spec, seed=7)
        h = hashlib.sha256()
        for key, arr in (*graph.params.items(), *graph.state.items()):
            h.update(f"{key} {arr.shape}\n".encode())
            h.update(arr.tobytes())
        got[name] = h.hexdigest()
    assert got == _PINNED_INITS
