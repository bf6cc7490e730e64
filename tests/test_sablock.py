import math

import numpy as np
import pytest

from sakit.autograd import Graph
from sakit.blocks import SABlockSpec, build_sa_block, build_sa_residual
from sakit.flops import network_flops, neuron_cost
from sakit.netspec import SpecBuilder, propagate_shapes
from sakit.rng import stream


def sa_only_spec(c_in, scales, channels, h, w, downsample="max"):
    b = SpecBuilder("sa-frag")
    b.add("x", "input", c=c_in, h=h, w=w)
    out = build_sa_block(b, "sa", "x",
                         SABlockSpec(c_in, scales, channels, 1, downsample), h, w)
    b.add("head.gap", "gap", [out])
    b.add("head.fc", "dense", ["head.gap"], **{"in": sum(channels), "out": 2})
    b.add("loss", "softmax_xent", ["head.fc"])
    return b.build(), out


def test_published_block_shape():
    spec, out = sa_only_spec(64, [1, 2, 4, 7], [62, 9, 5, 12], 56, 56)
    shapes = propagate_shapes(spec)
    assert shapes[out] == (88, 56, 56)


def test_degenerate_single_scale_equals_plain_conv():
    spec, out = sa_only_spec(3, [1], [5], 9, 9)
    names = [n.name for n in spec.nodes]
    assert "sa.x1.down" not in names and "sa.x1.up" not in names
    g = Graph(spec, dtype=np.float64, seed=4)
    x = stream(4, "sa1").normal(size=(2, 3, 9, 9))
    acts = g.forward(x, labels=np.array([0, 1]), keep=[out, "sa.x1.relu"])
    # concat of the single branch is exactly the branch output
    assert np.array_equal(acts[out], acts["sa.x1.relu"])


def test_non_divisible_dims_round_trip():
    spec, out = sa_only_spec(2, [1, 4], [1, 1], 14, 14)
    shapes = propagate_shapes(spec)
    assert shapes["sa.x4.down"] == (2, 4, 4)
    assert shapes[out] == (2, 14, 14)
    g = Graph(spec, seed=0)
    acts = g.forward(np.ones((1, 2, 14, 14), dtype=np.float32),
                     labels=np.array([0]), keep=[out])
    assert acts[out].shape == (1, 2, 14, 14)


def test_shape_invariant_sweep_metadata():
    # spatial dims preserved and channel count equals the allocation sum for
    # every factor subset; checked via shape propagation
    factor_sets = [[1], [2], [1, 2], [1, 3], [2, 4], [1, 2, 4], [3, 7],
                   [1, 2, 3, 4, 7], [4, 7], [7]]
    for scales in factor_sets:
        for h, w in [(1, 1), (2, 3), (7, 7), (14, 14), (17, 5), (56, 56), (64, 64)]:
            channels = [i + 1 for i in range(len(scales))]
            spec, out = sa_only_spec(3, scales, channels, h, w)
            shapes = propagate_shapes(spec)
            assert shapes[out] == (sum(channels), h, w), (scales, h, w)


def test_zero_channel_scale_omitted():
    spec, out = sa_only_spec(4, [1, 2, 4], [3, 0, 2], 8, 8)
    names = [n.name for n in spec.nodes]
    assert not any(".x2." in n for n in names)
    assert propagate_shapes(spec)[out][0] == 5


def test_all_zero_allocation_rejected():
    with pytest.raises(ValueError, match="at least one"):
        SABlockSpec(4, [1, 2], [0, 0], 1)


def test_scale_slices_are_stable_per_scale():
    # the channel block belonging to a scale does not depend on which other
    # scales are present; branch order is ascending factor
    g_all, out_all = sa_only_spec(3, [1, 2, 4], [2, 2, 2], 12, 12)
    g_two, out_two = sa_only_spec(3, [1, 4], [2, 2], 12, 12)
    ga = Graph(g_all, dtype=np.float64, init=False)
    gt = Graph(g_two, dtype=np.float64, init=False)
    rng = stream(9, "slices")
    for graph in (ga, gt):
        for pname, p in graph.params.items():
            if pname.endswith(".gamma"):
                p[...] = 1.0
        for s, val in (("x1", 0.3), ("x2", 0.5), ("x4", 0.7)):
            wname = f"sa.{s}.conv.weight"
            if wname in graph.params:
                graph.params[wname][...] = val
    x = rng.normal(size=(1, 3, 12, 12))
    ya = ga.forward(x, labels=np.array([0]), mode="infer", keep=[out_all])[out_all]
    yt = gt.forward(x, labels=np.array([0]), mode="infer", keep=[out_two])[out_two]
    assert np.allclose(ya[:, 0:2], yt[:, 0:2])   # scale 1 slice
    assert np.allclose(ya[:, 4:6], yt[:, 2:4])   # scale 4 slice


def test_block_macs_equal_sum_of_neuron_costs():
    for scales, channels, h, w, c_in in [
        ([1, 2, 4, 7], [62, 9, 5, 12], 56, 56, 64),
        ([1, 2, 4], [5, 3, 1], 14, 14, 16),
        ([2, 7], [4, 4], 9, 9, 8),
    ]:
        spec, _ = sa_only_spec(c_in, scales, channels, h, w)
        report = network_flops(spec)
        expected = sum(cl * neuron_cost(c_in, h, w, s)
                       for s, cl in zip(scales, channels))
        assert report.sa_block_macs[1] == expected


def test_residual_zero_branch_passes_shortcut():
    b = SpecBuilder("res")
    b.add("x", "input", c=8, h=10, w=10)
    sa = SABlockSpec(4, [1, 2], [3, 2], 1)
    out = build_sa_residual(b, "blk", "x", 8, sa, 8, 10, 10)
    b.add("head.gap", "gap", [out])
    b.add("head.fc", "dense", ["head.gap"], **{"in": 8, "out": 2})
    b.add("loss", "softmax_xent", ["head.fc"])
    spec = b.build()
    assert "blk.proj" not in spec  # equal widths give an identity shortcut
    g = Graph(spec, dtype=np.float64, seed=2)
    for pname, p in g.params.items():
        if ".sa." in pname and pname.endswith(".weight"):
            p[...] = 0.0
    x = stream(2, "res").normal(size=(2, 8, 10, 10))
    acts = g.forward(x, labels=np.array([0, 1]), mode="infer", keep=[out])
    assert np.allclose(acts[out], np.maximum(x, 0), atol=1e-6)


def test_residual_projection_when_channels_differ():
    b = SpecBuilder("proj")
    b.add("x", "input", c=4, h=6, w=6)
    sa = SABlockSpec(4, [1, 2], [2, 2], 1)
    out = build_sa_residual(b, "blk", "x", 4, sa, 16, 6, 6)
    b.add("head.gap", "gap", [out])
    b.add("head.fc", "dense", ["head.gap"], **{"in": 16, "out": 2})
    b.add("loss", "softmax_xent", ["head.fc"])
    spec = b.build()
    assert propagate_shapes(spec)[out] == (16, 6, 6)
    assert "blk.proj" in spec


def test_downsample_mode_variants_build_and_run():
    for mode in ("max", "avg", "conv", "dilated"):
        spec, out = sa_only_spec(3, [1, 2], [2, 2], 9, 9, downsample=mode)
        shapes = propagate_shapes(spec)
        assert shapes[out] == (4, 9, 9), mode
        assert shapes["sa.x2.down"][1] == math.ceil(9 / 2), mode
        g = Graph(spec, seed=1)
        y = g.forward(np.ones((1, 3, 9, 9), dtype=np.float32), labels=np.array([0]),
                      keep=[out])
        assert np.all(np.isfinite(y[out]))
