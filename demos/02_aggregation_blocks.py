"""Anatomy of a scale-aggregation block.

Each branch downsamples by its factor (ceil mode, so awkward sizes work),
convolves, and upsamples back; the concat emits the per-scale channel sum
at the original resolution. The demo prints the branch structure at a
divisible size and at the two classic non-divisible ones.
"""

import numpy as np

from sakit import Graph, SABlockSpec, build_sa_block
from sakit.netspec import SpecBuilder


def show(c_in, scales, channels, h, w):
    b = SpecBuilder("sa-demo")
    b.add("x", "input", c=c_in, h=h, w=w)
    out = build_sa_block(b, "sa", "x", SABlockSpec(c_in, scales, channels, 1), h, w)
    b.add("g", "gap", [out])
    b.add("fc", "dense", ["g"], **{"in": sum(channels), "out": 2})
    b.add("loss", "softmax_xent", ["fc"])
    spec = b.build()
    shapes = spec.shapes
    print(f"\ninput {c_in}x{h}x{w}, scales {scales}, channels {channels}:")
    for node in spec.nodes:
        if node.name.startswith("sa."):
            c, hh, ww = shapes[node.name]
            print(f"  {node.name:14s} {node.op:9s} -> {c:3d} x {hh:2d} x {ww:2d}")
    print(f"  output: {shapes[out]} (channels = sum of allocation)")
    graph = Graph(spec, seed=0)
    acts = graph.forward(np.random.default_rng(0).normal(
        size=(2, c_in, h, w)).astype(np.float32), labels=np.array([0, 1]), keep=[out])
    assert acts[out].shape == (2, sum(channels), h, w)


show(8, [1, 2, 4], [4, 2, 2], 16, 16)
show(8, [1, 2, 4, 7], [4, 2, 1, 1], 14, 14)   # ceil(14/4)=4, ceil(14/7)=2
show(8, [1, 2, 4, 7], [4, 2, 1, 1], 7, 7)     # factor 7 on a 7x7 map -> 1x1

print("\nscales allocated zero channels are omitted entirely:")
show(8, [1, 2, 4], [4, 0, 2], 16, 16)
