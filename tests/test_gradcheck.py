"""Finite-difference spot checks per op; the acceptance suite runs the full
50-shape sweep."""

import numpy as np
import pytest

from fd_harness import OPS_UNDER_TEST, check_op

from sakit.autograd import Graph, gradcheck
from sakit.netspec import KNOWN_OPS, SpecBuilder
from sakit.rng import stream


def test_every_known_op_is_gradchecked():
    """The input node has no kernel; every other op's executor branch is
    checked against finite differences below."""
    assert sorted((*OPS_UNDER_TEST, "input")) == sorted(KNOWN_OPS)


@pytest.mark.parametrize("op", OPS_UNDER_TEST)
def test_op_gradient_matches_finite_differences(op):
    worst, failures = check_op(op, shapes=6, seed=20240)
    assert not failures, failures
    assert worst < 1e-5


@pytest.mark.parametrize("k, stride, dilation, pad, size", [
    (2, 3, 1, 0, 10),  # phase 2 of each axis has no tap
    (3, 3, 3, 4, 11),  # only phase 2 has taps, all three
    (1, 2, 1, 0, 7),   # only phase (0, 0) has a tap
])
def test_conv_dx_phases_match_finite_differences(k, stride, dilation, pad, size):
    """The input's gradient of a conv reading the graph input, by phases,
    with phases that no tap reaches."""
    b = SpecBuilder("phases")
    b.add("x", "input", c=2, h=size, w=size + 1)
    b.add("c", "conv", ["x"], **{"in": 2, "out": 3, "k": k, "stride": stride,
                                 "dilation": dilation, "pad": pad})
    b.add("g", "gap", ["c"])
    b.add("fc", "dense", ["g"], **{"in": 3, "out": 3})
    b.add("loss", "softmax_xent", ["fc"])
    graph = Graph(b.build(), dtype=np.float64, seed=3)
    rng = stream(3, "phases", k, stride)
    x = rng.uniform(-1, 1, size=(2, 2, size, size + 1))
    report = gradcheck(graph, x, rng.integers(0, 3, size=2))
    assert "(input)" in [e.param for e in report.entries]
    assert report.ok and report.max_rel_err < 1e-5, report.entries
