"""Finite-difference spot checks per op; the acceptance suite runs the full
50-shape sweep."""

import pytest

from fd_harness import OPS_UNDER_TEST, check_op

from sakit.netspec import KNOWN_OPS


def test_every_known_op_is_gradchecked():
    """The input node has no kernel; every other op's executor branch is
    checked against finite differences below."""
    assert sorted((*OPS_UNDER_TEST, "input")) == sorted(KNOWN_OPS)


@pytest.mark.parametrize("op", OPS_UNDER_TEST)
def test_op_gradient_matches_finite_differences(op):
    worst, failures = check_op(op, shapes=6, seed=20240)
    assert not failures, failures
    assert worst < 1e-5
