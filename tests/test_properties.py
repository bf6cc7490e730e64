"""Property tests for serialization round trips and arithmetic invariants."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sakit import ops
from sakit.presets import AllocationPlan, parse_plan, serialize_plan

scales_strategy = st.lists(st.integers(1, 9), min_size=1, max_size=5,
                           unique=True).map(sorted)


@st.composite
def plans(draw):
    scales = draw(scales_strategy)
    n_blocks = draw(st.integers(1, 12))
    rows = {}
    for k in range(1, n_blocks + 1):
        row = draw(st.lists(st.integers(0, 500), min_size=len(scales),
                            max_size=len(scales)))
        if sum(row) == 0:
            row[0] = 1
        rows[k] = row
    source = draw(st.sampled_from(["", "seed", "run-7"]))
    exponent = draw(st.sampled_from([None, 0.0, 0.5, 1.0]))
    return AllocationPlan(scales, rows, source=source, exponent=exponent)


@given(plans())
@settings(max_examples=60, deadline=None)
def test_plan_parse_serialize_identity(plan):
    text = serialize_plan(plan)
    back = parse_plan(text)
    assert back.rows == plan.rows
    assert back.scales == plan.scales
    assert back.source == plan.source
    assert back.exponent == plan.exponent
    # serializing the parse is a fixed point (canonical form)
    assert serialize_plan(back) == text


@given(st.integers(1, 2048), st.integers(1, 6))
def test_even_split_parts_sum_and_balance(total, nparts):
    q, r = divmod(total, nparts)
    parts = [q + (1 if i < r else 0) for i in range(nparts)]
    assert sum(parts) == total
    assert max(parts) - min(parts) <= 1
    assert parts == sorted(parts, reverse=True)  # finest scales first


@given(st.integers(1, 64), st.integers(1, 64), st.sampled_from([1, 2, 3, 4, 7]))
@settings(max_examples=120, deadline=None)
def test_ceil_pool_then_resize_restores_shape(h, w, s):
    x = np.zeros((1, 1, h, w), dtype=np.float32)
    pooled, _ = ops.maxpool2d_forward(x, k=s, stride=s, ceil_mode=True)
    assert pooled.shape[2:] == (-(-h // s), -(-w // s))
    back, _ = ops.resize_nearest_forward(pooled, h, w)
    assert back.shape == x.shape


@given(st.lists(st.integers(1, 5), min_size=1, max_size=4),
       st.integers(1, 4), st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_concat_slices_recover_inputs(channel_sizes, n, h, w):
    rng = np.random.default_rng(0)
    xs = [rng.normal(size=(n, c, h, w)) for c in channel_sizes]
    y, sizes = ops.concat_channels_forward(xs)
    assert y.shape[1] == sum(channel_sizes)
    parts = ops.concat_channels_backward(y, sizes)
    for part, x in zip(parts, xs):
        assert np.array_equal(part, x)


@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 20), st.integers(1, 20))
@settings(max_examples=80, deadline=None)
def test_resize_follows_floor_index_map(h, w, oh, ow):
    x = np.arange(h * w, dtype=np.float32).reshape(1, 1, h, w)
    y, _ = ops.resize_nearest_forward(x, oh, ow)
    for i in range(oh):
        for j in range(ow):
            assert y[0, 0, i, j] == x[0, 0, (i * h) // oh, (j * w) // ow]


_POOL_VALUES = st.one_of(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 3.5, -np.inf]),
                         st.floats(width=32, allow_nan=False))


@st.composite
def pool_cases(draw):
    k = draw(st.integers(1, 4))
    stride = draw(st.integers(1, 4))
    pad = draw(st.integers(0, k // 2))
    ceil = draw(st.booleans())
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 3)),
             draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    values = draw(st.lists(_POOL_VALUES, min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    return np.array(values, dtype=np.float32).reshape(shape), k, stride, pad, ceil


@given(pool_cases())
@settings(max_examples=300, deadline=None)
def test_maxpool_inference_equals_training_bitwise(case):
    x, k, stride, pad, ceil = case
    try:
        y_train, cache = ops.maxpool2d_forward(x, k, stride, pad, ceil)
    except ValueError:  # a window that holds only padding
        assume(False)
    # one forward serves both modes; its cache is the input and output themselves
    assert cache[0] is x and cache[1] is y_train
    # value check against a per-window reference over the -inf padded input
    n, c, h, w = x.shape
    ho, wo = y_train.shape[2:]
    xp = np.full((n, c, h + 2 * pad + k * stride, w + 2 * pad + k * stride), -np.inf,
                 dtype=x.dtype)
    xp[:, :, pad:pad + h, pad:pad + w] = x
    for i in range(ho):
        for j in range(wo):
            win = xp[:, :, i * stride:i * stride + k, j * stride:j * stride + k]
            assert np.array_equal(y_train[:, :, i, j], win.max(axis=(2, 3)))
