import itertools
import math

import numpy as np
import pytest

from sakit import ops
from sakit.netspec import conv_out_dim, pool_out_dim
from sakit.rng import stream


# Reference kernels: two-pass training batchnorm by broadcast contractions
# and affine inference batchnorm, where-relu, the tap-loop maxpool forward,
# the argmax-and-where maxpool backward and the padded avgpool that the
# current kernels replaced, and a fancy-index conv forward and backward (dx
# by phases) with the kernel's GEMMs. The current kernels must give the same
# bytes. The col2im scatter that dx by phases replaced is a float64
# tolerance reference.

def _patches_by_index(x, k, stride, dilation, pad):
    # (N, Cin*k*k, Ho*Wo) patch matrices of the zero-padded input, rows in
    # (Cin, k, k) order, by fancy indexing; each image's is contiguous
    n, cin, h, wd = x.shape
    ho = conv_out_dim(h, k, stride, dilation, pad)
    wo = conv_out_dim(wd, k, stride, dilation, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    rows = np.arange(k)[:, None] * dilation + np.arange(ho)[None, :] * stride
    cols = np.arange(k)[:, None] * dilation + np.arange(wo)[None, :] * stride
    p = xp[:, :, rows[:, None, :, None], cols[None, :, None, :]]
    # fancy indexing may lay the index axes out first
    return np.ascontiguousarray(p.reshape(n, cin * k * k, ho * wo))


def _conv_oracle(x, w, stride, dilation, pad):
    # one W @ P_i per image, the kernel's BLAS call on identically laid-out
    # operands, so the bytes match on any BLAS kernel set; one GEMM over the
    # whole batch rounds differently
    n, _, h, wd = x.shape
    cout, _, k, _ = w.shape
    ho = conv_out_dim(h, k, stride, dilation, pad)
    wo = conv_out_dim(wd, k, stride, dilation, pad)
    patches = _patches_by_index(x, k, stride, dilation, pad)
    return np.stack([w.reshape(cout, -1) @ p for p in patches]).reshape(n, cout, ho, wo)


def _conv_backward_oracle(dy, x, w, stride, dilation, pad):
    # dw.T = sum of P_i @ dy_i.T in image order. dx by phases: input index
    # q * stride + r along an axis gets w[a] * dy[q + (r + pad - a * dilation)
    # / stride] from each tap a, last tap first, whose offset divides; each
    # phase with taps is one GEMM per image of W.T, restricted to its taps,
    # and its fancy-indexed patches of the zero-padded dy, and a phase with
    # no taps is zero. These are the kernel's BLAS calls on identically
    # laid-out operands, so the bytes match on any kernel set
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    dyf = dy.reshape(n, cout, -1)
    dwt = np.zeros((cin * k * k, cout), dtype=dy.dtype)
    for dyi, p in zip(dyf, _patches_by_index(x, k, stride, dilation, pad)):
        dwt += p @ dyi.T
    dx = np.zeros(x.shape, dtype=dy.dtype)
    reach = [[(a, (r + pad - a * dilation) // stride) for a in reversed(range(k))
              if (r + pad - a * dilation) % stride == 0] for r in range(stride)]
    m = k * dilation + pad  # |offset| <= m, so a margin of m holds every read
    dyp = np.pad(dy, ((0, 0), (0, 0), (m, m + h), (m, m + wd)))
    for r, c in itertools.product(range(stride), repeat=2):
        out = dx[:, :, r::stride, c::stride]
        if not reach[r] or not reach[c]:
            continue
        (ra, ro), (cb, co) = (zip(*reach[t]) for t in (r, c))
        rows = np.array(ro)[:, None] + np.arange(out.shape[2]) + m
        cols = np.array(co)[:, None] + np.arange(out.shape[3]) + m
        p = dyp[:, :, rows[:, None, :, None], cols[None, :, None, :]]
        p = np.ascontiguousarray(p.reshape(n, -1, out.shape[2] * out.shape[3]))
        wp = w.transpose(1, 0, 2, 3)[:, :, np.array(ra)[:, None], list(cb)].reshape(cin, -1)
        for i in range(n):
            out[i] = (wp @ p[i]).reshape(out.shape[1:])
    return dx, dwt.T.reshape(w.shape)


def _conv_dx_scatter(dy, x_shape, w, stride, dilation, pad):
    # dx as col2im: dP = W.T @ dy_i, each tap's rows added into a zero-padded
    # buffer in row-major tap order, then cropped; a float64 reference
    n, cin, h, wd = x_shape
    cout, _, k, _ = w.shape
    ho, wo = dy.shape[2:]
    dp = np.matmul(w.reshape(cout, -1).T, dy.reshape(n, cout, -1)).reshape(n, cin, k, k, ho, wo)
    dxp = np.zeros((n, cin, h + 2 * pad, wd + 2 * pad), dtype=dy.dtype)
    for a in range(k):
        for b in range(k):
            dxp[:, :, a * dilation:a * dilation + ho * stride:stride,
                b * dilation:b * dilation + wo * stride:stride] += dp[:, :, a, b]
    return dxp[:, :, pad:pad + h, pad:pad + wd]


def _batchnorm_oracle(x, gamma, beta, eps, training, running_mean, running_var):
    if not training:
        # the kernel's affine map per channel: x * a + (beta - mean * a)
        inv_std = 1.0 / np.sqrt(running_var + eps)
        a = gamma * inv_std
        shift = beta - running_mean * a
        return x * a[None, :, None, None] + shift[None, :, None, None], None, inv_std, running_var
    # the statistics as einsum contractions, y with gamma * inv_std folded
    m = x.shape[0] * x.shape[2] * x.shape[3]
    centered = x - (np.einsum("nchw->c", x) / m)[None, :, None, None]
    var = np.einsum("nchw,nchw->c", centered, centered) / m
    inv_std = 1.0 / np.sqrt(var + eps)
    y = centered * (gamma * inv_std)[None, :, None, None] + beta[None, :, None, None]
    return y, centered * inv_std[None, :, None, None], inv_std, var


def _batchnorm_backward_oracle(dy, xhat, inv_std, gamma):
    m = dy.shape[0] * dy.shape[2] * dy.shape[3]
    dgamma, dbeta = np.einsum("nchw,nchw->c", dy, xhat), np.einsum("nchw->c", dy)
    scale = (gamma * inv_std)[None, :, None, None]
    mean_dy = (dbeta / m)[None, :, None, None]
    mean_dy_xhat = (dgamma / m)[None, :, None, None]
    dx = scale * (dy - mean_dy - xhat * mean_dy_xhat)
    return dx, dgamma, dbeta


def _pool_padded(x, k, stride, pad, ceil, fill):
    # (xp, ho, wo): x inside a ``fill`` buffer that holds every window, at
    # least (ho - 1) * stride + k cells and the padded input along each axis
    n, c, h, w = x.shape
    ho, wo = (pool_out_dim(d, k, stride, pad, ceil) for d in (h, w))
    xp = np.full((n, c, max((ho - 1) * stride + k, h + 2 * pad),
                  max((wo - 1) * stride + k, w + 2 * pad)), fill, dtype=x.dtype)
    xp[:, :, pad:pad + h, pad:pad + w] = x
    return xp, ho, wo


def _maxpool_forward_oracle(x, k, stride, pad, ceil):
    # an in-place maximum per tap, taps in row-major order, over the -inf
    # padded input
    xp, ho, wo = _pool_padded(x, k, stride, pad, ceil, -np.inf)
    y = xp[:, :, 0:ho * stride:stride, 0:wo * stride:stride].copy()
    for t in range(1, k * k):
        a, b = divmod(t, k)
        np.maximum(y, xp[:, :, a:a + ho * stride:stride, b:b + wo * stride:stride], out=y)
    return y


def _maxpool_backward_oracle(dy, x, k, stride, pad, ceil):
    # the argmax by a strict ">" scan over the -inf padded input, from each
    # window's first tap that reads an input cell
    n, c, h, w = x.shape
    xp, ho, wo = _pool_padded(x, k, stride, pad, ceil, -np.inf)
    inside = _pool_padded(np.ones((1, 1, h, w), dtype=bool), k, stride, pad, ceil, False)[0]
    y = xp[:, :, 0:ho * stride:stride, 0:wo * stride:stride].copy()
    arg = np.zeros(y.shape, dtype=np.int16)
    for t in reversed(range(k * k)):
        a, b = divmod(t, k)
        arg[:, :, inside[0, 0, a:a + ho * stride:stride, b:b + wo * stride:stride]] = t
    for t in range(1, k * k):
        a, b = divmod(t, k)
        tap = xp[:, :, a:a + ho * stride:stride, b:b + wo * stride:stride]
        arg[tap > y] = t
        y = np.maximum(y, tap)
    dxp = np.zeros(xp.shape, dtype=dy.dtype)
    for t in range(k * k):
        a, b = divmod(t, k)
        dxp[:, :, a:a + ho * stride:stride, b:b + wo * stride:stride] += np.where(arg == t, dy, 0)
    return dxp[:, :, pad:pad + h, pad:pad + w]


def _avgpool_oracle(x, dy, k, stride, pad, ceil):
    # (y, dx) by the padded tap loop: every tap adds the zero-padded input
    # into the sum and a 0/1 mask of input cells into the counts, and adds
    # its share dy / counts into a zeroed padded dx
    n, c, h, w = x.shape
    xp, ho, wo = _pool_padded(x, k, stride, pad, ceil, 0.0)
    valid = _pool_padded(np.ones((1, 1, h, w), dtype=x.dtype), k, stride, pad, ceil, 0.0)[0]
    total = np.zeros((n, c, ho, wo), dtype=x.dtype)
    counts = np.zeros((1, 1, ho, wo), dtype=x.dtype)
    windows = [(slice(a, a + ho * stride, stride), slice(b, b + wo * stride, stride))
               for a, b in np.ndindex(k, k)]
    for rows, cols in windows:
        total += xp[:, :, rows, cols]
        counts += valid[:, :, rows, cols]
    share = dy / counts
    dxp = np.zeros(xp.shape, dtype=dy.dtype)
    for rows, cols in windows:
        dxp[:, :, rows, cols] += share
    return total / counts, dxp[:, :, pad:pad + h, pad:pad + w]


def _same_bytes(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_conv_ones_overlap_counts():
    x = np.ones((1, 1, 3, 3))
    w = np.ones((1, 1, 3, 3))
    y, _ = ops.conv2d_forward(x, w, pad=1)
    assert y[0, 0, 1, 1] == 9
    assert y[0, 0, 0, 0] == 4
    assert y[0, 0, 0, 1] == 6


def test_conv_dilated_strided_shape():
    y, _ = ops.conv2d_forward(np.ones((1, 1, 8, 8)), np.ones((1, 1, 3, 3)),
                              stride=2, dilation=2, pad=0)
    assert y.shape == (1, 1, 2, 2)


def test_conv_matches_direct_sum():
    rng = stream(0, "conv-direct")
    x = rng.normal(size=(2, 3, 6, 7))
    w = rng.normal(size=(4, 3, 3, 3))
    for stride, dil, pad in [(1, 1, 1), (2, 1, 0), (1, 2, 2), (2, 2, 2)]:
        y, _ = ops.conv2d_forward(x, w, stride, dil, pad)
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        n, cout, ho, wo = y.shape
        for i in range(ho):
            for j in range(wo):
                ref = np.einsum("ncab,ocab->no",
                                xp[:, :, i * stride:i * stride + 2 * dil + 1:dil,
                                   j * stride:j * stride + 2 * dil + 1:dil], w)
                assert np.allclose(y[:, :, i, j], ref, atol=1e-12)


def test_conv_1x1_path_matches_im2col():
    rng = stream(0, "conv-1x1")
    x = rng.normal(size=(2, 5, 4, 4))
    w = rng.normal(size=(3, 5, 1, 1))
    fast, _ = ops.conv2d_forward(x, w)
    ref = np.einsum("nchw,oc->nohw", x, w[:, :, 0, 0])
    assert np.allclose(fast, ref, atol=1e-12)


def test_maxpool_examples():
    x = np.array([[1., 2.], [3., 4.]]).reshape(1, 1, 2, 2)
    y, _ = ops.maxpool2d_forward(x, k=2, stride=2)
    assert y.reshape(-1).tolist() == [4.0]
    y, _ = ops.avgpool2d_forward(x, k=2, stride=2)
    assert y.reshape(-1).tolist() == [2.5]


def test_ceil_mode_output_dims():
    x = np.arange(49, dtype=float).reshape(1, 1, 7, 7)
    y, _ = ops.maxpool2d_forward(x, k=2, stride=2, ceil_mode=True)
    assert y.shape == (1, 1, 4, 4)
    # window-equals-stride ceil pooling gives exactly ceil(H/s)
    for h in range(1, 65):
        for s in (1, 2, 4, 7):
            ho, _ = ops._pool_geometry((1, 1, h, h), s, s, 0, True)
            assert ho == math.ceil(h / s)
    # a last window that would start in the right padding is dropped, so
    # every window of a pool with pad <= k // 2 holds an input cell
    x = np.arange(25, dtype=float).reshape(1, 1, 5, 5)
    y, _ = ops.maxpool2d_forward(x, k=2, stride=2, pad=1, ceil_mode=True)
    assert y[0, 0].tolist() == [[0, 2, 4], [10, 12, 14], [20, 22, 24]]
    y, _ = ops.avgpool2d_forward(x, k=2, stride=2, pad=1, ceil_mode=True)
    assert y.shape == (1, 1, 3, 3)
    for h in range(1, 12):
        for k in range(1, 5):
            for s in range(1, 5):
                for p in range(k // 2 + 1):
                    x = np.ones((1, 1, h, h))
                    y, _ = ops.maxpool2d_forward(x, k, s, p, ceil_mode=True)
                    assert np.all(y == 1), (h, k, s, p)
                    ho = math.ceil((h + 2 * p - k) / s) + 1 if h + 2 * p >= k else 1
                    if (ho - 1) * s >= h + p:
                        ho -= 1
                    assert y.shape[2] == ho, (h, k, s, p)


def test_maxpool_backward_routes_to_argmax_only():
    rng = stream(1, "pool")
    x = rng.permutation(np.arange(36.0)).reshape(1, 1, 6, 6)
    y, cache = ops.maxpool2d_forward(x, k=2, stride=2)
    dy = rng.normal(size=y.shape)
    dx = ops.maxpool2d_backward(dy, cache)
    # conservation: total deposited equals incoming
    assert np.isclose(dx.sum(), dy.sum())
    # deposits only where forward found the max
    for i in range(3):
        for j in range(3):
            window = x[0, 0, 2 * i:2 * i + 2, 2 * j:2 * j + 2]
            grad_win = dx[0, 0, 2 * i:2 * i + 2, 2 * j:2 * j + 2]
            mask = window == window.max()
            assert np.all(grad_win[~mask] == 0)
            assert np.isclose(grad_win[mask].sum(), dy[0, 0, i, j])


def test_maxpool_tie_break_first_index():
    x = np.zeros((1, 1, 2, 2))
    y, cache = ops.maxpool2d_forward(x, k=2, stride=2)
    dx = ops.maxpool2d_backward(np.ones_like(y), cache)
    assert dx[0, 0, 0, 0] == 1.0 and dx.sum() == 1.0


def test_avgpool_ceil_counts_valid_cells_only():
    x = np.ones((1, 1, 3, 3))
    y, _ = ops.avgpool2d_forward(x, k=2, stride=2, ceil_mode=True)
    # corner windows average 1, 2 or 4 valid ones -> all outputs stay 1
    assert np.allclose(y, 1.0)


def test_resize_examples():
    x = np.array([[1., 2.], [3., 4.]]).reshape(1, 1, 2, 2)
    y, _ = ops.resize_nearest_forward(x, 4, 4)
    assert np.array_equal(y[0, 0], np.array(
        [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], dtype=float))
    y, _ = ops.resize_nearest_forward(x, 2, 2)
    assert np.array_equal(y, x)
    y, _ = ops.resize_nearest_forward(x, 3, 3)
    assert np.array_equal(y[0, 0], np.array(
        [[1, 1, 2], [1, 1, 2], [3, 3, 4]], dtype=float))


def test_resize_index_map_oracle():
    rng = stream(2, "resize")
    x = rng.normal(size=(1, 2, 5, 3))
    for oh, ow in [(7, 7), (5, 3), (10, 9), (2, 2), (1, 1), (13, 4)]:
        y, _ = ops.resize_nearest_forward(x, oh, ow)
        for i in range(oh):
            for j in range(ow):
                assert np.array_equal(y[0, :, i, j],
                                      x[0, :, (i * 5) // oh, (j * 3) // ow])


def test_resize_backward_is_exact_adjoint():
    # scatter-add adjoint: <resize(x), dy> == <x, resize_backward(dy)>
    rng = stream(3, "resize-adj")
    for hw in [(3, 3, 7, 7), (4, 6, 4, 6), (5, 2, 3, 9), (6, 6, 3, 3)]:
        h, w, oh, ow = hw
        x = rng.normal(size=(2, 3, h, w))
        y, cache = ops.resize_nearest_forward(x, oh, ow)
        dy = rng.normal(size=y.shape)
        dx = ops.resize_nearest_backward(dy, cache)
        assert np.isclose((y * dy).sum(), (x * dx).sum())


def _resize_forward_oracle(x, out_h, out_w):
    """Nearest resize as a fancy-index gather of each output's source pixel."""
    h, w = x.shape[2:]
    src_r = (np.arange(out_h) * h) // out_h
    src_c = (np.arange(out_w) * w) // out_w
    return np.ascontiguousarray(x[:, :, src_r[:, None], src_c[None, :]])


def _resize_backward_oracle(dy, h, w):
    """Upsampling: reduceat from searchsorted run starts, rows then columns;
    otherwise np.add.at of every output cell onto its source, row-major."""
    out_h, out_w = dy.shape[2:]
    src_r = (np.arange(out_h) * h) // out_h
    src_c = (np.arange(out_w) * w) // out_w
    if h <= out_h and w <= out_w:
        tmp = np.add.reduceat(dy, np.searchsorted(src_r, np.arange(h)), axis=2)
        return np.add.reduceat(tmp, np.searchsorted(src_c, np.arange(w)), axis=3)
    dx = np.zeros(dy.shape[:2] + (h, w), dtype=dy.dtype)
    rr = np.broadcast_to(src_r[:, None], (out_h, out_w))
    cc = np.broadcast_to(src_c[None, :], (out_h, out_w))
    np.add.at(dx, (slice(None), slice(None), rr, cc), dy)
    return dx


# (h, w) -> (out_h, out_w) of every resize in the builders' seed nets (resnet50
# with scales 1,2,4,7 at 224; cifar-n1 with 1,2,4 in each downsample mode), then
# an identity and a non-square upsampling
_BUILDER_RESIZES = [
    (1, 1, 7, 7), (2, 2, 7, 7), (2, 2, 8, 8), (2, 2, 14, 14), (4, 4, 7, 7), (4, 4, 8, 8),
    (4, 4, 14, 14), (4, 4, 16, 16), (4, 4, 28, 28), (7, 7, 14, 14), (7, 7, 28, 28),
    (8, 8, 16, 16), (8, 8, 32, 32), (8, 8, 56, 56), (14, 14, 28, 28), (14, 14, 56, 56),
    (16, 16, 32, 32), (28, 28, 56, 56), (3, 3, 3, 3), (3, 5, 10, 11)]


def _one_nan(a):
    """a with every NaN set to np.nan. Where NaNs of both signs meet in one
    add (np.nan and the -nan of inf + -inf), numpy keeps one operand's or
    the other's by the cell's place in a SIMD vector, so that sign is not
    pinned."""
    return np.where(np.isnan(a), np.nan, a).astype(a.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_resize_upsampling_bytes_match_gather_and_reduceat_oracle(dtype):
    rng = stream(4, "resize-bytes")
    hard = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf], dtype=dtype)
    for h, w, oh, ow in _BUILDER_RESIZES:
        x = rng.normal(size=(2, 3, h, w)).astype(dtype)
        y, cache = ops.resize_nearest_forward(x, oh, ow)
        want = _resize_forward_oracle(x, oh, ow)
        assert y.dtype == dtype and y.shape == want.shape
        assert y.tobytes() == want.tobytes(), (h, w, oh, ow)
        dy = rng.normal(size=y.shape).astype(dtype)
        zeros = rng.choice(hard[:2], size=y.shape)  # signed zeros only: each sum's sign is pinned
        mixed = np.where(rng.random(y.shape) < 0.3, rng.choice(hard, size=y.shape), dy)
        for dy, pin in ((dy, np.asarray), (zeros, np.asarray), (mixed, _one_nan)):
            with np.errstate(invalid="ignore"):
                dx = ops.resize_nearest_backward(dy, cache)
                want = _resize_backward_oracle(dy, h, w)
            assert dx.dtype == dtype and dx.shape == x.shape
            assert pin(dx).tobytes() == pin(want).tobytes(), (h, w, oh, ow)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_resize_backward_sums_a_long_run_first_then_left_to_right(dtype):
    # 2 -> 30 gives runs of 15, where reduceat would switch to pairwise sums
    rng = stream(4, "resize-long-run")
    y, cache = ops.resize_nearest_forward(np.zeros((2, 3, 2, 2), dtype=dtype), 30, 30)
    dy = (rng.normal(size=y.shape) * 10.0 ** rng.integers(-6, 7, size=y.shape)).astype(dtype)

    def first_then_left_to_right(cells):
        rest = cells[1]
        for c in cells[2:]:
            rest = rest + c
        return cells[0] + rest

    rows = np.empty((2, 3, 2, 30), dtype=dtype)
    for i, j, r, col in np.ndindex(rows.shape):
        rows[i, j, r, col] = first_then_left_to_right(dy[i, j, 15 * r:15 * r + 15, col])
    want = np.empty((2, 3, 2, 2), dtype=dtype)
    for i, j, r, col in np.ndindex(want.shape):
        want[i, j, r, col] = first_then_left_to_right(rows[i, j, r, 15 * col:15 * col + 15])
    assert _same_bytes(ops.resize_nearest_backward(dy, cache), want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_resize_downsampling_and_mixed_match_scatter_oracle(dtype):
    # np.add.at sums each source's cells in output row-major order, the kernel
    # rows first, so sums of several cells may differ in the last bit
    rng = stream(5, "resize-down")
    for h, w, oh, ow in [(7, 7, 3, 3), (6, 6, 1, 1), (8, 8, 4, 4), (5, 9, 3, 12),
                         (9, 4, 4, 9), (4, 6, 4, 3), (10, 3, 7, 3), (3, 3, 2, 5)]:
        x = rng.normal(size=(2, 3, h, w)).astype(dtype)
        y, cache = ops.resize_nearest_forward(x, oh, ow)
        assert y.tobytes() == _resize_forward_oracle(x, oh, ow).tobytes(), (h, w, oh, ow)
        dy = rng.normal(size=y.shape).astype(dtype)
        dx = ops.resize_nearest_backward(dy, cache)
        assert dx.dtype == dtype and dx.shape == x.shape
        assert np.allclose(dx, _resize_backward_oracle(dy, h, w)), (h, w, oh, ow)
        assert np.isclose((y * dy).sum(dtype=np.float64), (x * dx).sum(dtype=np.float64))
        unread_r = np.setdiff1d(np.arange(h), (np.arange(oh) * h) // oh)
        unread_c = np.setdiff1d(np.arange(w), (np.arange(ow) * w) // ow)
        assert not dx[:, :, unread_r].any() and not dx[:, :, :, unread_c].any()


def test_pool_then_resize_restores_dims():
    for h in range(1, 65, 7):
        for w in range(1, 65, 9):
            for s in (1, 2, 4, 7):
                x = np.zeros((1, 1, h, w))
                p, _ = ops.maxpool2d_forward(x, k=s, stride=s, ceil_mode=True)
                assert p.shape[2:] == (math.ceil(h / s), math.ceil(w / s))
                y, _ = ops.resize_nearest_forward(p, h, w)
                assert y.shape == x.shape


def test_batchnorm_examples():
    x = np.array([1.0, 3.0]).reshape(2, 1, 1, 1)
    gamma, beta = np.ones(1), np.zeros(1)
    rm, rv = np.zeros(1), np.ones(1)
    y, _, _, _ = ops.batchnorm2d_forward(x, gamma, beta, rm, rv, eps=0.0)
    assert np.allclose(np.sort(y.reshape(-1)), [-1.0, 1.0])
    y, _, _, _ = ops.batchnorm2d_forward(x, np.zeros(1), np.full(1, 0.7), rm, rv)
    assert np.allclose(y, 0.7)


def test_batchnorm_single_element_rejected():
    x = np.ones((1, 2, 1, 1))
    with pytest.raises(ValueError, match=">= 2"):
        ops.batchnorm2d_forward(x, np.ones(2), np.zeros(2), np.zeros(2), np.ones(2))


def test_batchnorm_train_stats_property():
    rng = stream(4, "bn")
    x = rng.normal(2.0, 3.0, size=(4, 3, 5, 5))
    gamma, beta = np.ones(3), np.zeros(3)
    y, _, _, _ = ops.batchnorm2d_forward(x, gamma, beta, np.zeros(3), np.ones(3),
                                         eps=1e-12)
    mean = y.mean(axis=(0, 2, 3))
    var = y.var(axis=(0, 2, 3))
    assert np.all(np.abs(mean) < 1e-5)
    assert np.all(np.abs(var - 1) < 1e-3)


def test_batchnorm_running_stats_blend():
    x = np.array([0.0, 2.0]).reshape(2, 1, 1, 1)
    y, _, new_mean, new_var = ops.batchnorm2d_forward(
        x, np.ones(1), np.zeros(1), np.zeros(1), np.ones(1), momentum=0.5)
    assert np.isclose(new_mean[0], 0.5)  # 0.5*0 + 0.5*1
    assert np.isclose(new_var[0], 1.0)   # 0.5*1 + 0.5*1
    # inference mode uses the running stats, not the batch
    y, _, m2, v2 = ops.batchnorm2d_forward(
        x, np.ones(1), np.zeros(1), new_mean, new_var, training=False)
    assert np.allclose(y.reshape(-1), (x.reshape(-1) - 0.5) / np.sqrt(1.0 + 1e-5))
    assert m2 is new_mean and v2 is new_var


def test_concat_and_slice_recovery():
    rng = stream(5, "cat")
    xs = [rng.normal(size=(2, c, 3, 3)) for c in (2, 3, 1)]
    y, sizes = ops.concat_channels_forward(xs)
    assert y.shape == (2, 6, 3, 3)
    parts = ops.concat_channels_backward(y, sizes)
    for part, x in zip(parts, xs):
        assert np.array_equal(part, x)
    y1, _ = ops.concat_channels_forward([xs[0]])
    assert np.array_equal(y1, xs[0])


def test_residual_add():
    x = stream(6, "add").normal(size=(2, 3, 4, 4))
    assert np.array_equal(ops.add_forward(x, np.zeros_like(x)), x)


def test_softmax_xent_uniform_logits():
    loss, _ = ops.softmax_cross_entropy_forward(np.zeros((1, 2)), np.array([0]))
    assert np.isclose(loss, np.log(2.0))


def test_softmax_xent_label_range():
    with pytest.raises(ValueError, match="label out of range"):
        ops.softmax_cross_entropy_forward(np.zeros((1, 2)), np.array([2]))


def test_relu():
    y, mask = ops.relu_forward(np.array([-1.0, 2.0]))
    assert y.tolist() == [0.0, 2.0]
    assert ops.relu_backward(np.array([5.0, 5.0]), mask).tolist() == [0.0, 5.0]


def test_dense_and_gap():
    x = np.array([[1.0, 2.0]])
    w = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 3.0]])
    b = np.array([0.5, 0.5, 0.5])
    y, _ = ops.dense_forward(x, w, b)
    assert np.allclose(y, [[1.5, 2.5, 8.5]])
    g, cache = ops.global_avg_pool_forward(np.arange(8.0).reshape(1, 2, 2, 2))
    assert np.allclose(g, [[1.5, 5.5]])
    dg = ops.global_avg_pool_backward(np.ones((1, 2)), cache)
    assert np.allclose(dg, 0.25)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_bytes_match_im2col_oracle(dtype):
    rng = stream(7, "conv-oracle")
    # (n, cin, h, w, cout, k, stride, dilation, pad): 3x3 grid, the k7 s2 p3
    # stem, dilated, strided 1x1 and an even-sized kernel
    cases = [(2, c, 9, 11, 5, 3, s, d, p) for c in (1, 6) for s in (1, 2)
             for d in (1, 2) for p in (0, 1, 2)]
    cases += [(2, 3, 23, 23, 8, 7, 2, 1, 3), (2, 4, 15, 15, 4, 3, 1, 3, 3),
              (2, 8, 8, 8, 6, 1, 2, 1, 0), (2, 5, 10, 9, 3, 4, 2, 1, 1)]
    # the 1x1 stride-1 path; Cin 16 and 32 (whole 64-byte vectors), Cin 17,
    # Cout 1 (a matrix-vector dw) and Cin 1 at stride 2
    cases += [(4, 8, 8, 8, 6, 1, 1, 1, 0), (4, 16, 9, 9, 16, 3, 1, 1, 1),
              (4, 32, 8, 8, 8, 3, 2, 1, 1), (4, 17, 9, 9, 16, 3, 1, 1, 1),
              (8, 48, 16, 16, 1, 3, 1, 1, 1), (4, 1, 15, 15, 4, 3, 2, 1, 1)]
    # short rows: Wo*Cin < k at stride 1, and the 3-channel stem
    cases += [(3, 1, 9, 3, 3, 5, 1, 1, 2), (3, 3, 37, 29, 4, 7, 2, 1, 3)]
    # taps of the first and last kernel rows that read only padding; and 4x4
    # outputs at batch 5, 3x3 and 1x1, where one GEMM over the whole batch
    # rounds differently from one per image
    cases += [(2, 3, 1, 5, 4, 3, 1, 2, 2), (5, 64, 4, 4, 24, 3, 1, 1, 1),
              (5, 576, 4, 4, 24, 1, 1, 1, 0)]
    # pad beyond the kernel's reach, pad > dilation * (k - 1): output rows and
    # columns whose taps all read padding
    cases += [(2, 3, 6, 6, 4, 1, 1, 1, 1), (2, 3, 6, 6, 4, 3, 1, 1, 3),
              (2, 3, 6, 7, 4, 1, 2, 1, 2)]
    # dx phases with no taps: k 2 at stride 3 (phase 2 of each axis), and
    # stride 3, dilation 3, pad 4 (only phase 2 has taps, all three)
    cases += [(2, 3, 10, 13, 4, 2, 3, 1, 0), (2, 3, 11, 11, 4, 3, 3, 3, 4)]
    for n, cin, h, w, cout, k, stride, dil, pad in cases:
        x = rng.normal(size=(n, cin, h, w)).astype(dtype)
        wt = rng.normal(size=(cout, cin, k, k)).astype(dtype)
        y, cache = ops.conv2d_forward(x, wt, stride, dil, pad)
        dy = rng.normal(size=y.shape).astype(dtype)
        ref = _conv_backward_oracle(dy, x, wt, stride, dil, pad)
        assert _same_bytes(y, _conv_oracle(x, wt, stride, dil, pad)), (k, stride, dil, pad)
        got = ops.conv2d_backward(dy, wt, cache)
        for g, r in zip(got, ref):
            assert _same_bytes(g, r), (k, stride, dil, pad)
        if dtype == np.float64:
            scatter = _conv_dx_scatter(dy, x.shape, wt, stride, dil, pad)
            assert np.abs(got[0] - scatter).max() <= 1e-12 * np.abs(scatter).max(), (
                k, stride, dil, pad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batchnorm_bytes_match_two_pass_oracle(dtype):
    # the kernel's training passes take per-channel rows, the oracle's
    # broadcast; the last shapes are where the two differ most: 2x2 and 1x1
    # maps, and training at batch 1. The "hard" case puts -0.0, +-inf and
    # NaN into x (channels 0 and 1) and dy (channels 1 and 2).
    rng = stream(8, "bn-oracle")
    hard = np.array([-0.0, np.inf, -np.inf, np.nan])
    cases = [(shape, False) for shape in [(2, 3, 5, 7), (8, 16, 8, 8), (1, 4, 1, 2),
                                          (32, 64, 2, 2), (4, 8, 1, 1), (1, 4, 3, 3)]]
    for shape, is_hard in cases + [((4, 5, 3, 3), True)]:
        # where NaNs meet, dx's sign of NaN follows the order of its terms,
        # which the oracle and the kernel do not share
        pin = _one_nan if is_hard else np.asarray
        c = shape[1]
        x = (rng.normal(size=shape) * 3 + 1).astype(dtype)
        if is_hard:
            x[:, :2] = np.where(rng.random(x[:, :2].shape) < 0.3,
                                rng.choice(hard, size=x[:, :2].shape), x[:, :2])
        gamma, beta = rng.normal(size=c).astype(dtype), rng.normal(size=c).astype(dtype)
        rm, rv = rng.normal(size=c).astype(dtype), rng.uniform(0.5, 2, size=c).astype(dtype)
        for training in (True, False):
            with np.errstate(invalid="ignore"):
                y, cache, new_mean, new_var = ops.batchnorm2d_forward(
                    x, gamma, beta, rm, rv, 1e-5, 0.1, training)
                y_ref, xhat, inv_std, var = _batchnorm_oracle(
                    x, gamma, beta, 1e-5, training, rm, rv)
            assert _same_bytes(y, y_ref), (shape, training)
            if training:
                dy = rng.normal(size=shape).astype(dtype)
                if is_hard:
                    dy[:, 1:3] = np.where(rng.random(dy[:, 1:3].shape) < 0.3,
                                          rng.choice(hard, size=dy[:, 1:3].shape), dy[:, 1:3])
                with np.errstate(invalid="ignore"):
                    assert _same_bytes(new_var, 0.9 * rv + 0.1 * var)
                    got = ops.batchnorm2d_backward(dy, cache)
                    ref = _batchnorm_backward_oracle(dy, xhat, inv_std, gamma)
                for g, r in zip(got, ref):
                    assert _same_bytes(pin(g), pin(r)), shape


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mean_over_std", [0.0, 10.0, 1e3])
def test_batchnorm_inference_rounding_bounded(dtype, mean_over_std):
    # x * a + s rounds relative to |x * a|, not to |y|, and s = beta - mean * a
    # relative to |mean * a| + |beta| (not |s|: the two may cancel), so a
    # large |mean| against std costs precision; it must cost no more than
    # this, where a's relative error is about 2 eps and each product and sum
    # adds eps / 2
    rng = stream(9, "bn-affine")
    shape, eps = (4, 8, 6, 6), 1e-5
    c = shape[1]
    std = rng.uniform(0.5, 2, size=c)
    mean = mean_over_std * std * rng.choice([-1.0, 1.0], size=c)
    x = (mean[:, None, None] + std[:, None, None] * rng.normal(size=shape)).astype(dtype)
    gamma, beta = rng.normal(size=c).astype(dtype), rng.normal(size=c).astype(dtype)

    def reference_and_bound(rm, rv):
        # float64 gamma (x - mean) / sqrt(var + eps) + beta from the same inputs
        g, b, m, v = (t.astype(np.float64)[None, :, None, None] for t in (gamma, beta, rm, rv))
        a = g / np.sqrt(v + eps)
        ref = g * (x - m) / np.sqrt(v + eps) + b
        return ref, 4 * np.finfo(dtype).eps * (np.abs(x * a) + np.abs(m * a) + np.abs(b))

    rm, rv = mean.astype(dtype), np.square(std).astype(dtype)
    y, _, _, _ = ops.batchnorm2d_forward(x, gamma, beta, rm, rv, eps, training=False)
    ref, bound = reference_and_bound(rm, rv)
    assert y.dtype == dtype and np.all(np.abs(y - ref) <= bound)
    # with one batch's own mean and biased variance as running stats,
    # inference agrees with training mode on that batch
    bm, bv = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    y_train, _, _, _ = ops.batchnorm2d_forward(x, gamma, beta, rm, rv, eps, training=True)
    y_infer, _, _, _ = ops.batchnorm2d_forward(x, gamma, beta, bm, bv, eps, training=False)
    ref, bound = reference_and_bound(bm, bv)
    assert np.all(np.abs(y_infer - ref) <= bound)
    assert np.all(np.abs(y_infer.astype(np.float64) - y_train) <= bound)


def batchnorm_contraction_errors(mean_over_std):
    """{statistic: (einsum error, np.sum error)} of the training kernel's
    mean, variance and dgamma on the largest desk map, (32, 16, 32, 32) in
    float32 with its mean at ``mean_over_std`` standard deviations, against
    the same float32 terms summed in float64; np.sum is the reduction the
    contractions replaced. An error is the largest over channels of |sum -
    reference| / the sum of the terms' magnitudes."""
    shape, m = (32, 16, 32, 32), 32 * 32 * 32
    r = stream(13, "bn-rounding", mean_over_std)
    x = (mean_over_std + r.normal(size=shape)).astype(np.float32)
    dy = r.normal(size=shape).astype(np.float32)
    c = np.ones(16, dtype=np.float32)
    # momentum 1 makes the new running stats the batch's own, bit for bit
    _, cache, mean, var = ops.batchnorm2d_forward(x, c, c * 0, c * 0, c, momentum=1.0)
    xhat = cache[0].copy()
    dgamma = ops.batchnorm2d_backward(dy, cache)[1]
    centered = x - mean[None, :, None, None]

    def error(got, terms):
        terms = terms.astype(np.float64)
        ref = terms.sum(axis=(0, 2, 3))
        return float(np.max(np.abs(got - ref) / np.abs(terms).sum(axis=(0, 2, 3))))

    squares = centered.astype(np.float64) * centered
    products = dy.astype(np.float64) * xhat
    return {"mean": (error(mean * m, x), error(x.mean(axis=(0, 2, 3)) * m, x)),
            "var": (error(var * m, squares),
                    error(np.square(centered).sum(axis=(0, 2, 3)), squares)),
            "dgamma": (error(dgamma, products), error((dy * xhat).sum(axis=(0, 2, 3)), products))}


@pytest.mark.parametrize("mean_over_std", [0.0, 3.0])
def test_batchnorm_contraction_rounding_bounded(mean_over_std):
    # einsum sums each image's H*W cells in SIMD lanes, then the images one
    # by one, where np.sum sums pairwise. Over 30 other seeds einsum's error
    # was at most 2.5x np.sum's for mean and variance and 4.1x for dgamma
    # (median 2x), and every error was under 2.5 float32 eps
    for name, (einsum, pairwise) in batchnorm_contraction_errors(mean_over_std).items():
        assert einsum <= 8 * pairwise and einsum <= 4 * np.finfo(np.float32).eps, (
            name, einsum, pairwise)


@pytest.mark.parametrize("shape, k, stride, pad, ceil", [
    ((2, 3, 9, 9), 2, 2, 0, True),     # k == stride, ceil tail
    ((2, 4, 13, 17), 4, 4, 0, True),
    ((2, 3, 15, 15), 3, 2, 1, False),  # the ImageNet stem's overlapping pool
    ((2, 3, 15, 15), 3, 2, 1, True),
])
def test_maxpool_backward_bytes_match_where_oracle(shape, k, stride, pad, ceil):
    rng = stream(9, "pool-oracle")
    x = rng.normal(size=shape).astype(np.float32)
    x[:, :, :2, :2] = 1.0  # ties route to the first index
    # with pad > 0, the top row's windows here hold only -inf input cells
    # behind a padding row; they route to their first input cell
    x[:, :, :2, 3:8] = -np.inf
    y, cache = ops.maxpool2d_forward(x, k, stride, pad, ceil)
    dy = rng.normal(size=y.shape).astype(np.float32)
    assert _same_bytes(ops.maxpool2d_backward(dy, cache),
                       _maxpool_backward_oracle(dy, x, k, stride, pad, ceil))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool_forward_bytes_match_tap_loop_oracle(dtype):
    rng = stream(11, "pool-forward-oracle")
    # every arrangement of -0.0, +0.0, -1 and NaN in a 2x2 window
    ties = np.array(list(itertools.product([-0.0, 0.0, -1.0, np.nan], repeat=4)), dtype=dtype)
    assert _same_bytes(ops.maxpool2d_forward(ties.reshape(1, -1, 2, 2), 2, 2)[0],
                       _maxpool_forward_oracle(ties.reshape(1, -1, 2, 2), 2, 2, 0, False))
    values = np.array([-0.0, 0.0, -1.0, 1.0, np.nan, -np.inf], dtype=dtype)
    for x in [values[rng.integers(0, values.size, size=(2, 5, 17, 19))],
              rng.normal(size=(2, 8, 28, 28)).astype(dtype)]:
        for k, stride, pad, ceil in [(2, 2, 0, True), (3, 2, 1, False), (3, 1, 1, False),
                                     (4, 4, 0, True), (3, 3, 0, False), (1, 2, 0, False),
                                     (2, 1, 0, False), (5, 2, 2, True)]:
            assert _same_bytes(ops.maxpool2d_forward(x, k, stride, pad, ceil)[0],
                               _maxpool_forward_oracle(x, k, stride, pad, ceil)), (k, stride, pad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape, k, stride, pad, ceil", [
    ((2, 3, 9, 9), 2, 2, 0, True),     # k == stride, ceil tail
    ((2, 3, 15, 15), 3, 2, 1, False),  # overlapping, padded
    ((2, 4, 13, 17), 3, 2, 1, True),   # overlapping, padded, ceil tail
    ((2, 2, 10, 11), 3, 1, 1, False),  # stride 1
    ((1, 2, 12, 9), 5, 3, 2, True),
    ((1, 2, 8, 8), 1, 2, 0, False),    # windows skip cells
])
def test_avgpool_bytes_match_padded_oracle(shape, k, stride, pad, ceil, dtype):
    rng = stream(12, "avgpool-oracle")
    x = rng.normal(size=shape).astype(dtype)
    x[:, :, ::3, ::2] = -0.0  # a sum must not turn +0.0 into -0.0
    y, cache = ops.avgpool2d_forward(x, k, stride, pad, ceil)
    dy = rng.normal(size=y.shape).astype(dtype)
    y_ref, dx_ref = _avgpool_oracle(x, dy, k, stride, pad, ceil)
    assert _same_bytes(y, y_ref)
    assert _same_bytes(ops.avgpool2d_backward(dy, cache), dx_ref)


def test_maxpool_all_inf_window_routes_to_an_input_cell():
    # the window's first tap reads padding; its first input cell takes dy
    x = np.full((1, 1, 2, 2), -np.inf)
    y, cache = ops.maxpool2d_forward(x, k=3, stride=2, pad=1)
    dx = ops.maxpool2d_backward(np.ones_like(y), cache)
    assert y.tolist() == [[[[-np.inf]]]]
    assert dx[0, 0].tolist() == [[1.0, 0.0], [0.0, 0.0]]


def test_maxpool_nan_window_routes_no_gradient():
    x = np.array([[1.0, np.nan, 5.0, 2.0],
                  [3.0, 2.0, 5.0, 4.0]]).reshape(1, 1, 2, 4)
    y, cache = ops.maxpool2d_forward(x, k=2, stride=2)
    dx = ops.maxpool2d_backward(np.array([[[[7.0, 9.0]]]]), cache)
    assert np.isnan(y[0, 0, 0, 0]) and y[0, 0, 0, 1] == 5.0
    # the NaN window drops its gradient; the other routes to its first max only
    assert dx[0, 0].tolist() == [[0.0, 0.0, 9.0, 0.0], [0.0, 0.0, 0.0, 0.0]]


def test_relu_matches_where_oracle_and_clears_negative_zero():
    rng = stream(10, "relu-oracle")
    x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
    x[0, 0, 0, :2] = [-0.0, 0.0]
    y, cache = ops.relu_forward(x)
    assert _same_bytes(y, np.where(x > 0, x, 0))
    assert not np.signbit(y).any()
    dy = rng.normal(size=x.shape).astype(np.float32)
    # equal up to the sign of an exact zero
    assert np.array_equal(ops.relu_backward(dy, cache), np.where(x > 0, dy, 0))


def test_relu_and_maxpool_propagate_nan():
    x = np.array([np.nan, -1.0, 2.0, 0.5]).reshape(1, 1, 2, 2)
    y, _ = ops.relu_forward(x)
    assert np.isnan(y[0, 0, 0, 0]) and y.reshape(-1)[1:].tolist() == [0.0, 2.0, 0.5]
    p, _ = ops.maxpool2d_forward(x, k=2, stride=2)
    assert np.isnan(p).all()
