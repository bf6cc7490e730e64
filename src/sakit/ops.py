"""Layer kernels in NCHW layout, each a forward/backward pair over ndarrays.

Convolution is cross-correlation via one matmul over patches gathered by k*k
strided slice copies from an NHWC copy of the padded input; its input
gradient is reconstructed with a k*k tap loop of strided slice adds
(collision-free per tap), which keeps backward vectorized and deterministic.
Caches hold inputs, not copies: conv and batchnorm keep their input, and
backward recomputes the patches and ``xhat`` with the forward's expressions;
relu is ``maximum(x, 0)`` and keeps its output. Max pooling folds each tap
into its output with an in-place maximum; only training also records the
argmax that backward masks its taps with.
"""

import numpy as np

from .netspec import conv_out_dim, pool_out_dim


def _patches(x, k, stride, dilation, pad, ho, wo):
    """(N*Ho*Wo, Cin*k*k) patch matrix of x, filled in (N, Ho, Wo, Cin, k, k)
    order by k*k strided slice copies of an NHWC copy of the padded input."""
    n, cin, h, w = x.shape
    xh = np.zeros((n, h + 2 * pad, w + 2 * pad, cin), dtype=x.dtype)
    xh[:, pad:pad + h, pad:pad + w] = x.transpose(0, 2, 3, 1)
    patches = np.empty((n, ho, wo, cin, k, k), dtype=x.dtype)
    he, we = (ho - 1) * stride + 1, (wo - 1) * stride + 1
    for a, b in np.ndindex(k, k):
        ra, cb = a * dilation, b * dilation
        patches[..., a, b] = xh[:, ra:ra + he:stride, cb:cb + we:stride]
    return patches.reshape(n * ho * wo, cin * k * k)


def conv2d_forward(x, w, stride=1, dilation=1, pad=0):
    """Cross-correlate x (N,Cin,H,W) with w (Cout,Cin,k,k).

    Output dims follow ``netspec.conv_out_dim``. Returns (y, cache); the
    cache holds x itself, not its patches. 1x1 stride-1 convs take a
    patch-free channel-mix path.
    """
    n, cin, h, wd = x.shape
    cout, cin_w, k, _ = w.shape
    if cin != cin_w:
        raise ValueError(f"conv expects {cin_w} input channels, got {cin}")
    ho = conv_out_dim(h, k, stride, dilation, pad)
    wo = conv_out_dim(wd, k, stride, dilation, pad)
    if ho < 1 or wo < 1:
        raise ValueError(f"non-positive conv output dims {ho}x{wo}")
    cache = (x, stride, dilation, pad)
    if k == 1 and stride == 1 and pad == 0:
        y = np.tensordot(w[:, :, 0, 0], x, axes=([1], [1])).transpose(1, 0, 2, 3)
        return np.ascontiguousarray(y), cache
    y = _patches(x, k, stride, dilation, pad, ho, wo) @ w.reshape(cout, -1).T
    y = y.reshape(n, ho, wo, cout).transpose(0, 3, 1, 2)
    return np.ascontiguousarray(y), cache


def conv2d_backward(dy, w, cache):
    """Gradients (dx, dw) for conv2d_forward; dw rebuilds the forward's patches."""
    x, stride, dilation, pad = cache
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    if k == 1 and stride == 1 and pad == 0:
        w2 = w[:, :, 0, 0]
        dx = np.tensordot(w2.T, dy, axes=([1], [1])).transpose(1, 0, 2, 3)
        dw = np.tensordot(dy, x, axes=([0, 2, 3], [0, 2, 3])).reshape(w.shape)
        return np.ascontiguousarray(dx), dw
    ho, wo = dy.shape[2:]
    dyf = dy.transpose(0, 2, 3, 1).reshape(n * ho * wo, cout)
    dw = (dyf.T @ _patches(x, k, stride, dilation, pad, ho, wo)).reshape(w.shape)
    dpatch = dyf @ w.reshape(cout, -1)
    dpatch = dpatch.reshape(n, ho, wo, cin, k, k).transpose(0, 3, 1, 2, 4, 5)
    dxp = np.zeros((n, cin, h + 2 * pad, wd + 2 * pad), dtype=dy.dtype)
    hs, ws = ho * stride, wo * stride
    for a in range(k):
        ra = a * dilation
        for b in range(k):
            cb = b * dilation
            dxp[:, :, ra:ra + hs:stride, cb:cb + ws:stride] += dpatch[:, :, :, :, a, b]
    dx = dxp[:, :, pad:pad + h, pad:pad + wd] if pad else dxp
    return dx, dw


def _pool_geometry(x_shape, k, stride, pad, ceil_mode):
    h, w = x_shape[2], x_shape[3]
    ho = pool_out_dim(h, k, stride, pad, ceil_mode)
    wo = pool_out_dim(w, k, stride, pad, ceil_mode)
    if ho < 1 or wo < 1:
        raise ValueError(f"pool window {k} stride {stride} pad {pad} leaves no "
                         f"valid output on {h}x{w} input")
    return (ho, wo), ((ho - 1) * stride + k, (wo - 1) * stride + k)


def _padded(x, pad, need_h, need_w, fill):
    n, c, h, w = x.shape
    if pad == 0 and (need_h, need_w) == (h, w):
        return x
    # floor mode can discard a tail, so the buffer must still hold the input
    ph, pw = max(need_h, h + 2 * pad), max(need_w, w + 2 * pad)
    xp = np.full((n, c, ph, pw), fill, dtype=x.dtype)
    xp[:, :, pad:pad + h, pad:pad + w] = x
    return xp


def maxpool2d_forward(x, k, stride, pad=0, ceil_mode=False, training=True):
    """Max over k*k windows; ceil_mode rounds output dims up, padding with -inf.

    Returns (y, cache); cache is None unless ``training``. The output is the
    same in both modes. The training argmax breaks ties at the first index in
    row-major window order, so backward routes gradient to one winner only.
    """
    (ho, wo), (need_h, need_w) = _pool_geometry(x.shape, k, stride, pad, ceil_mode)
    xp = _padded(x, pad, need_h, need_w, -np.inf)
    hs, ws = ho * stride, wo * stride
    y = xp[:, :, 0:hs:stride, 0:ws:stride].copy()
    arg = np.zeros(y.shape, dtype=np.int16) if training else None
    for t in range(1, k * k):
        a, b = divmod(t, k)
        tap = xp[:, :, a:a + hs:stride, b:b + ws:stride]
        if training:
            np.copyto(arg, t, where=tap > y)
        np.maximum(y, tap, out=y)
    return y, (arg, x.shape, k, stride, pad, (ho, wo), xp.shape[2:]) if training else None


def maxpool2d_backward(dy, cache):
    """Route gradient to the argmax cell of each window only."""
    arg, x_shape, k, stride, pad, (ho, wo), (ph, pw) = cache
    n, c, h, w = x_shape
    dxp = np.zeros((n, c, ph, pw), dtype=dy.dtype)
    hs, ws = ho * stride, wo * stride
    for t in range(k * k):
        a, b = divmod(t, k)
        dxp[:, :, a:a + hs:stride, b:b + ws:stride] += dy * (arg == t)
    return dxp[:, :, pad:pad + h, pad:pad + w]


def avgpool2d_forward(x, k, stride, pad=0, ceil_mode=False):
    """Mean over k*k windows; partial (ceil-mode or padded) windows average
    only cells that overlap the unpadded input."""
    (ho, wo), (need_h, need_w) = _pool_geometry(x.shape, k, stride, pad, ceil_mode)
    n, c, h, w = x.shape
    xp = _padded(x, pad, need_h, need_w, 0.0)
    buf_h, buf_w = xp.shape[2:]
    valid = np.zeros((1, 1, buf_h, buf_w), dtype=x.dtype)
    valid[:, :, pad:pad + h, pad:pad + w] = 1
    hs, ws = ho * stride, wo * stride
    total = np.zeros((n, c, ho, wo), dtype=x.dtype)
    counts = np.zeros((1, 1, ho, wo), dtype=x.dtype)
    for a in range(k):
        for b in range(k):
            total += xp[:, :, a:a + hs:stride, b:b + ws:stride]
            counts += valid[:, :, a:a + hs:stride, b:b + ws:stride]
    if np.any(counts == 0):
        raise ValueError("average pool window with no valid cells")
    y = total / counts
    cache = (counts[0, 0], x.shape, k, stride, pad, (ho, wo), (buf_h, buf_w))
    return y, cache


def avgpool2d_backward(dy, cache):
    counts, x_shape, k, stride, pad, (ho, wo), (ph, pw) = cache
    n, c, h, w = x_shape
    dxp = np.zeros((n, c, ph, pw), dtype=dy.dtype)
    share = dy / counts
    hs, ws = ho * stride, wo * stride
    for a in range(k):
        for b in range(k):
            dxp[:, :, a:a + hs:stride, b:b + ws:stride] += share
    return dxp[:, :, pad:pad + h, pad:pad + w]


def resize_nearest_forward(x, out_h, out_w):
    """Nearest-neighbor resize: output[i,j] = input[floor(i*H/out_h), floor(j*W/out_w)].

    Exact identity when target dims equal input dims.
    """
    n, c, h, w = x.shape
    if out_h < 1 or out_w < 1:
        raise ValueError("resize target dims must be >= 1")
    src_r = (np.arange(out_h) * h) // out_h
    src_c = (np.arange(out_w) * w) // out_w
    y = x[:, :, src_r[:, None], src_c[None, :]]
    return np.ascontiguousarray(y), (x.shape, src_r, src_c)


def resize_nearest_backward(dy, cache):
    """Scatter-add each output cell's gradient back onto its source pixel."""
    (n, c, h, w), src_r, src_c = cache
    out_h, out_w = dy.shape[2], dy.shape[3]
    if h <= out_h and w <= out_w:
        # upsampling: every source row/col owns a contiguous output segment
        row_starts = np.searchsorted(src_r, np.arange(h), side="left")
        col_starts = np.searchsorted(src_c, np.arange(w), side="left")
        tmp = np.add.reduceat(dy, row_starts, axis=2)
        return np.add.reduceat(tmp, col_starts, axis=3)
    dx = np.zeros((n, c, h, w), dtype=dy.dtype)
    rr = np.broadcast_to(src_r[:, None], (out_h, out_w))
    cc = np.broadcast_to(src_c[None, :], (out_h, out_w))
    np.add.at(dx, (slice(None), slice(None), rr, cc), dy)
    return dx


def batchnorm2d_forward(x, gamma, beta, running_mean, running_var, eps=1e-5,
                        momentum=0.1, training=True):
    """Per-channel batch normalization with affine scale/shift.

    Training normalizes with current-batch statistics (biased variance) and
    blends them into the running stats; inference uses the running stats.
    Returns (y, cache, new_running_mean, new_running_var).
    """
    n, c, h, w = x.shape
    if training:
        if n * h * w < 2:
            raise ValueError("batchnorm training needs >= 2 elements per channel")
        mean = x.mean(axis=(0, 2, 3))
        d = x - mean[None, :, None, None]
        # np.var's own expression, so the bits match x.var(axis=(0, 2, 3))
        var = np.square(d).sum(axis=(0, 2, 3)) / (n * h * w)
        new_mean = (1 - momentum) * running_mean + momentum * mean
        new_var = (1 - momentum) * running_var + momentum * var
    else:
        mean, var = running_mean, running_var
        new_mean, new_var = running_mean, running_var
        d = x - mean[None, :, None, None]
    inv_std = 1.0 / np.sqrt(var + eps)
    d *= inv_std[None, :, None, None]
    d *= gamma[None, :, None, None]
    d += beta[None, :, None, None]
    return d, (x, mean, inv_std, gamma), new_mean, new_var


def batchnorm2d_backward(dy, cache):
    """Gradients (dx, dgamma, dbeta) of a training-mode forward, through the
    batch statistics; ``xhat`` is recomputed from the cached input."""
    x, mean, inv_std, gamma = cache
    xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    dgamma = (dy * xhat).sum(axis=(0, 2, 3))
    dbeta = dy.sum(axis=(0, 2, 3))
    m = dy.shape[0] * dy.shape[2] * dy.shape[3]
    xhat *= dgamma[None, :, None, None] / m
    dx = dy - dy.mean(axis=(0, 2, 3))[None, :, None, None]
    dx -= xhat
    dx *= (gamma * inv_std)[None, :, None, None]
    return dx, dgamma, dbeta


def relu_forward(x):
    """Returns (y, y): the output is its own backward cache."""
    y = np.maximum(x, 0)
    return y, y


def relu_backward(dy, y):
    return dy * (y > 0)


def add_forward(a, b):
    if a.shape != b.shape:
        raise ValueError(f"residual add shape mismatch {a.shape} vs {b.shape}")
    return a + b


def concat_channels_forward(xs):
    """Concatenate NCHW tensors along channels, order preserved."""
    base = xs[0].shape
    for x in xs[1:]:
        if x.shape[0] != base[0] or x.shape[2:] != base[2:]:
            raise ValueError(f"concat spatial/batch mismatch {x.shape} vs {base}")
    return np.concatenate(xs, axis=1), [x.shape[1] for x in xs]


def concat_channels_backward(dy, channel_sizes):
    splits = np.cumsum(channel_sizes)[:-1]
    return np.split(dy, splits, axis=1)


def global_avg_pool_forward(x):
    n, c, h, w = x.shape
    return x.mean(axis=(2, 3)), (h, w)


def global_avg_pool_backward(dy, cache):
    h, w = cache
    return np.broadcast_to(dy[:, :, None, None], dy.shape + (h, w)) / (h * w)


def dense_forward(x, w, b):
    """x (N,Cin) @ w (Cin,Cout) + b."""
    return x @ w + b, x


def dense_backward(dy, w, x):
    return dy @ w.T, x.T @ dy, dy.sum(axis=0)


def softmax_cross_entropy_forward(logits, labels):
    """Mean cross-entropy over the batch; labels are int class indices."""
    n, k = logits.shape
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"label out of range [0, {k})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    loss = -logp[np.arange(n), labels].mean()
    probs = np.exp(logp)
    return loss.astype(logits.dtype), (probs, labels)


def softmax_cross_entropy_backward(dloss, cache):
    probs, labels = cache
    n = probs.shape[0]
    d = probs.copy()
    d[np.arange(n), labels] -= 1.0
    return d * (dloss / n)
