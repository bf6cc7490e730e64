"""Layer kernels in NCHW layout, each a forward/backward pair over ndarrays.

Precondition: kernels trust the geometry their NetworkSpec checked when it
was made (matching channels and dims, outputs of at least 1x1, pool pad <=
k // 2) and check only runtime data: batchnorm's batch, the loss labels.

Conv and the pools share one window geometry: for each tap of a window,
the rectangle of outputs whose input cell is in bounds, and that cell's
rectangle of the input (``_in_bounds`` per axis, ``_taps`` per tap). A
window is given per axis as the list of its taps' input offsets, so a
kernel reads and writes only these rectangles, taps that fall in padding
are skipped and no kernel builds a padded input.

Convolution is cross-correlation over one patch gather (``_patches``): image
i's patch matrix holds each tap's rectangle of x[i], rows in (C, row tap,
column tap) order, in one zero-filled buffer, so the cells a tap reads from
padding stay zero; when it is x[i] itself (a 1x1 stride-1 pad-0 conv) it
is not copied. Forward is one GEMM per image, y[i] = W @ P_i with P_i
(Cin*k*k, Ho*Wo), written straight into the NCHW output. dw.T is the sum
of P_i @ dy_i.T in image order over the same patches (``conv2d_dw``).

dx is the transposed convolution split into stride x stride phases, with no
zeros inserted (Dumoulin and Visin, arXiv 1603.07285): along an axis, input
q * stride + r receives w[a] * dy[q + (r + pad - a * dilation) / stride]
from each tap a whose offset divides. So phase (r, c), dx[:, :, r::stride,
c::stride], is a stride-1 correlation of dy with the flipped sub-kernel of
W.T that reaches it: the same gather over dy's in-bounds rectangles, then
one GEMM per image, written into dx (through a buffer when the phase is a
strided view). A phase no tap reaches is zero. A stride-1 conv has one
phase, and a 1x1 stride-1 conv's phase patches are dy[i] itself.

A GEMM's bits depend on the BLAS kernel set, its shape (one GEMM over the
batch rounds unlike one per image) and where an output column falls in its
register blocking, so tests pin the bytes with an oracle making the same
BLAS calls on operands laid out alike.

Nearest resize works on per-axis run lengths: how many output rows (columns)
read each source row (column). Forward repeats rows by their run lengths,
then columns. Backward, rows first, lays each source's run out in slots and
adds them: the first slot plus the left-to-right sum of the rest, which is
how reduceat sums runs of up to 8 cells.

Batchnorm inference, with the running stats fixed, is one affine map per
channel: y = x * a + s, where a = gamma * inv_std and s = beta - mean * a.
Training's per-channel sums are einsum contractions: the mean from
``'nchw->c'``, and the variance and dgamma from ``'nchw,nchw->c'`` of
(x - mean) with itself and of dy with xhat, so neither a square nor a
product is written out. einsum at its default ``optimize=False`` calls no
BLAS and sums in SIMD lanes rather than pairwise; its bytes depend neither
on the thread count nor, as a test checks, on numpy's SIMD level. The
forward writes y = (x - mean) * (gamma * inv_std) + beta, one multiply,
then scales its x - mean buffer into the ``xhat`` it caches for backward.
Training's elementwise passes, forward and backward, take each per-channel
operand as one contiguous (1, C, H, W) row (``_row``), so numpy runs one
C*H*W loop per image rather than one H*W loop per image and channel.
Inference keeps broadcasting ``[None, :, None, None]``: at batch 1,
building a row costs as much as the pass it serves.

Relu, add and inference batchnorm take ``out=`` and write through numpy's
``out=``, which the executor points at a dying first input in inference;
the bytes are those of a fresh output.

Caches hold inputs, not copies: conv keeps its input and backward
recomputes the patches; relu is ``maximum(x, 0)`` and keeps its output.
Batchnorm keeps ``xhat`` in place of its input, and backward scales that
``xhat`` in place. Max pooling takes the max along each window row, then
across the rows, which picks the same element as a row-major scan of the
taps; its cache is its input, its output and its geometry, and backward
routes each window's gradient to the first in-bounds tap in row-major order
that equals the window's max. Average pooling divides each window's sum by
the count of its in-bounds cells.
"""

import numpy as np

from .netspec import conv_out_dim, pool_out_dim


def _in_bounds(size, out, offset, stride):
    """(output slice, input slice) of the outputs o < out whose input index
    o * stride + offset lies in [0, size), or None when there are none."""
    lo = max(0, -(offset // stride))
    hi = min(out, (size - 1 - offset) // stride + 1)
    if lo >= hi:
        return None
    start = lo * stride + offset
    return slice(lo, hi), slice(start, start + (hi - lo - 1) * stride + 1, stride)


def _offsets(k, dilation, pad):
    """Input offset of each tap of a k-tap window along one axis: output o
    of tap a reads input o * stride + a * dilation - pad."""
    return [a * dilation - pad for a in range(k)]


def _taps(shape, out, stride, rows, cols):
    """(a, b, (out rows, in rows), (out cols, in cols)) of each pair of row
    tap a and column tap b that reads an in-bounds cell of an NCHW input of
    ``shape`` into outputs of dims ``out``, in row-major tap order; a tap
    is its index in the per-axis offset list ``rows`` or ``cols``."""
    (h, wd), (ho, wo) = shape[2:], out
    rows = [(a, s) for a, offset in enumerate(rows) if (s := _in_bounds(h, ho, offset, stride))]
    cols = [(b, s) for b, offset in enumerate(cols) if (s := _in_bounds(wd, wo, offset, stride))]
    return [(a, b, yr, yc) for a, yr in rows for b, yc in cols]


def _patches(x, out, stride, rows, cols):
    """Yield each image's (C*len(rows)*len(cols), Ho*Wo) patch matrix P_i of
    the taps ``rows`` x ``cols`` (``_taps``) at ``stride``, rows in (C, row
    tap, column tap) order. When P_i is x[i] itself (one tap at offset 0 per
    axis, stride 1, out the input's dims) it is yielded as it is; otherwise
    every image reuses one buffer, so use each before asking for the next."""
    n, c = x.shape[:2]
    if stride == 1 and rows == cols == [0] and out == x.shape[2:]:
        for i in range(n):
            yield x[i].reshape(c, -1)
        return
    # cells a tap reads from padding stay zero: no image writes them
    p = np.zeros((c, len(rows), len(cols), *out), dtype=x.dtype)
    taps = _taps(x.shape, out, stride, rows, cols)
    for i in range(n):
        for a, b, (yr, xr), (yc, xc) in taps:
            p[:, a, b, yr, yc] = x[i, :, xr, xc]
        yield p.reshape(c * len(rows) * len(cols), -1)


def conv2d_forward(x, w, stride=1, dilation=1, pad=0):
    """Cross-correlate x (N,Cin,H,W) with w (Cout,Cin,k,k).

    Output dims follow ``netspec.conv_out_dim``. Returns (y, cache); the
    cache holds x itself, not its patches. Each image is one GEMM,
    W (Cout, Cin*k*k) @ P_i (Cin*k*k, Ho*Wo), written into y[i].
    """
    n, _, h, wd = x.shape
    cout, _, k, _ = w.shape
    ho = conv_out_dim(h, k, stride, dilation, pad)
    wo = conv_out_dim(wd, k, stride, dilation, pad)
    wf = w.reshape(cout, -1)
    y = np.empty((n, cout, ho, wo), dtype=np.result_type(x, w))
    taps = _offsets(k, dilation, pad)
    for i, p in enumerate(_patches(x, (ho, wo), stride, taps, taps)):
        np.matmul(wf, p, out=y[i].reshape(cout, -1))
    return y, (x, stride, dilation, pad)


def conv2d_dw(dy, w, cache):
    """dw for conv2d_forward alone, a transposed view of a (Cin*k*k, Cout)
    array: the sum of P_i @ dy_i.T in image order over the forward's patches."""
    x, stride, dilation, pad = cache
    n, cin = x.shape[:2]
    cout, _, k, _ = w.shape
    # dw.T as P_i @ dy_i.T, with the patch rows as the GEMM's long side, ran
    # up to 45% faster on the desk's 3x3 convs than dw as dy_i @ P_i.T; dw is
    # returned as a view of it, since a transposing copy of resnet50's 4 MiB
    # late-stage dw cost more than its GEMMs
    dwt = np.zeros((cin * k * k, cout), dtype=np.result_type(dy, x))
    taps = _offsets(k, dilation, pad)
    for dyi, p in zip(dy.reshape(n, cout, -1), _patches(x, dy.shape[2:], stride, taps, taps)):
        dwt += p @ dyi.T
    return dwt.T.reshape(w.shape)


def _phase(k, stride, dilation, pad, r):
    """(taps, offsets) along one axis of dx's phase r, the input indices
    q * stride + r: the kernel taps a that reach them, flipped (last first),
    and the offset of dy each reads, so dx[q * stride + r] gathers
    w[a] * dy[q + offset]."""
    taps = [a for a in reversed(range(k)) if (r + pad - a * dilation) % stride == 0]
    return taps, [(r + pad - a * dilation) // stride for a in taps]


def conv2d_backward(dy, w, cache):
    """Gradients (dx, dw) for conv2d_forward, dx by phases and dw from
    ``conv2d_dw``; see the module docstring."""
    x, stride, dilation, pad = cache
    cin, k = x.shape[1], w.shape[2]
    wt = w.transpose(1, 0, 2, 3)
    dx = np.empty(x.shape, dtype=np.result_type(dy, w))
    for r, c in np.ndindex(stride, stride):
        (ra, ro), (cb, co) = (_phase(k, stride, dilation, pad, t) for t in (r, c))
        out = dx[:, :, r::stride, c::stride]
        if not ra or not cb:
            out[...] = 0
            continue
        # W.T restricted to the phase's taps, rows Cin, columns (Cout, a, b)
        wp = wt[:, :, np.array(ra)[:, None], cb].reshape(cin, -1)
        # matmul writes whole matrices, so a phase that is a strided view of
        # dx takes its GEMMs through a buffer
        dst = out if out.flags.c_contiguous else np.empty(out.shape, dtype=dx.dtype)
        for i, p in enumerate(_patches(dy, out.shape[2:], 1, ro, co)):
            np.matmul(wp, p, out=dst[i].reshape(cin, -1))
        if dst is not out:
            out[...] = dst
    return dx, conv2d_dw(dy, w, cache)


def _pool_geometry(x_shape, k, stride, pad, ceil_mode):
    return tuple(pool_out_dim(size, k, stride, pad, ceil_mode) for size in x_shape[2:])


def _window_max(x, axis, out, k, stride, pad):
    """Max over each k-cell window along ``axis``, skipping cells in padding.
    The first tap that reads an input cell seeds the result; outputs it does
    not reach start at -inf."""
    lead = (slice(None),) * axis
    (yo, xi), *rest = [s for t in range(k)
                       if (s := _in_bounds(x.shape[axis], out, t - pad, stride))]
    y = np.empty(x.shape[:axis] + (out,) + x.shape[axis + 1:], dtype=x.dtype)
    y[lead + (yo,)] = x[lead + (xi,)]
    y[lead + (slice(0, yo.start),)] = -np.inf
    y[lead + (slice(yo.stop, None),)] = -np.inf
    for yo, xi in rest:
        np.maximum(y[lead + (yo,)], x[lead + (xi,)], out=y[lead + (yo,)])
    return y


def maxpool2d_forward(x, k, stride, pad=0, ceil_mode=False):
    """Max over k*k windows; ceil_mode rounds output dims up.

    Returns (y, cache); the cache is (x, y, (k, stride, pad)), from which
    backward finds each window's winner again.
    """
    ho, wo = _pool_geometry(x.shape, k, stride, pad, ceil_mode)
    # row maxima first, so ties (-0.0 against +0.0) resolve as a row-major tap scan
    y = _window_max(_window_max(x, 3, wo, k, stride, pad), 2, ho, k, stride, pad)
    return y, (x, y, (k, stride, pad))


def maxpool2d_backward(dy, cache):
    """Route each window's gradient to its first in-bounds cell, in row-major
    window order, that equals its max; a window whose max is NaN routes none."""
    x, y, (k, stride, pad) = cache
    dx = np.zeros(x.shape, dtype=dy.dtype)
    free = np.ones(y.shape, dtype=bool)  # windows whose max is not yet found
    taps = _offsets(k, 1, pad)
    for _, _, (yr, xr), (yc, xc) in _taps(x.shape, y.shape[2:], stride, taps, taps):
        hit = x[:, :, xr, xc] == y[:, :, yr, yc]
        hit &= free[:, :, yr, yc]
        free[:, :, yr, yc] ^= hit
        dx[:, :, xr, xc] += dy[:, :, yr, yc] * hit
    return dx


def avgpool2d_forward(x, k, stride, pad=0, ceil_mode=False):
    """Mean over k*k windows; partial (ceil-mode or padded) windows average
    only cells that overlap the unpadded input."""
    ho, wo = _pool_geometry(x.shape, k, stride, pad, ceil_mode)
    total = np.zeros(x.shape[:2] + (ho, wo), dtype=x.dtype)
    counts = np.zeros((ho, wo), dtype=x.dtype)
    taps = _offsets(k, 1, pad)
    for _, _, (yr, xr), (yc, xc) in _taps(x.shape, (ho, wo), stride, taps, taps):
        total[:, :, yr, yc] += x[:, :, xr, xc]
        counts[yr, yc] += 1
    return total / counts, (counts, x.shape, k, stride, pad)


def avgpool2d_backward(dy, cache):
    counts, x_shape, k, stride, pad = cache
    dx = np.zeros(x_shape, dtype=dy.dtype)
    share = dy / counts
    taps = _offsets(k, 1, pad)
    for _, _, (yr, xr), (yc, xc) in _taps(x_shape, counts.shape, stride, taps, taps):
        dx[:, :, xr, xc] += share[:, :, yr, yc]
    return dx


def _runs(size, out_size):
    """How many of ``out_size`` nearest-resized positions read each of
    ``size`` source positions: output i reads source floor(i * size / out_size)."""
    return np.bincount((np.arange(out_size) * size) // out_size, minlength=size)


def resize_nearest_forward(x, out_h, out_w):
    """Nearest-neighbor resize: output[i,j] = input[floor(i*H/out_h), floor(j*W/out_w)].

    Exact identity when target dims equal input dims. The cache is the
    per-source run lengths (rows, cols).
    """
    h, w = x.shape[2:]
    rows, cols = _runs(h, out_h), _runs(w, out_w)
    return np.repeat(np.repeat(x, rows, axis=2), cols, axis=3), (rows, cols)


def _sum_runs(dy, runs, axis):
    """Sum each source's run of cells along ``axis``: slot 0 plus the
    left-to-right sum of the other slots, as reduceat sums runs of up to 8.

    Each source's run is laid out in q slots, q the longest run: a reshape
    when every run is q long, else one take from dy and two pad cells, +0.0
    for slot 0 of a source that no output reads (so its sum is +0.0) and
    -0.0 for any later empty slot (x + -0.0 is x, signed zeros included).
    """
    size, q = runs.size, int(runs.max())
    shape = dy.shape[:axis] + (size, q) + dy.shape[axis + 1:]
    if (runs == q).all():
        slots = dy.reshape(shape)
    else:
        pad = np.zeros(dy.shape[:axis] + (2,) + dy.shape[axis + 1:], dtype=dy.dtype)
        pad[(slice(None),) * axis + (1,)] = -0.0
        j = np.arange(q)
        cells = np.where(j < runs[:, None], (np.cumsum(runs) - runs)[:, None] + j,
                         dy.shape[axis] + (j > 0))
        slots = np.take(np.concatenate((dy, pad), axis=axis), cells.ravel(),
                        axis=axis).reshape(shape)
    lead = (slice(None),) * (axis + 1)
    if q == 1:
        return slots[lead + (0,)]
    rest = slots[lead + (1,)]
    if q > 2:
        rest = rest.copy()
        for t in range(2, q):
            rest += slots[lead + (t,)]
    return np.add(slots[lead + (0,)], rest)


def resize_nearest_backward(dy, cache):
    """Sum each source's run of output rows, then of output columns; a
    source that no output reads gets +0.0."""
    rows, cols = cache
    return _sum_runs(_sum_runs(dy, rows, 2), cols, 3)


def _row(v, h, w):
    """Per-channel values ``v`` as one contiguous (1, C, h, w) image, so an
    elementwise pass against (N, C, h, w) runs one C*h*w loop per image."""
    return np.repeat(v, h * w).reshape(1, len(v), h, w)


def batchnorm2d_forward(x, gamma, beta, running_mean, running_var, eps=1e-5,
                        momentum=0.1, training=True, out=None):
    """Per-channel batch normalization with affine scale/shift.

    Training normalizes with current-batch statistics (biased variance),
    y = (x - mean) * (gamma * inv_std) + beta, blends them into the running
    stats and caches (xhat, inv_std, gamma), not x, with
    xhat = (x - mean) * inv_std. Its passes take the per-channel operands as
    contiguous rows, one loop per image. Inference is one affine map per
    channel from the running stats, y = x * a + s with a = gamma * inv_std and
    s = beta - mean * a, broadcast, since at batch 1 a row costs a full pass;
    it returns the running stats themselves and no cache, and writes y into
    ``out`` when given (x itself, say), which training ignores. Returns
    (y, cache, new_running_mean, new_running_var).
    """
    n, c, h, w = x.shape
    if not training:
        inv_std = 1.0 / np.sqrt(running_var + eps)
        a = gamma * inv_std
        y = np.multiply(x, a[None, :, None, None], out=out)
        y += (beta - running_mean * a)[None, :, None, None]
        return y, None, running_mean, running_var
    if n * h * w < 2:
        raise ValueError("batchnorm training needs >= 2 elements per channel")
    m = n * h * w
    mean = np.einsum("nchw->c", x) / m
    xhat = x - _row(mean, h, w)  # scaled into xhat once y is written
    var = np.einsum("nchw,nchw->c", xhat, xhat) / m
    inv_std = 1.0 / np.sqrt(var + eps)
    y = np.multiply(xhat, _row(gamma * inv_std, h, w))
    y += _row(beta, h, w)
    xhat *= _row(inv_std, h, w)
    new_mean = (1 - momentum) * running_mean + momentum * mean
    new_var = (1 - momentum) * running_var + momentum * var
    return y, (xhat, inv_std, gamma), new_mean, new_var


def batchnorm2d_backward(dy, cache):
    """Gradients (dx, dgamma, dbeta) of a training-mode forward, through the
    batch statistics. Scales the cached ``xhat`` in place, so a cache serves
    one backward. Like the training forward, its passes take per-channel
    operands as contiguous rows, one loop per image."""
    xhat, inv_std, gamma = cache
    n, _, h, w = dy.shape
    m = n * h * w
    dgamma = np.einsum("nchw,nchw->c", dy, xhat)
    dbeta = np.einsum("nchw->c", dy)
    xhat *= _row(dgamma / m, h, w)
    dx = np.subtract(dy, _row(dbeta / m, h, w))
    dx -= xhat
    dx *= _row(gamma * inv_std, h, w)
    return dx, dgamma, dbeta


def relu_forward(x, out=None):
    """Returns (y, y): the output is its own backward cache. ``out`` may be
    x itself."""
    y = np.maximum(x, 0, out=out)
    return y, y


def relu_backward(dy, y):
    return dy * (y > 0)


def add_forward(a, b, out=None):
    """a + b, written into ``out`` when given (a itself, say)."""
    return np.add(a, b, out=out)


def concat_channels_forward(xs):
    """Concatenate NCHW tensors along channels, order preserved."""
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
    """Mean cross-entropy over the batch; labels are N int class indices."""
    n, k = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,) or not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be integers of shape ({n},), "
                         f"got {labels.dtype} of shape {labels.shape}")
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
