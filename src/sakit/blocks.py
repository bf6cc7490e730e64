"""The residual bottleneck every preset builds, and the scale-aggregation
block that takes its 3x3 stage's place.

``build_bottleneck`` writes a bottleneck's 1x1 reduce, its shortcut, its 1x1
expand and the closing add and relu around a caller's 3x3 stage: a plain
strided 3x3 conv in the baselines (``presets``), an aggregation block in
``build_sa_residual``. ``conv_bn`` writes each conv -> batchnorm(-> relu) run.

An aggregation block splits its input into per-scale branches (downsample by
factor s, 3x3 conv, batchnorm+relu, nearest upsample back) and concatenates
the branch outputs along channels, ascending by scale factor. Branches with
zero allocated channels are omitted entirely; the factor-1 branch skips the
resampling nodes since they would be identities.
"""

from dataclasses import dataclass

from .netspec import SpecBuilder

DOWNSAMPLE_MODES = ("max", "avg", "conv", "dilated")


def check_scales(scales):
    """Raise ValueError unless ``scales`` are positive and strictly ascending."""
    if not scales or scales[0] < 1 or any(a >= b for a, b in zip(scales, scales[1:])):
        raise ValueError(f"scales must be positive and strictly ascending, got {scales}")


@dataclass
class SABlockSpec:
    """One aggregation block: input width, scale factors, per-scale widths."""

    in_channels: int
    scale_factors: list
    per_scale_channels: list
    block_index: int
    downsample: str = "max"

    def __post_init__(self):
        if len(self.scale_factors) != len(self.per_scale_channels):
            raise ValueError("scale_factors and per_scale_channels lengths differ")
        check_scales(self.scale_factors)
        if any(c < 0 for c in self.per_scale_channels):
            raise ValueError("per-scale channel counts must be nonnegative")
        if sum(self.per_scale_channels) < 1:
            raise ValueError("block must keep at least one output channel")
        if self.downsample not in DOWNSAMPLE_MODES:
            raise ValueError(f"unknown downsample mode '{self.downsample}'")

    @property
    def out_channels(self):
        return sum(self.per_scale_channels)


def conv_bn(b: SpecBuilder, prefix: str, names, input_name: str,
            c_in: int, c_out: int, k: int, tags=None, **attrs) -> str:
    """Append ``prefix.<names[0]>``, a k x k conv from ``c_in`` to ``c_out``
    channels with ``attrs``, then a batchnorm over its ``c_out`` channels,
    then a relu when ``names`` holds a third name; ``tags`` go on the conv
    and the batchnorm. Returns the last node's name."""
    conv, bn, *relu = (f"{prefix}.{n}" for n in names)
    tags = tags or {}
    cur = b.add(conv, "conv", [input_name], **{"in": c_in, "out": c_out, "k": k},
                **attrs, **tags)
    cur = b.add(bn, "batchnorm", [cur], c=c_out, **tags)
    return b.add(relu[0], "relu", [cur]) if relu else cur


def build_bottleneck(b: SpecBuilder, prefix: str, input_name: str, in_channels: int,
                     mid: int, out_channels: int, block: int, stage, stride=None) -> str:
    """1x1 reduce to ``mid`` -> ``stage`` -> 1x1 expand to ``out_channels`` ->
    shortcut add -> relu; returns the relu's name.

    ``stage(name)`` appends the 3x3 stage on the relu'd reduce and returns its
    output name and width. The shortcut is an identity when the widths match
    and ``stride`` is None or 1, else a 1x1 projection and batchnorm, which
    writes ``stride`` unless it is None. The closing add is tagged ``block``.
    """
    cur = conv_bn(b, prefix, ("reduce", "bn1", "relu1"), input_name, in_channels, mid, 1)
    cur, width = stage(cur)
    cur = conv_bn(b, prefix, ("expand", "bn3"), cur, width, out_channels, 1)
    sc = input_name
    if stride not in (None, 1) or in_channels != out_channels:
        proj = {} if stride is None else {"stride": stride}
        sc = conv_bn(b, prefix, ("proj", "projbn"), input_name, in_channels, out_channels,
                     1, **proj)
    cur = b.add(f"{prefix}.add", "add", [cur, sc], block=block)
    return b.add(f"{prefix}.relu3", "relu", [cur])


def build_sa_block(b: SpecBuilder, prefix: str, input_name: str,
                   spec: SABlockSpec, h: int, w: int) -> str:
    """Append one aggregation block; returns the concat output node name.

    Every surviving branch is tagged with block/scale attrs on its conv and
    batchnorm so allocation and cost accounting can find them later; the
    concat records the block index and the replaced conv's output width
    (``base``, the block's input width) for budget reconstruction.
    """
    branch_outs = []
    k = spec.block_index
    for s, cl in zip(spec.scale_factors, spec.per_scale_channels):
        if cl == 0:
            continue
        p = f"{prefix}.x{s}"
        cur = input_name
        if s > 1:
            cur = _downsample(b, p, cur, spec, s)
        cur = conv_bn(b, p, ("conv", "bn", "relu"), cur, spec.in_channels, cl, 3,
                      tags={"block": k, "scale": s}, stride=1, pad=1)
        bh, bw = -(-h // s), -(-w // s)
        if (bh, bw) != (h, w):
            cur = b.add(f"{p}.up", "resize", [cur], h=h, w=w)
        branch_outs.append(cur)
    return b.add(f"{prefix}.cat", "concat", branch_outs, block=k, base=spec.in_channels)


def _downsample(b, p, cur, spec, s):
    if spec.downsample in ("max", "avg"):
        return b.add(f"{p}.down", f"{spec.downsample}pool", [cur], k=s, stride=s, ceil=1)
    # dilated: pad = dilation keeps the stride-only shape change
    taps = {"dilation": 2, "pad": 2} if spec.downsample == "dilated" else {"pad": 1}
    c = spec.in_channels
    return conv_bn(b, p, ("down", "downbn", "downrelu"), cur, c, c, 3, stride=s, **taps)


def build_sa_residual(b: SpecBuilder, prefix: str, input_name: str, in_channels: int,
                      sa: SABlockSpec, expand_channels: int, h: int, w: int) -> str:
    """The bottleneck with the aggregation block ``sa`` as its 3x3 stage: the
    1x1 reduce feeds ``sa.in_channels``, and at stride 1 the shortcut is an
    identity when ``in_channels`` equals ``expand_channels``."""
    def stage(cur):
        return build_sa_block(b, f"{prefix}.sa", cur, sa, h, w), sa.out_channels

    return build_bottleneck(b, prefix, input_name, in_channels, sa.in_channels,
                            expand_channels, sa.block_index, stage)
