"""Scale-aggregation block and residual-bottleneck graph fragments.

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


@dataclass
class SAResidualSpec:
    """Bottleneck with the 3x3 stage replaced by an aggregation block; the 1x1
    reduce feeds the block's input width, and the shortcut is an identity when
    the input and expand widths match, else a 1x1 projection."""

    in_channels: int
    sa: SABlockSpec
    expand_channels: int


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
        cur = b.add(f"{p}.conv", "conv", [cur],
                    **{"in": spec.in_channels, "out": cl, "k": 3, "stride": 1,
                       "pad": 1, "block": k, "scale": s})
        cur = b.add(f"{p}.bn", "batchnorm", [cur], c=cl, block=k, scale=s)
        cur = b.add(f"{p}.relu", "relu", [cur])
        bh, bw = -(-h // s), -(-w // s)
        if (bh, bw) != (h, w):
            cur = b.add(f"{p}.up", "resize", [cur], h=h, w=w)
        branch_outs.append(cur)
    return b.add(f"{prefix}.cat", "concat", branch_outs, block=k, base=spec.in_channels)


def _downsample(b, p, cur, spec, s):
    c = spec.in_channels
    if spec.downsample == "max":
        return b.add(f"{p}.down", "maxpool", [cur], k=s, stride=s, ceil=1)
    if spec.downsample == "avg":
        return b.add(f"{p}.down", "avgpool", [cur], k=s, stride=s, ceil=1)
    if spec.downsample == "conv":
        cur = b.add(f"{p}.down", "conv", [cur],
                    **{"in": c, "out": c, "k": 3, "stride": s, "pad": 1})
    else:  # dilated: pad = dilation keeps the stride-only shape change
        cur = b.add(f"{p}.down", "conv", [cur],
                    **{"in": c, "out": c, "k": 3, "stride": s, "dilation": 2, "pad": 2})
    cur = b.add(f"{p}.downbn", "batchnorm", [cur], c=c)
    return b.add(f"{p}.downrelu", "relu", [cur])


def build_sa_residual(b: SpecBuilder, prefix: str, input_name: str,
                      spec: SAResidualSpec, h: int, w: int) -> str:
    """1x1 reduce -> aggregation block -> 1x1 expand -> shortcut add -> relu."""
    sa = spec.sa
    cur = b.add(f"{prefix}.reduce", "conv", [input_name],
                **{"in": spec.in_channels, "out": sa.in_channels, "k": 1})
    cur = b.add(f"{prefix}.bn1", "batchnorm", [cur], c=sa.in_channels)
    cur = b.add(f"{prefix}.relu1", "relu", [cur])
    cur = build_sa_block(b, f"{prefix}.sa", cur, sa, h, w)
    cur = b.add(f"{prefix}.expand", "conv", [cur],
                **{"in": sa.out_channels, "out": spec.expand_channels, "k": 1})
    cur = b.add(f"{prefix}.bn3", "batchnorm", [cur], c=spec.expand_channels)
    if spec.in_channels != spec.expand_channels:
        sc = b.add(f"{prefix}.proj", "conv", [input_name],
                   **{"in": spec.in_channels, "out": spec.expand_channels, "k": 1})
        sc = b.add(f"{prefix}.projbn", "batchnorm", [sc], c=spec.expand_channels)
    else:
        sc = input_name
    cur = b.add(f"{prefix}.add", "add", [cur, sc], block=sa.block_index)
    return b.add(f"{prefix}.relu3", "relu", [cur])
