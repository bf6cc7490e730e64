"""Network presets and allocation plans.

Builders produce bottleneck baselines (ImageNet-style and 32x32-input
variants), their scale-aggregation counterparts driven by an allocation
plan, over-provisioned seed networks, and even splits. Both kinds of block
are ``blocks.build_bottleneck``: a baseline passes it a strided 3x3 conv as
the 3x3 stage, and ``build_scalenet`` an aggregation block through
``blocks.build_sa_residual``. The plan text format
is line oriented: a ``scales:`` header then one ``k: C1,...,CL`` row per
block, read through ``netspec.text_lines`` and so under its comment rule.
"""

import math
from dataclasses import dataclass, field
from importlib import resources

from .blocks import (SABlockSpec, build_bottleneck, build_sa_residual, check_scales,
                     conv_bn)
from .netspec import (NetworkSpec, SpecBuilder, SpecError, is_one_line, read_text,
                      text_lines)

RESNET_STAGE_BLOCKS = {50: (3, 4, 6, 3), 101: (3, 4, 23, 3), 152: (3, 8, 36, 3)}
IMAGENET_SCALES = [1, 2, 4, 7]
CIFAR_SCALES = [1, 2, 4]


@dataclass
class AllocationPlan:
    """Per-block channel counts per scale, plus provenance metadata."""

    scales: list
    rows: dict  # block index k -> [C_1..C_L]
    source: str = ""
    exponent: float = None
    budgets: dict = field(default_factory=dict)  # k -> MAC budget

    def __post_init__(self):
        for k, row in self.rows.items():
            if len(row) != len(self.scales):
                raise ValueError(f"row {k} has {len(row)} entries for {len(self.scales)} scales")
            if any(c < 0 for c in row):
                raise ValueError(f"row {k} has negative channel counts")
            if sum(row) < 1:
                raise ValueError(f"row {k} keeps no channels")
        if not is_one_line(self.source):
            raise ValueError(f"source {self.source!r} must be one line with no leading "
                             "or trailing whitespace")


def serialize_plan(plan: AllocationPlan) -> str:
    lines = ["# allocation plan"]
    lines.append("scales: " + ",".join(str(s) for s in plan.scales))
    if plan.source:
        lines.append(f"source: {plan.source}")
    if plan.exponent is not None:
        lines.append(f"b: {plan.exponent!r}")
    for k in sorted(plan.budgets):
        lines.append(f"budget {k}: {plan.budgets[k]}")
    for k in sorted(plan.rows):
        lines.append(f"{k}: " + ",".join(str(c) for c in plan.rows[k]))
    return "\n".join(lines) + "\n"


def parse_plan(text: str) -> AllocationPlan:
    scales = None
    rows = {}
    budgets = {}
    source = ""
    exponent = None
    seen = {}  # canonical key -> line of its first occurrence
    for lineno, line in text_lines(text):
        if ":" not in line:
            raise SpecError(f"expected 'key: value', got '{line}'", lineno)
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key.startswith("budget "):
            parts = key.split()
            if len(parts) != 2:
                raise SpecError(f"expected 'budget <block>: <MACs>', got '{key}:'", lineno)
            key = f"budget {_int(parts[1], lineno)}"
        elif key not in ("scales", "source", "b"):
            key = str(_int(key, lineno))
        if key in seen:
            raise SpecError(f"duplicate '{key}:' line (first on line {seen[key]})", lineno)
        seen[key] = lineno
        if key == "scales":
            scales = _int_list(value, lineno)
            try:
                check_scales(scales)
            except ValueError as e:
                raise SpecError(str(e), lineno) from None
        elif key == "source":
            source = value
        elif key == "b":
            try:
                exponent = float(value)
            except ValueError:
                raise SpecError(f"bad exponent '{value}'", lineno) from None
            if not math.isfinite(exponent):
                raise SpecError(f"exponent b must be finite, got '{value}'", lineno)
        elif key.startswith("budget "):
            k, budget = int(key.split()[1]), _int(value, lineno)
            if budget < 1:
                raise SpecError(f"budget of block {k} must be at least 1, got {budget}", lineno)
            budgets[k] = budget
        else:
            rows[int(key)] = _int_list(value, lineno)
    if scales is None:
        raise SpecError("missing 'scales:' header")
    if not rows:
        raise SpecError("plan has no block rows")
    try:
        return AllocationPlan(scales, rows, source, exponent, budgets)
    except ValueError as e:
        raise SpecError(str(e)) from None


def _int(text, lineno):
    try:
        return int(text)
    except ValueError:
        raise SpecError(f"bad integer '{text}'", lineno) from None


def _int_list(text, lineno):
    return [_int(p.strip(), lineno) for p in text.split(",") if p.strip()]


def load_plan(path) -> AllocationPlan:
    return parse_plan(read_text(path))


def reference_plan(name) -> AllocationPlan:
    """Load one of the allocation plans shipped with the package
    (scalenet50, scalenet50-light, scalenet101, scalenet152, cifar-n4/6/11)."""
    res = resources.files("sakit.plans").joinpath(f"{name}.plan")
    try:
        text = res.read_text(encoding="utf-8")
    except FileNotFoundError:
        available = sorted(p.name[:-5] for p in resources.files("sakit.plans").iterdir()
                           if p.name.endswith(".plan"))
        raise ValueError(f"no reference plan '{name}'; available: {available}") from None
    return parse_plan(text)


# ---------------------------------------------------------------------------
# baseline builders

def _imagenet_stem(b, in_channels, width):
    cur = conv_bn(b, "stem", ("conv", "bn", "relu"), "x", in_channels, width, 7,
                  stride=2, pad=3)
    return b.add("stem.pool", "maxpool", [cur], k=3, stride=2, pad=1)


def _cifar_stem(b, in_channels, width):
    return conv_bn(b, "stem", ("conv", "bn", "relu"), "x", in_channels, width, 3,
                   stride=1, pad=1)


def _head(b, cur, channels, num_classes):
    cur = b.add("head.gap", "gap", [cur])
    cur = b.add("head.fc", "dense", [cur], **{"in": channels, "out": num_classes})
    b.add("loss", "softmax_xent", [cur])


def _bottleneck(b, prefix, cur, in_ch, mid, out_ch, stride, k):
    """Plain bottleneck; its stride sits on the 3x3 conv and the projection."""
    def conv3x3(y):
        return conv_bn(b, prefix, ("conv", "bn2", "relu2"), y, mid, mid, 3,
                       stride=stride, pad=1, block=k), mid

    return build_bottleneck(b, prefix, cur, in_ch, mid, out_ch, k, conv3x3, stride)


def _bottleneck_net(name, stem, width, stage_blocks, num_classes, input_size, in_channels):
    """Stem of ``width`` channels, then bottleneck stages: stage s has mid
    width ``width * 2**(s-1)``, expands it 4x and strides 2 in its first
    block after stage 1; blocks are numbered from 1 across stages."""
    b = SpecBuilder(name)
    b.add("x", "input", c=in_channels, h=input_size, w=input_size)
    cur, c_in, k = stem(b, in_channels, width), width, 0
    for si, nblocks in enumerate(stage_blocks, start=1):
        mid = width * 2 ** (si - 1)
        for j in range(1, nblocks + 1):
            k += 1
            stride = 2 if (si > 1 and j == 1) else 1
            cur = _bottleneck(b, f"s{si}.b{j}", cur, c_in, mid, mid * 4, stride, k)
            c_in = mid * 4
    _head(b, cur, c_in, num_classes)
    return b.build()


def build_resnet(depth, num_classes=1000, input_size=224, in_channels=3) -> NetworkSpec:
    """Bottleneck network with stage block counts keyed by depth preset."""
    if depth not in RESNET_STAGE_BLOCKS:
        raise ValueError(f"unknown depth preset {depth}; choose from {sorted(RESNET_STAGE_BLOCKS)}")
    return _bottleneck_net(f"resnet{depth}", _imagenet_stem, 64, RESNET_STAGE_BLOCKS[depth],
                           num_classes, input_size, in_channels)


def build_cifar_resnet(n, num_classes=100, in_channels=3) -> NetworkSpec:
    """Three-stage bottleneck net on 32x32 input; 9n+2 weighted layers.

    Stage widths are (16,16,64), (32,32,128), (64,64,256); subsampling is a
    stride-2 conv at the start of stages 2 and 3.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _bottleneck_net(f"cifar-n{n}", _cifar_stem, 16, (n, n, n),
                           num_classes, 32, in_channels)


def weighted_layer_count(spec: NetworkSpec) -> int:
    """Convs on the main path plus dense layers; projection shortcuts excluded."""
    n = 0
    for node in spec.nodes:
        if node.op == "dense":
            n += 1
        elif node.op == "conv" and not node.name.endswith(".proj"):
            n += 1
    return n


# ---------------------------------------------------------------------------
# scale-aggregation transforms

@dataclass
class BottleneckDesc:
    block_index: int
    mid: int
    out_channels: int
    stride: int
    h: int  # 3x3 conv output dims = aggregation-block working dims
    w: int


def describe_bottlenecks(base: NetworkSpec):
    """Recover per-block structure from a tagged baseline spec.

    Returns (stem_output_name, [BottleneckDesc...]). Mid width, stride and
    working dims come from each block's tagged 3x3 conv, the output width
    from the shape of its tagged residual add; the spec must be one produced
    by the builders above.
    """
    convs, adds = base.block_nodes("conv"), base.block_nodes("add")
    if not convs:
        raise SpecError(f"'{base.name}' has no tagged 3x3 bottleneck convs to replace")
    if set(adds) != set(convs):
        raise SpecError(f"'{base.name}' tags 3x3 convs of blocks {sorted(convs)} "
                        f"but adds of blocks {sorted(adds)}")
    descs = []
    for k, c3 in convs.items():
        _, h, w = base.shapes[c3.name]
        descs.append(BottleneckDesc(k, c3.attrs["in"], base.shapes[adds[k].name][0],
                                    c3.get("stride"), h, w))
    stem_out = _producer_of_op(base, convs[min(convs)].inputs[0], "conv").inputs[0]
    return stem_out, descs


def _producer_of_op(spec, name, op):
    node = spec.node(name)
    while node.op != op:
        if not node.inputs:
            raise SpecError(f"no upstream {op} found from '{name}'")
        node = spec.node(node.inputs[0])
    return node


def build_scalenet(base: NetworkSpec, plan: AllocationPlan,
                   downsample: str = "max") -> NetworkSpec:
    """Replace every tagged 3x3 bottleneck conv with an aggregation block.

    Strided baselines become a standalone 2x2 ceil-mode max pool in front of
    the residual, which keeps the replaced stride-2 conv's dims at odd sizes
    (all aggregation convs run at stride 1); the 1x1 expand input
    width follows the plan row sum. The plan must have one row per block.
    """
    stem_out, descs = describe_bottlenecks(base)
    want = {d.block_index for d in descs}
    if set(plan.rows) != want:
        raise SpecError(
            f"plan rows {sorted(plan.rows)} do not match blocks {sorted(want)}")
    b = SpecBuilder(_derived_name(base.name, plan))
    # stem nodes copied verbatim
    cur = None
    for node in base.nodes:
        b.add(node.name, node.op, list(node.inputs), **dict(node.attrs))
        if node.name == stem_out:
            cur = node.name
            break
    c_in = base.shapes[stem_out][0]
    for d in descs:
        prefix = f"sa{d.block_index}"
        if d.stride == 2:
            cur = b.add(f"{prefix}.pool", "maxpool", [cur], k=2, stride=2, ceil=1)
        elif d.stride != 1:
            raise SpecError(f"unsupported baseline stride {d.stride}")
        sa = SABlockSpec(d.mid, list(plan.scales), list(plan.rows[d.block_index]),
                         d.block_index, downsample=downsample)
        cur = build_sa_residual(b, prefix, cur, c_in, sa, d.out_channels, d.h, d.w)
        c_in = d.out_channels
    _head(b, cur, c_in, base.num_classes)
    return b.build()


def _derived_name(base_name, plan):
    tag = plan.source if plan.source else "plan"
    return f"scale-{base_name}-{tag}" if tag != base_name else f"scale-{base_name}"


def build_seed(base: NetworkSpec, scale_factors, downsample: str = "max") -> NetworkSpec:
    """Over-provisioned network: every scale gets the full baseline width,
    so each block carries len(scale_factors) * C output channels."""
    return build_scalenet(base, seed_plan(base, scale_factors), downsample=downsample)


def even_allocation(base: NetworkSpec, scale_factors) -> AllocationPlan:
    """Split each block's baseline width evenly; leftover channels go one
    each to the finest scales."""
    _, descs = describe_bottlenecks(base)
    L = len(scale_factors)
    rows = {}
    for d in descs:
        q, r = divmod(d.mid, L)
        rows[d.block_index] = [q + (1 if i < r else 0) for i in range(L)]
    return AllocationPlan(list(scale_factors), rows, source="even")


def seed_plan(base: NetworkSpec, scale_factors) -> AllocationPlan:
    """Every scale at the full baseline width of its block."""
    _, descs = describe_bottlenecks(base)
    rows = {d.block_index: [d.mid] * len(scale_factors) for d in descs}
    return AllocationPlan(list(scale_factors), rows, source="seed")
