"""Architecture graphs: layer nodes, text round-tripping, shape propagation.

A network is an ordered DAG of layer nodes, weight-free. The text form is
line oriented (a ``network <name>`` header, then one node per line,
``name = op(key=val,...) <- in1,in2``, read through ``text_lines``) so
specs diff cleanly and can be embedded verbatim in checkpoints.

``KNOWN_OPS`` is the one node schema: each op's required attributes, then its
optional ones with their defaults (read through ``LayerSpec.get``), in print
order. Every attribute and tag is an integer; every attribute is >= 1, except
``pad`` (>= 0) and the ``bias``/``ceil`` flags (0 or 1). ``_ARITY`` is each
op's input count. Every ``NetworkSpec`` checks each node against these rules,
however it was made, and propagates its shapes once into ``spec.shapes``, so
a spec whose shapes do not hold fails where it is made (``ShapeError``). Its
nodes are not mutated afterwards; nothing downstream re-derives a shape.

The block and preset builders tag block nodes with ``block`` (and the
per-scale convs and batchnorms also with ``scale``); this is the only module
that reads those tags: ``sa_blocks`` for the per-scale convs and their
batchnorms, ``block_nodes`` for a block's 3x3 conv, concat or closing add.
"""

import numbers
import re
from dataclasses import dataclass, field


class SpecError(ValueError):
    """Malformed spec text or inconsistent node wiring."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ShapeError(ValueError):
    """Shape propagation failure; carries the offending node name."""

    def __init__(self, node, message):
        super().__init__(f"node '{node}': {message}")
        self.node = node


# op name -> (required attrs, {optional attr: default}); see the module docstring
KNOWN_OPS = {
    "input": (("c", "h", "w"), {}),
    "conv": (("in", "out", "k"), {"stride": 1, "dilation": 1, "pad": 0, "bias": 0}),
    "maxpool": (("k", "stride"), {"pad": 0, "ceil": 0}),
    "avgpool": (("k", "stride"), {"pad": 0, "ceil": 0}),
    "resize": (("h", "w"), {}),
    "batchnorm": (("c",), {}),
    "relu": ((), {}),
    "concat": ((), {}),
    "add": ((), {}),
    "gap": ((), {}),
    "dense": (("in", "out"), {}),
    "softmax_xent": ((), {}),
}
# op name -> (least, greatest) input count, None for no bound; any other op takes one
_ARITY = {"input": (0, 0), "add": (2, 2), "concat": (1, None)}
_TAGS = ("block", "scale", "base")  # allowed on any op, default None
# (least, greatest) value of an attribute; any other attribute is >= 1
_RANGES = {"pad": (0, None), "bias": (0, 1), "ceil": (0, 1)}

_NAME_RE = re.compile(r"[\w.\-]+")  # a node name, as node lines carry it
_NODE_RE = re.compile(
    rf"^(?P<name>{_NAME_RE.pattern})\s*=\s*(?P<op>\w+)\((?P<args>[^)]*)\)"
    r"(?:\s*<-\s*(?P<inputs>[\w.\-, ]*))?$"
)
# the characters that end a line for text_lines: Python's line boundaries
_LINE_BREAK_RE = re.compile("[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")


@dataclass
class LayerSpec:
    """One node: operation, attributes, and input node names."""

    name: str
    op: str
    inputs: list = field(default_factory=list)
    attrs: dict = field(default_factory=dict)

    def get(self, key):
        """The node's value of ``key``, else its op's declared default (None
        for an absent tag); a key its op does not declare is a KeyError."""
        if key in self.attrs:
            return self.attrs[key]
        return None if key in _TAGS else KNOWN_OPS[self.op][1][key]


@dataclass
class NetworkSpec:
    """Named, ordered node list describing an architecture without weights."""

    name: str
    nodes: list = field(default_factory=list)

    def __post_init__(self):
        """Check every node against its op's schema and the wiring: a DAG in
        topological order, one name per node, each op's input count (``_ARITY``);
        then propagate the shapes into ``self.shapes``."""
        if not self.name or not is_one_line(self.name):
            raise SpecError(f"network name {self.name!r} must be one nonempty line "
                            "with no leading or trailing whitespace")
        self._index = {}
        for i, n in enumerate(self.nodes):
            check_node(n)
            if n.name in self._index:
                raise SpecError(f"duplicate node name '{n.name}' in '{self.name}'")
            lo, hi = _ARITY.get(n.op, (1, 1))
            if len(n.inputs) < lo or (hi is not None and len(n.inputs) > hi):
                want = lo if lo == hi else f"at least {lo}"
                raise SpecError(f"node '{n.name}': op '{n.op}' takes {want} input(s), "
                                f"got {len(n.inputs)}")
            for name in n.inputs:
                if name not in self._index:
                    raise SpecError(f"node '{n.name}' uses '{name}' before definition")
            self._index[n.name] = i
        self.shapes = propagate_shapes(self)

    def node(self, name) -> LayerSpec:
        return self.nodes[self._index[name]]

    def __contains__(self, name):
        return name in self._index

    @property
    def input_shape(self):
        n = self._find_one("input")
        return (n.attrs["c"], n.attrs["h"], n.attrs["w"])

    @property
    def num_classes(self):
        for n in reversed(self.nodes):
            if n.op == "dense":
                return n.attrs["out"]
        raise SpecError(f"'{self.name}' has no dense head")

    @property
    def input_name(self):
        return self._find_one("input").name

    @property
    def loss_name(self):
        return self._find_one("softmax_xent").name

    @property
    def logits_name(self):
        return self._find_one("softmax_xent").inputs[0]

    def _find_one(self, op):
        found = [n for n in self.nodes if n.op == op]
        if len(found) != 1:
            raise SpecError(f"'{self.name}' needs exactly one {op} node, has {len(found)}")
        return found[0]

    def sa_blocks(self):
        """Map block index -> list of (scale, conv node, batchnorm node).

        An SA per-scale conv is a conv node tagged with both ``block`` and
        ``scale`` attrs; its batchnorm is the unique batchnorm reading that conv.
        """
        bn_readers = {}
        for n in self.nodes:
            if n.op == "batchnorm":
                for i in set(n.inputs):
                    bn_readers.setdefault(i, []).append(n)
        blocks = {}
        for n in self.nodes:
            if n.op == "conv" and "block" in n.attrs and "scale" in n.attrs:
                bns = bn_readers.get(n.name, [])
                if len(bns) != 1:
                    raise SpecError(f"SA conv '{n.name}' has no unique batchnorm consumer")
                blocks.setdefault(n.attrs["block"], []).append(
                    (n.attrs["scale"], n, bns[0])
                )
        for k in blocks:
            blocks[k].sort(key=lambda t: t[0])
        return dict(sorted(blocks.items()))

    def block_nodes(self, op):
        """Map block index -> the ``op`` node tagged with ``block`` but not
        ``scale``: a bottleneck's 3x3 conv, a block's concat or its closing add."""
        out = {n.attrs["block"]: n for n in self.nodes
               if n.op == op and "block" in n.attrs and "scale" not in n.attrs}
        return dict(sorted(out.items()))

    def to_text(self) -> str:
        lines = [f"network {self.name}"]
        for n in self.nodes:
            lines.append(format_node(n))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text) -> "NetworkSpec":
        """The first line is ``network <name>``; every later one is a node."""
        lines = text_lines(text)
        if not lines or not lines[0][1].startswith("network "):
            raise SpecError("expected a 'network <name>' header first",
                            lines[0][0] if lines else None)
        name = lines[0][1][len("network "):].strip()
        return cls(name, [parse_node(line, lineno) for lineno, line in lines[1:]])


def text_lines(text):
    """(line number, stripped line) of every line of ``text`` that is not
    blank and whose first non-blank character is not ``#``: the one comment
    rule of spec text, plans, config files and CSVs."""
    lines = [(i, raw.strip()) for i, raw in enumerate(text.splitlines(), start=1)]
    return [(i, line) for i, line in lines if line and not line.startswith("#")]


def csv_text(header, rows):
    """The one CSV format sakit writes: the ``header`` line, then one line
    per row of its cells through ``str``, joined by commas."""
    lines = [header] + [",".join(str(cell) for cell in row) for row in rows]
    return "\n".join(lines) + "\n"


def csv_rows(text, header, types):
    """Yield (line number, fields converted by ``types``) for each text line
    after ``header``; any malformed row raises SpecError naming its line."""
    lines = text_lines(text)
    if not lines or lines[0][1] != header:
        raise SpecError(f"csv must start with the header '{header}'",
                        lines[0][0] if lines else None)
    names = header.split(",")
    for lineno, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(names):
            raise SpecError(f"expected {len(names)} fields, got {len(parts)}", lineno)
        values = []
        for convert, name, part in zip(types, names, parts):
            try:
                values.append(convert(part))
            except ValueError:
                raise SpecError(f"{name} '{part}' is not a number", lineno) from None
        yield lineno, values


def read_text(path, error=SpecError):
    """The UTF-8 text of the file at ``path``; a file that is not UTF-8 raises
    ``error`` naming the file and the offset of its first bad byte."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text, byte {data[e.start]:#04x} "
                    f"at offset {e.start}") from None


def is_one_line(text):
    """True when ``text`` holds no line break and no leading or trailing
    whitespace, so a writer's ``<key> <text>`` line reads back as ``text``."""
    return text == text.strip() and not _LINE_BREAK_RE.search(text)


def format_node(n: LayerSpec) -> str:
    required, optional = KNOWN_OPS[n.op]
    keys = [k for k in (*required, *optional, *_TAGS) if k in n.attrs]
    args = ",".join(f"{k}={n.attrs[k]}" for k in keys)
    line = f"{n.name} = {n.op}({args})"
    if n.inputs:
        line += " <- " + ",".join(n.inputs)
    return line


def _parse_value(text):
    """An integer written in decimal digits, else the text itself for
    ``check_node`` to reject (so ``k=1_1`` is not read as 11)."""
    return int(text) if re.fullmatch(r"-?[0-9]+", text) else text


def parse_node(line, lineno=None) -> LayerSpec:
    m = _NODE_RE.match(line)
    if not m:
        raise SpecError(f"unparseable node line '{line}'", lineno)
    attrs = {}
    args = m.group("args").strip()
    if args:
        for part in args.split(","):
            if "=" not in part:
                raise SpecError(f"bad attribute '{part}'", lineno)
            k, v = part.split("=", 1)
            attrs[k.strip()] = _parse_value(v.strip())
    inputs = []
    if m.group("inputs"):
        inputs = [s.strip() for s in m.group("inputs").split(",") if s.strip()]
    layer = LayerSpec(m.group("name"), m.group("op"), inputs, attrs)
    check_node(layer, lineno)
    return layer


def check_node(layer: LayerSpec, lineno=None):
    """Raise SpecError unless the op is known and the node sets every required
    attribute of its op and nothing besides its optional ones and the tags,
    each an integer in its range."""
    where = f"node '{layer.name}'"
    if not _NAME_RE.fullmatch(layer.name):
        raise SpecError(f"{where}: a node name is letters, digits, '_', '.' and '-'",
                        lineno)
    if layer.op not in KNOWN_OPS:
        raise SpecError(f"{where}: unknown op '{layer.op}'", lineno)
    required, optional = KNOWN_OPS[layer.op]
    for req in required:
        if req not in layer.attrs:
            raise SpecError(f"{where}: op '{layer.op}' missing required attr '{req}'", lineno)
    for name, value in layer.attrs.items():
        if name not in required and name not in optional and name not in _TAGS:
            raise SpecError(f"{where}: op '{layer.op}' has unknown attr '{name}'", lineno)
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise SpecError(f"{where}: attr '{name}' must be an integer, got {value!r}",
                            lineno)
        lo, hi = _RANGES.get(name, (1, None))
        if name not in _TAGS and not (lo <= value and (hi is None or value <= hi)):
            allowed = f"{lo} or {hi}" if hi is not None else f">= {lo}"
            raise SpecError(f"{where}: attr '{name}' must be {allowed}, got {value}", lineno)
    if layer.op in ("maxpool", "avgpool") and layer.get("pad") > layer.attrs["k"] // 2:
        # a wider pad leaves windows that hold only padding
        raise SpecError(f"{where}: attr 'pad' must be <= k // 2 = {layer.attrs['k'] // 2}, "
                        f"got {layer.get('pad')}", lineno)


def conv_out_dim(size, k, stride, dilation, pad):
    eff = dilation * (k - 1) + 1
    return (size + 2 * pad - eff) // stride + 1


def pool_out_dim(size, k, stride, pad, ceil_mode):
    """Pooled size, or 0 when no valid window exists. In ceil mode a window
    may extend past the input but must start inside the input or the left
    padding; a last window that would start further right is dropped."""
    span = size + 2 * pad - k
    if ceil_mode:
        out = max(-(-span // stride), 0) + 1
        return out - 1 if (out - 1) * stride >= size + pad else out
    return span // stride + 1 if span >= 0 else 0


def propagate_shapes(spec: NetworkSpec) -> dict:
    """Per-sample output shape of every node: (C,H,W), (C,) or () for the loss."""
    shapes = {}
    for n in spec.nodes:
        ins = [shapes[i] for i in n.inputs]
        shapes[n.name] = _node_shape(n, ins)
    return shapes


def _node_shape(n: LayerSpec, ins):
    a = n.attrs
    if n.op == "input":
        return (a["c"], a["h"], a["w"])
    if n.op == "conv":
        c, h, w = _want3(n, ins[0])
        if c != a["in"]:
            raise ShapeError(n.name, f"expects {a['in']} channels, got {c}")
        k, s = a["k"], n.get("stride")
        d, p = n.get("dilation"), n.get("pad")
        ho = conv_out_dim(h, k, s, d, p)
        wo = conv_out_dim(w, k, s, d, p)
        if ho < 1 or wo < 1:
            raise ShapeError(n.name, f"non-positive output dims {ho}x{wo}")
        return (a["out"], ho, wo)
    if n.op in ("maxpool", "avgpool"):
        c, h, w = _want3(n, ins[0])
        k, s = a["k"], a["stride"]
        p, ceil = n.get("pad"), bool(n.get("ceil"))
        ho = pool_out_dim(h, k, s, p, ceil)
        wo = pool_out_dim(w, k, s, p, ceil)
        if ho < 1 or wo < 1:
            raise ShapeError(n.name, f"window {k} exceeds padded input {h}x{w}")
        return (c, ho, wo)
    if n.op == "resize":
        c, h, w = _want3(n, ins[0])
        return (c, a["h"], a["w"])
    if n.op == "batchnorm":
        c, h, w = _want3(n, ins[0])
        if c != a["c"]:
            raise ShapeError(n.name, f"expects {a['c']} channels, got {c}")
        return (c, h, w)
    if n.op == "relu":
        return ins[0]
    if n.op == "concat":
        c0, h0, w0 = _want3(n, ins[0])
        total = c0
        for s3 in ins[1:]:
            c, h, w = _want3(n, s3)
            if (h, w) != (h0, w0):
                raise ShapeError(n.name, f"spatial mismatch {h}x{w} vs {h0}x{w0}")
            total += c
        return (total, h0, w0)
    if n.op == "add":
        if ins[0] != ins[1]:
            raise ShapeError(n.name, f"operand shapes differ: {ins[0]} vs {ins[1]}")
        return ins[0]
    if n.op == "gap":
        c, _, _ = _want3(n, ins[0])
        return (c,)
    if n.op == "dense":
        if len(ins[0]) != 1 or ins[0][0] != a["in"]:
            raise ShapeError(n.name, f"expects ({a['in']},) vector, got {ins[0]}")
        return (a["out"],)
    if n.op == "softmax_xent":
        if len(ins[0]) != 1:
            raise ShapeError(n.name, f"logits must be a vector, got {ins[0]}")
        return ()
    raise ShapeError(n.name, f"unhandled op '{n.op}'")


def _want3(n, shape):
    if len(shape) != 3:
        raise ShapeError(n.name, f"needs a CHW tensor, got shape {shape}")
    return shape


class SpecBuilder:
    """Incremental constructor used by the preset and block builders."""

    def __init__(self, name):
        self.name = name
        self.nodes = []

    def add(self, name, op, inputs=(), **attrs) -> str:
        self.nodes.append(LayerSpec(name, op, list(inputs), dict(attrs)))
        return name

    def build(self) -> NetworkSpec:
        return NetworkSpec(self.name, self.nodes)
