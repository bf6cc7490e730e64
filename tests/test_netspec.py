import numpy as np
import pytest

from sakit import autograd
from sakit.netspec import (NetworkSpec, ShapeError, SpecBuilder, SpecError,
                           conv_out_dim, parse_node, propagate_shapes)
from sakit.presets import build_resnet, build_scalenet, reference_plan


def small_spec():
    b = SpecBuilder("tiny")
    b.add("x", "input", c=3, h=8, w=8)
    b.add("c1", "conv", ["x"], **{"in": 3, "out": 4, "k": 3, "stride": 1, "pad": 1})
    b.add("bn", "batchnorm", ["c1"], c=4)
    b.add("r", "relu", ["bn"])
    b.add("g", "gap", ["r"])
    b.add("fc", "dense", ["g"], **{"in": 4, "out": 2})
    b.add("loss", "softmax_xent", ["fc"])
    return b.build()


def test_text_round_trip():
    spec = small_spec()
    text = spec.to_text()
    back = NetworkSpec.from_text(text)
    assert back.name == spec.name
    assert [n.name for n in back.nodes] == [n.name for n in spec.nodes]
    for a, b in zip(spec.nodes, back.nodes):
        assert (a.op, a.inputs, a.attrs) == (b.op, b.inputs, b.attrs)
    # serialize(parse(text)) is the canonical form and is stable
    assert back.to_text() == text
    # only a line that starts with `#` is a comment, so a name keeps its `#`
    spec.name = "net#1"
    assert NetworkSpec.from_text("# a comment\n" + spec.to_text()).name == "net#1"
    # every line after the header is a node, so a node may be named `network`
    b = SpecBuilder("network")
    b.add("network", "input", c=1, h=2, w=2)
    b.add("g", "gap", ["network"])
    text = b.build().to_text()
    assert text.startswith("network network\nnetwork = input(")
    assert NetworkSpec.from_text(text).to_text() == text


def test_round_trip_resnet50():
    spec = build_resnet(50)
    back = NetworkSpec.from_text(spec.to_text())
    assert back.to_text() == spec.to_text()
    assert back.num_classes == 1000
    assert back.input_shape == (3, 224, 224)


def test_parse_node_forms():
    n = parse_node("a.b = conv(in=3,out=4,k=1) <- x")
    assert n.name == "a.b" and n.attrs["out"] == 4 and n.inputs == ["x"]
    n = parse_node("x = input(c=3,h=4,w=5)")
    assert n.inputs == []
    with pytest.raises(SpecError, match="unknown attr 'eps'"):
        parse_node("bn = batchnorm(c=8,eps=1e-05) <- a")


def test_parse_errors_carry_line_numbers():
    bad = "network t\nx = input(c=1,h=2,w=2)\ny = frobnicate() <- x\n"
    with pytest.raises(SpecError, match="line 3"):
        NetworkSpec.from_text(bad)
    with pytest.raises(SpecError, match="missing required attr"):
        NetworkSpec.from_text("network t\nx = input(c=1,h=2,w=2)\nc = conv(in=1) <- x\n")
    with pytest.raises(SpecError, match="before definition"):
        NetworkSpec.from_text("network t\nc = relu() <- nope\n")
    with pytest.raises(SpecError, match="network"):
        NetworkSpec.from_text("x = input(c=1,h=2,w=2)\n")
    with pytest.raises(SpecError, match="line 3: unparseable node line 'network b'"):
        NetworkSpec.from_text("network a\nx = input(c=1,h=2,w=2)\nnetwork b\n")


@pytest.mark.parametrize("line, attr", [
    ("c = conv(in=1,out=2,k=3,strid=2,pad=1) <- x", "strid"),
    ("r = relu(k=9) <- x", "k"),
    ("p = maxpool(k=2,stride=2,dilation=2) <- x", "dilation"),
    ("b = batchnorm(c=2,bias=1) <- x", "bias")])
def test_unknown_attrs_rejected_with_line(line, attr):
    with pytest.raises(SpecError, match=f"line 3: .*unknown attr '{attr}'"):
        parse_node(line, 3)


@pytest.mark.parametrize("line, message", [
    ("c = conv(in=1,out=2,k=abc) <- x", "attr 'k' must be an integer, got 'abc'"),
    ("c = conv(in=1,out=2,k=3.0) <- x", "attr 'k' must be an integer, got '3.0'"),
    ("c = conv(in=1,out=2,k=1_1) <- x", "attr 'k' must be an integer, got '1_1'"),
    ("c = conv(in=1,out=2,k=-1) <- x", "attr 'k' must be >= 1, got -1"),
    ("c = conv(in=1,out=2,k=3,stride=0) <- x", "attr 'stride' must be >= 1, got 0"),
    ("c = conv(in=1,out=2,k=3,dilation=0) <- x", "attr 'dilation' must be >= 1"),
    ("c = conv(in=0,out=2,k=3) <- x", "attr 'in' must be >= 1"),
    ("c = conv(in=1,out=2,k=3,pad=-1) <- x", "attr 'pad' must be >= 0, got -1"),
    ("c = conv(in=1,out=2,k=3,bias=2) <- x", "attr 'bias' must be 0 or 1, got 2"),
    ("c = maxpool(k=2,stride=2,ceil=2) <- x", "attr 'ceil' must be 0 or 1, got 2"),
    ("c = maxpool(k=2,stride=2,pad=2) <- x", "attr 'pad' must be <= k // 2 = 1, got 2"),
    ("c = avgpool(k=3,stride=1,pad=2,ceil=1) <- x", "attr 'pad' must be <= k // 2 = 1"),
    ("c = input(c=1,h=0,w=8)", "attr 'h' must be >= 1"),
    ("c = relu(block=a) <- x", "attr 'block' must be an integer, got 'a'")])
def test_attr_types_and_ranges_rejected_with_line(line, message):
    with pytest.raises(SpecError, match=f"line 3: node 'c': {message}"):
        parse_node(line, 3)


def test_ceil_pool_spec_shape_matches_forward():
    # the last window would start in the right padding, so it is dropped
    spec = NetworkSpec.from_text("network t\nx = input(c=1,h=5,w=5)\n"
                                 "p = avgpool(k=2,stride=2,pad=1,ceil=1) <- x\n")
    assert propagate_shapes(spec)["p"] == (1, 3, 3)
    g = autograd.Graph(spec)
    out = g.forward(np.ones((1, 1, 5, 5), dtype=np.float32), mode="infer", keep=["p"])
    assert out["p"].shape == (1, 1, 3, 3)


def test_builder_attr_types_and_ranges_checked():
    for attrs, message in [({"k": 3.0}, "attr 'k' must be an integer, got 3.0"),
                           ({"k": 3, "bias": True}, "attr 'bias' must be an integer"),
                           ({"k": 3, "stride": 0}, "attr 'stride' must be >= 1")]:
        b = _tiny_builder()
        b.add("c", "conv", ["x"], **{"in": 1, "out": 2}, **attrs)
        with pytest.raises(SpecError, match=f"node 'c': {message}"):
            b.build()
    b = _tiny_builder()
    b.add("c", "conv", ["x"], **{"in": np.int64(1), "out": 2, "k": 3, "pad": np.int64(1)})
    assert b.build().to_text().splitlines()[-1] == "c = conv(in=1,out=2,k=3,pad=1) <- x"


def test_optional_attrs_and_tags_accepted():
    n = parse_node("c = conv(in=1,out=2,k=3,stride=2,dilation=1,pad=1,bias=1,block=4,"
                   "scale=2) <- x")
    assert n.attrs["stride"] == 2 and n.attrs["scale"] == 2
    assert parse_node("r = relu(block=1,base=1) <- x").attrs == {"block": 1, "base": 1}


def _tiny_builder():
    b = SpecBuilder("t")
    b.add("x", "input", c=1, h=8, w=8)
    return b


def test_builder_specs_are_checked_like_text():
    b = _tiny_builder()
    b.add("c", "conv", ["x"], **{"in": 1, "out": 2, "k": 1, "strid": 2})
    with pytest.raises(SpecError, match="node 'c': .*unknown attr 'strid'"):
        b.build()
    b = _tiny_builder()
    b.add("c", "conv", ["x"], **{"in": 1, "out": 2})
    with pytest.raises(SpecError, match="node 'c': .*missing required attr 'k'"):
        b.build()


@pytest.mark.parametrize("line, message", [
    ("a = add() <- x", "op 'add' takes 2 input\\(s\\), got 1"),
    ("a = add() <- x,x,x", "op 'add' takes 2 input\\(s\\), got 3"),
    ("a = relu() <- x,x", "op 'relu' takes 1 input\\(s\\), got 2"),
    ("a = concat()", "op 'concat' takes at least 1 input\\(s\\), got 0"),
    ("a = input(c=1,h=8,w=8) <- x", "op 'input' takes 0 input\\(s\\), got 1")])
def test_op_arity_checked_in_text(line, message):
    with pytest.raises(SpecError, match=f"node 'a': {message}"):
        NetworkSpec.from_text(f"network t\nx = input(c=1,h=8,w=8)\n{line}\n")


@pytest.mark.parametrize("name", ["a b", "", "a\nb", "x=y", "a,b", "#"])
def test_node_names_the_text_cannot_carry_are_rejected(name):
    b = _tiny_builder()
    b.add(name, "relu", ["x"])
    with pytest.raises(SpecError, match="a node name is letters, digits"):
        b.build()


@pytest.mark.parametrize("name", ["", " t", "t ", "a\nb", "a\rb", "a\u2028b"])
def test_network_names_the_header_cannot_carry_are_rejected(name):
    b = _tiny_builder()
    b.name = name
    with pytest.raises(SpecError, match="must be one nonempty line"):
        b.build()


def test_op_arity_checked_in_builder_specs():
    for op, inputs in (("add", ["x"]), ("relu", ["x", "x"]), ("add", ["x"] * 3)):
        b = _tiny_builder()
        b.add("a", op, inputs)
        with pytest.raises(SpecError, match=f"node 'a': op '{op}' takes"):
            b.build()
    b = _tiny_builder()
    b.add("a", "add", ["x", "x"])
    b.add("c", "concat", ["a"])
    assert [n.inputs for n in b.build().nodes[1:]] == [["x", "x"], ["a"]]


def test_get_falls_back_on_the_declared_default():
    b = _tiny_builder()
    b.add("c", "conv", ["x"], **{"in": 1, "out": 2, "k": 3, "pad": 1, "block": 4})
    c = b.build().node("c")
    assert (c.get("stride"), c.get("dilation"), c.get("pad"), c.get("bias")) == (1, 1, 1, 0)
    assert c.get("block") == 4 and c.get("scale") is None


def test_duplicate_names_rejected():
    b = SpecBuilder("dup")
    b.add("x", "input", c=1, h=2, w=2)
    b.add("x", "relu", ["x"])
    with pytest.raises(SpecError, match="duplicate node name 'x' in 'dup'"):
        b.build()


def test_shape_propagation():
    spec = small_spec()
    shapes = propagate_shapes(spec)
    assert shapes["c1"] == (4, 8, 8)
    assert shapes["g"] == (4,)
    assert shapes["fc"] == (2,)
    assert shapes["loss"] == ()
    assert spec.shapes == shapes  # kept when the spec was made


def test_conv_shape_formula_matches_enumeration():
    # dilation 2, stride 2, k=3 on 8x8, pad 0: positions i*2 with
    # i*2 + 2*(3-1) <= 7 -> i in {0,1}
    def brute(size, k, s, d, p):
        eff = d * (k - 1)
        return sum(1 for i in range(size + 2 * p)
                   if i % s == 0 and i + eff <= size + 2 * p - 1) if s == 1 else \
            len([i for i in range(0, size + 2 * p, s) if i + eff <= size + 2 * p - 1])

    for size in range(3, 20):
        for k in (1, 3, 7):
            for s in (1, 2, 3):
                for d in (1, 2):
                    for p in (0, 1, 2, 3):
                        eff = d * (k - 1) + 1
                        if size + 2 * p < eff:
                            continue
                        assert conv_out_dim(size, k, s, d, p) == brute(size, k, s, d, p), \
                            (size, k, s, d, p)
    assert conv_out_dim(8, 3, 2, 2, 0) == 2


# one case per ShapeError branch of netspec._node_shape: (name, op, inputs,
# attrs) of the nodes after a 3x8x8 input "x", ending in node "bad", and the
# error's message
_POOL = ("p", "maxpool", ["x"], {"k": 2, "stride": 2})
_GAP = ("g", "gap", ["x"], {})
_SHAPE_ERRORS = {
    "conv-channels": ([("bad", "conv", ["x"], {"in": 5, "out": 4, "k": 3})],
                      "expects 5 channels, got 3"),
    "conv-dims": ([("bad", "conv", ["x"], {"in": 3, "out": 4, "k": 5, "dilation": 2})],
                  "non-positive output dims 0x0"),
    "pool-window": ([("bad", "avgpool", ["x"], {"k": 9, "stride": 1})],
                    "window 9 exceeds padded input 8x8"),
    "batchnorm-channels": ([("bad", "batchnorm", ["x"], {"c": 4})],
                           "expects 4 channels, got 3"),
    "concat-spatial": ([_POOL, ("bad", "concat", ["x", "p"], {})],
                       "spatial mismatch 4x4 vs 8x8"),
    "add-operands": ([_POOL, ("bad", "add", ["x", "p"], {})],
                     r"operand shapes differ: \(3, 8, 8\) vs \(3, 4, 4\)"),
    "dense-input": ([_GAP, ("bad", "dense", ["g"], {"in": 4, "out": 2})],
                    r"expects \(4,\) vector, got \(3,\)"),
    "softmax-vector": ([("bad", "softmax_xent", ["x"], {})],
                       r"logits must be a vector, got \(3, 8, 8\)"),
    "chw": ([_GAP, ("bad", "resize", ["g"], {"h": 2, "w": 2})],
            r"needs a CHW tensor, got shape \(3,\)"),
}


@pytest.mark.parametrize("case", _SHAPE_ERRORS)
def test_shape_errors_name_the_node(case):
    nodes, message = _SHAPE_ERRORS[case]
    b = SpecBuilder("bad")
    b.add("x", "input", c=3, h=8, w=8)
    for name, op, inputs, attrs in nodes:
        b.add(name, op, inputs, **attrs)
    with pytest.raises(ShapeError, match=f"^node 'bad': {message}$") as err:
        b.build()
    assert err.value.node == "bad"


def test_sa_block_discovery_on_plain_net_is_empty():
    assert small_spec().sa_blocks() == {}


def test_sa_conv_needs_exactly_one_batchnorm_reader():
    for readers in (0, 1, 2):
        b = SpecBuilder("sa")
        b.add("x", "input", c=3, h=8, w=8)
        b.add("c", "conv", ["x"],
              **{"in": 3, "out": 4, "k": 3, "pad": 1, "block": 1, "scale": 2})
        for i in range(readers):
            b.add(f"bn{i}", "batchnorm", ["c"], c=4)
        spec = b.build()
        if readers == 1:
            assert spec.sa_blocks() == {1: [(2, spec.node("c"), spec.node("bn0"))]}
        else:
            with pytest.raises(SpecError, match="SA conv 'c' has no unique batchnorm"):
                spec.sa_blocks()


def test_block_nodes_find_tagged_convs_adds_and_concats():
    r50 = build_resnet(50)
    convs, adds = r50.block_nodes("conv"), r50.block_nodes("add")
    assert list(convs) == list(adds) == list(range(1, 17))
    assert all(n.attrs["k"] == 3 for n in convs.values())
    assert all(n.op == "add" for n in adds.values())
    assert r50.block_nodes("concat") == {}
    s50 = build_scalenet(r50, reference_plan("scalenet50"))
    assert list(s50.block_nodes("concat")) == list(range(1, 17))
    assert list(s50.block_nodes("add")) == list(range(1, 17))
    assert s50.block_nodes("conv") == {}  # per-scale convs also carry a scale tag
