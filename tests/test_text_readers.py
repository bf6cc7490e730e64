"""Every line-oriented text reader under mutation, and every writer under
drawn names and values.

Each reader gets a valid file with one to three edits: delete, insert or
duplicate a line, truncate, or flip one of the low seven bits of a character
(so the text stays ASCII; decoding a file is not the line reader's job). The
result either loads, and serializing the parse is a fixed point, or it raises
the reader's own error type, naming a line, or else the node or row it is
about or what the whole text lacks. Each writer either rejects a drawn name
or value where it is set, or writes text that reads back to it. Every CSV
sakit writes reads back through the one CSV reader, ``netspec.csv_rows``.
"""

import os
import re
import string
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sakit.allocator import (NeuronRecord, ProjectionConfig, budgets_csv, importance_csv,
                             parse_budgets_csv, parse_importance_csv, run_pipeline)
from sakit.checkpoint import write_text
from sakit.cli import UsageError, build_parser, resolve_config, write_snapshot
from sakit.data import synthetic_dataset
from sakit.flops import network_flops
from sakit.netspec import NetworkSpec, ShapeError, SpecBuilder, SpecError, csv_rows
from sakit.presets import AllocationPlan, build_cifar_resnet, parse_plan, serialize_plan
from sakit.report import emit_report
from sakit.training import TrainConfig, downsample_sweep

# printable ASCII, with its line breaks, plus the other characters that end a line
_PRINTABLE = string.printable + "\x1c\x85\u2028"
_MUTATIONS = settings(max_examples=150, deadline=None)
_WRITES = settings(max_examples=100, deadline=None)

_SPEC = """network tiny
# a comment
x = input(c=3,h=8,w=8)
c1 = conv(in=3,out=4,k=3,pad=1) <- x

bn = batchnorm(c=4) <- c1
r = relu() <- bn
g = gap() <- r
fc = dense(in=4,out=2) <- g
loss = softmax_xent() <- fc
"""
_PLAN = serialize_plan(AllocationPlan([1, 2, 4], {1: [3, 2, 1], 2: [0, 4, 4]},
                                      source="run#7", exponent=0.5,
                                      budgets={1: 900, 2: 1200}))
_RECORDS = [NeuronRecord(1, 1, 0, 0.5, 9), NeuronRecord(1, 2, 0, -0.25, 3),
            NeuronRecord(2, 1, 0, 1e-3, 9), NeuronRecord(2, 1, 1, -0.0, 9)]
_CONFIG = ("# sakit train\npreset=cifar-n1\nseed=3\nlr=0.05\nmilestones=2,4\n"
           "deterministic=True\nout_dir=run#1\n")


@st.composite
def mutations(draw, text):
    """``text`` after one to three line edits, truncations or bit flips."""
    for _ in range(draw(st.integers(1, 3))):
        lines = text.splitlines(keepends=True) or [""]
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["delete", "insert", "duplicate", "truncate", "flip"]))
        if edit == "delete":
            del lines[i]
        elif edit == "insert":
            lines.insert(i, draw(st.text(_PRINTABLE, max_size=24)) + "\n")
        elif edit == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        text = "".join(lines)
        if edit == "truncate":
            text = text[:draw(st.integers(0, len(text)))]
        elif edit == "flip" and text:
            j = draw(st.integers(0, len(text) - 1))
            flipped = chr(ord(text[j]) ^ (1 << draw(st.integers(0, 6))))
            text = text[:j] + flipped + text[j + 1:]
    return text


def _says_where(e, text):
    """True when ``e`` names a line of ``text``, or else the node or row it is
    about, or what the whole text lacks."""
    if getattr(e, "line", None) is not None:
        return 1 <= e.line <= len(text.splitlines())
    return re.match(r"node '|duplicate node name '|row -?\d+ |missing |plan has no "
                    r"|csv must start|expected a 'network", str(e)) is not None


def _loads_to_a_fixed_point_or_says_where(parse, serialize, text, errors):
    try:
        once = serialize(parse(text))
    except errors as e:
        assert _says_where(e, text), repr(e)
        return
    assert serialize(parse(once)) == once


@given(mutations(_SPEC))
@_MUTATIONS
def test_spec_reader_under_mutation(text):
    _loads_to_a_fixed_point_or_says_where(NetworkSpec.from_text, NetworkSpec.to_text,
                                          text, (SpecError, ShapeError))


@given(mutations(_PLAN))
@_MUTATIONS
def test_plan_reader_under_mutation(text):
    _loads_to_a_fixed_point_or_says_where(parse_plan, serialize_plan, text, SpecError)


@given(mutations(importance_csv(_RECORDS)))
@_MUTATIONS
def test_importances_csv_reader_under_mutation(text):
    _loads_to_a_fixed_point_or_says_where(parse_importance_csv, importance_csv, text,
                                          SpecError)


@given(mutations(budgets_csv({1: 900, 2: 1200, 5: 7})))
@_MUTATIONS
def test_budgets_csv_reader_under_mutation(text):
    _loads_to_a_fixed_point_or_says_where(parse_budgets_csv, budgets_csv, text, SpecError)


@pytest.fixture
def config_io(tmp_path, monkeypatch):
    """(parse, serialize) of ``train`` config text through a file, with no
    SAKIT_ variable set."""
    for key in [k for k in os.environ if k.startswith("SAKIT_")]:
        monkeypatch.delenv(key)
    path = tmp_path / "conf.txt"

    def parse(text):
        path.write_text(text, encoding="utf-8")
        return resolve_config("train", build_parser().parse_args(["train", "--config",
                                                                  str(path)]))

    def serialize(cfg):
        return Path(write_snapshot("train", cfg, tmp_path)).read_text("utf-8")

    return path, parse, serialize


@given(text=mutations(_CONFIG))
@settings(_MUTATIONS, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_config_reader_under_mutation(config_io, text):
    path, parse, serialize = config_io
    try:
        once = serialize(parse(text))
    except UsageError as e:
        m = re.match(rf"{re.escape(str(path))}:(\d+): ", str(e))
        assert m and 1 <= int(m.group(1)) <= len(text.splitlines()), repr(e)
        return
    assert serialize(parse(once)) == once


@given(st.text(_PRINTABLE, max_size=12), st.text(_PRINTABLE, max_size=12),
       st.text(_PRINTABLE, max_size=12))
@_WRITES
def test_spec_writer_under_drawn_names(network, first, second):
    b = SpecBuilder(network)
    b.add(first, "input", c=1, h=2, w=2)
    b.add(second, "relu", [first])
    try:
        spec = b.build()
    except SpecError:
        return
    back = NetworkSpec.from_text(spec.to_text())
    assert (back.name, [n.name for n in back.nodes]) == (network, [first, second])
    assert back.to_text() == spec.to_text()


@given(st.text(_PRINTABLE, max_size=24))
@_WRITES
def test_plan_writer_under_a_drawn_source(source):
    try:
        plan = AllocationPlan([1, 2], {1: [3, 4]}, source=source)
    except ValueError:
        return
    back = parse_plan(serialize_plan(plan))
    assert (back.source, back.rows) == (source, {1: [3, 4]})


_FIELDS = st.integers(-10**6, 10**6)


@given(st.lists(st.tuples(_FIELDS, _FIELDS, _FIELDS, st.floats(), _FIELDS), max_size=4),
       st.dictionaries(_FIELDS, _FIELDS, max_size=4))
@_WRITES
def test_csv_writers_under_drawn_values(records, budgets):
    """A record or budget the reader refuses fails there, naming its line."""
    records = [NeuronRecord(*r) for r in records]
    text = importance_csv(records)
    try:
        back = parse_importance_csv(text)
    except SpecError as e:
        assert _says_where(e, text), repr(e)
    else:
        assert importance_csv(back) == text
    text = budgets_csv(budgets)
    try:
        assert parse_budgets_csv(text) == budgets
    except SpecError as e:
        assert _says_where(e, text), repr(e)


@given(st.text(_PRINTABLE, max_size=24))
@settings(_WRITES, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_config_writer_under_a_drawn_value(config_io, value):
    _, parse, serialize = config_io
    try:
        cfg = resolve_config("train", build_parser().parse_args(["train",
                                                                  f"--data-dir={value}"]))
    except UsageError:
        return
    assert parse(serialize(cfg)) == cfg


def test_every_csv_sakit_writes_reads_back_through_the_one_reader(tmp_path):
    classes, scales = 6, [1, 2]
    train_ds = synthetic_dataset(classes, 4, 32, seed=0, split="train")
    val_ds = synthetic_dataset(classes, 2, 32, seed=0, split="val")
    base = build_cifar_resnet(1, num_classes=classes, in_channels=1)
    cfg = TrainConfig(epochs=1, batch_size=8, deterministic=True)
    result = run_pipeline(base, scales, train_ds, val_ds, cfg, ProjectionConfig(), tmp_path)
    emit_report(result.plan, tmp_path, result.final_spec)
    write_text(tmp_path / "blocks.csv", network_flops(result.seed_spec).block_table_csv())
    downsample_sweep(base, scales, train_ds, val_ds, cfg, out_csv=tmp_path / "sweep.csv")
    blocks = result.seed_spec.sa_blocks()
    channels = sum(conv.attrs["out"] for branches in blocks.values()
                   for _, conv, _ in branches)
    metrics = "epoch,lr,train_loss,train_top1,val_top1,val_top5,seconds"
    expected = {  # file: (header, row count)
        "importances.csv": ("k,scale,channel,gamma,abs_gamma,unit_cost", channels),
        "budgets.csv": ("k,budget", len(blocks)),
        "seed_metrics.csv": (metrics, 1),
        "final_metrics.csv": (metrics, 1),
        "blocks.csv": ("k,scale,channels,unit_cost,subtotal,budget,utilization",
                       len(blocks) * len(scales)),
        "proportions.csv": ("k,scale,channels,proportion", len(blocks) * len(scales)),
        "rf.csv": ("block_index,min_rf,max_rf", len(blocks)),  # one row per block
        "sweep.csv": ("mode,train_loss,val_top1,val_top5", 4),
    }
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(expected)
    for name, (header, count) in expected.items():
        rows = list(csv_rows((tmp_path / name).read_text(), header,
                             (str,) * len(header.split(","))))
        assert len(rows) == count, name
