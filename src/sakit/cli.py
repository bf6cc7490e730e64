"""Command-line surface: build / flops / train / allocate / pipeline / rf /
eval / report / gradcheck.

Option values resolve with precedence env > flag > config file > default;
env overrides use the SAKIT_ prefix (SAKIT_SEED=7). A boolean value is one
of 1/0/true/false/yes/no/on/off in any case. Commands that write
artifacts drop a ``config.resolved.txt`` snapshot of the options that were
set next to them, so ``sakit <cmd> --config <snapshot>`` reruns the run; a
config file is read through ``netspec.text_lines`` and so under its comment
rule, and a value that holds a line break is rejected. Every file the CLI
reads as text goes through ``netspec.read_text``: one that is not UTF-8 is a
usage error for ``--config`` and a ``SpecError`` for specs, plans and CSVs.
Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

import argparse
import os
import re
import sys

import numpy as np

from .blocks import DOWNSAMPLE_MODES, check_scales
from .checkpoint import write_text
from .netspec import is_one_line, read_text, text_lines

ENV_PREFIX = "SAKIT_"
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# key -> (type tag, default, help); shared across subcommands that list them.
# A "count" is an int of at least 1.
_OPTIONS = {
    "preset": ("str", None,
               "resnet50|resnet101|resnet152|cifar-n<k>; scalenetNN[-light] is "
               "resnetNN with its shipped plan as the default --plan"),
    "scales": ("intlist", None, "downsampling factors, e.g. 1,2,4,7"),
    "plan": ("str", None, "even|seed|<plan file>|<shipped plan name>; "
             "without it the baseline is built"),
    "downsample": ("str", "max", "in-block downsampling: max|avg|conv|dilated"),
    "b": ("float", 0.0, "cost-balance exponent for projection"),
    "seed": ("int", 0, "run seed"),
    "deterministic": ("bool", False, "suppress wall-clock in logs for bitwise reruns"),
    "dataset": ("str", "synthetic", "synthetic|cifar10|cifar100"),
    "data_dir": ("str", "", "directory with CIFAR binaries"),
    "classes": ("count", None, "class count (synthetic dataset / head override)"),
    "per_class": ("count", 100, "synthetic samples per class and split"),
    "val_per_class": ("count", 20, "synthetic validation samples per class"),
    "epochs": ("count", 10, "training epochs per stage"),
    "batch": ("count", 64, "batch size"),
    "lr": ("float", 0.1, "initial learning rate"),
    "milestones": ("intlist", [], "epochs after which lr divides by 10"),
    "momentum": ("float", 0.9, "SGD momentum"),
    "weight_decay": ("float", 1e-4, "L2 coefficient"),
    "augment": ("str", "none", "comma list of flip,crop-pad-4 or 'none'"),
    "out_dir": ("str", ".", "output directory"),
    "out": ("str", None, "output file path"),
    "input": ("count", None, "input resolution of a resnet or scalenet preset"),
    "in_channels": ("count", None, "input channel override"),
    "checkpoint": ("str", None, "checkpoint file"),
    "spec": ("str", None, "network spec text file"),
    "tolerance": ("float", 1e-5, "gradcheck relative-error bound"),
    "max_entries": ("count", 40, "finite-difference probes per parameter"),
    "config": ("str", None, "key=value overlay file"),
    "importances": ("str", None, "importance dump csv"),
    "budgets": ("str", None, "per-block budget csv"),
}

_NETWORK = ["preset", "scales", "plan", "downsample"]
_SHAPE = ["classes", "input", "in_channels"]
_DATA = ["dataset", "data_dir", "classes", "per_class", "val_per_class"]
_TRAINING = ["epochs", "batch", "lr", "milestones", "momentum", "weight_decay",
             "augment", "seed", "deterministic"]
_WRITES = ["out", "out_dir", "config"]

_COMMAND_KEYS = {
    "build": _NETWORK + _SHAPE + _WRITES,
    "flops": _NETWORK + _SHAPE + ["out", "config"],
    "train": ["preset", "spec"] + _NETWORK[1:] + _DATA + _TRAINING + ["out_dir", "config"],
    "allocate": ["scales", "b"] + _WRITES + ["importances", "budgets"],
    "pipeline": ["preset", "scales", "b", "downsample"] + _DATA + _TRAINING
                + ["out_dir", "config"],
    "rf": _NETWORK + _SHAPE + _WRITES,
    "eval": ["checkpoint", "dataset", "data_dir", "classes", "val_per_class", "batch",
             "seed", "config"],
    "report": ["plan", "preset", "scales"] + _SHAPE + ["downsample", "out_dir", "config"],
    "gradcheck": ["spec", "tolerance", "max_entries", "seed", "config"],
}


def _flag(key):
    return "--" + key.replace("_", "-")


def build_parser():
    parser = _Parser(prog="sakit", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command")
    for cmd, keys in _COMMAND_KEYS.items():
        sp = subs.add_parser(cmd)
        for key in keys:
            tag, _default, help_text = _OPTIONS[key]
            if tag == "bool":
                sp.add_argument(_flag(key), dest=key, action="store_true",
                                default=None, help=help_text)
            else:
                sp.add_argument(_flag(key), dest=key, default=None, help=help_text)
    return parser


def _coerce(key, tag, raw):
    if raw is None:
        return None
    if isinstance(raw, bool):
        return raw
    text = str(raw).strip()
    if not is_one_line(text):  # the snapshot writes each value on one line
        raise UsageError(f"{_flag(key)} takes one line, got {text!r}")
    try:
        if tag == "int":
            return int(text)
        if tag == "count":
            value = int(text)
            if value < 1:
                raise UsageError(f"{_flag(key)} must be at least 1, got {value}")
            return value
        if tag == "float":
            return float(text)
        if tag == "bool":
            if text.lower() not in _BOOLS:
                raise ValueError(f"expected one of {'/'.join(_BOOLS)}")
            return _BOOLS[text.lower()]
        if tag == "intlist":
            values = [int(p) for p in text.split(",") if p.strip()]
            if key == "scales":
                check_scales(values)
            return values
        if key == "downsample" and text not in DOWNSAMPLE_MODES:
            raise ValueError(f"expected one of {'|'.join(DOWNSAMPLE_MODES)}")
        return text
    except ValueError as e:
        raise UsageError(f"bad value '{text}' for {_flag(key)}: {e}") from None


def resolve_config(cmd, args):
    """Defaults, then config-file overlay, then explicit flags, then env."""
    keys = _COMMAND_KEYS[cmd]
    types = {k: _OPTIONS[k][0] for k in keys}
    cfg = {k: _OPTIONS[k][1] for k in keys}
    cfg_file = getattr(args, "config", None) or os.environ.get(ENV_PREFIX + "CONFIG")
    if cfg_file:
        seen = {}  # key -> line that set it
        for lineno, line in text_lines(read_text(cfg_file, UsageError)):
            if "=" not in line:
                raise UsageError(f"{cfg_file}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in types:
                raise UsageError(f"{cfg_file}:{lineno}: unknown key '{key}' for {cmd}")
            if key in seen:
                raise UsageError(f"{cfg_file}:{lineno}: duplicate key '{key}' "
                                 f"(first on line {seen[key]})")
            seen[key] = lineno
            try:
                cfg[key] = _coerce(key, types[key], value)
            except UsageError as e:
                raise UsageError(f"{cfg_file}:{lineno}: {e}") from None
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = _coerce(key, types[key], val)
    for env_key, env_val in os.environ.items():
        if not env_key.startswith(ENV_PREFIX):
            continue
        key = env_key[len(ENV_PREFIX):].lower()
        if key == "config":
            continue
        if key not in _OPTIONS:
            raise UsageError(f"unknown environment override {env_key}")
        if key in types:
            cfg[key] = _coerce(key, types[key], env_val)
    cfg.pop("config", None)
    return cfg


def write_snapshot(cmd, cfg, out_dir):
    """Write the set options of ``cfg`` as a --config file for ``cmd``."""
    path = os.path.join(out_dir, "config.resolved.txt")
    lines = [f"# sakit {cmd}"]
    for key in sorted(k for k in cfg if cfg[k] is not None):
        val = cfg[key]
        if isinstance(val, list):
            val = ",".join(str(v) for v in val)
        lines.append(f"{key}={val}")
    write_text(path, "\n".join(lines) + "\n")
    return path


def _write_output(cmd, cfg, default_name, text):
    """Write ``text`` to --out, else to ``default_name`` in --out-dir, with the
    snapshot beside it; returns the path."""
    path = cfg.get("out") or os.path.join(cfg["out_dir"], default_name)
    write_snapshot(cmd, cfg, os.path.dirname(path) or ".")
    write_text(path, text)
    return path


# ---------------------------------------------------------------------------
# shared construction helpers

_ALIAS = r"scalenet(50|101|152)(-light)?"


def _preset_base(cfg, ds=None):
    """The --preset network and its scales, --scales applied. ``ds`` gives
    the classes and input channels, else --classes and --in-channels do."""
    from .presets import (CIFAR_SCALES, IMAGENET_SCALES, build_cifar_resnet,
                          build_resnet)

    name = cfg.get("preset")
    if not name:
        raise UsageError("--preset is required")
    m = re.fullmatch(_ALIAS, name)
    if m:
        name = f"resnet{m.group(1)}"
    if ds is None:
        classes, channels = cfg.get("classes"), cfg.get("in_channels") or 3
    else:
        classes, channels = ds.num_classes, ds.channels
    m = re.fullmatch(r"cifar-n(\d+)", name)
    if m:
        if cfg.get("input"):
            raise UsageError(f"--input is not read with --preset {name}: "
                             "cifar-n<k> networks take 32x32 inputs")
        base = build_cifar_resnet(int(m.group(1)), classes or 100, channels)
        return base, cfg.get("scales") or CIFAR_SCALES
    m = re.fullmatch(r"resnet(50|101|152)", name)
    if m:
        base = build_resnet(int(m.group(1)), classes or 1000, cfg.get("input") or 224, channels)
        return base, cfg.get("scales") or IMAGENET_SCALES
    raise UsageError(f"unknown preset '{name}'")


def _plan(cfg, base=None, scales=None):
    """The allocation --plan names, or None for the baseline: a plan file if
    one exists at the path, else ``even`` or ``seed`` over ``scales`` of
    ``base``, else the shipped plan of that name. Without --plan, a
    scalenetNN[-light] preset names its shipped plan."""
    from .presets import even_allocation, load_plan, reference_plan, seed_plan

    flag, arg = "--plan", cfg.get("plan")
    if not arg and re.fullmatch(_ALIAS, cfg.get("preset") or ""):
        flag, arg = "--preset", cfg["preset"]
    if not arg:
        if cfg.get("scales"):
            raise UsageError("--scales needs --plan even or --plan seed: "
                             "without --plan the baseline is built")
        return None
    if arg in ("even", "seed") and not os.path.exists(arg):
        if base is None:
            raise UsageError(f"--plan {arg} needs --preset")
        return (even_allocation if arg == "even" else seed_plan)(base, scales)
    if cfg.get("scales"):
        raise UsageError(f"--scales is not read with {flag} {arg}: "
                         "the plan fixes its scales")
    return load_plan(arg) if os.path.exists(arg) else reference_plan(arg)


def _build_network(cfg, ds=None):
    """The network of --preset, --scales, --plan and --downsample."""
    from .presets import build_scalenet

    base, scales = _preset_base(cfg, ds)
    plan = _plan(cfg, base, scales)
    return base if plan is None else build_scalenet(base, plan, downsample=cfg["downsample"])


def _spec_file(cfg):
    """The network in the --spec file, or None when none is given."""
    from .netspec import NetworkSpec

    return NetworkSpec.from_text(read_text(cfg["spec"])) if cfg.get("spec") else None


def _load_dataset(cfg, split):
    """Load one split; the network takes its classes and input channels."""
    from .data import load_cifar, synthetic_dataset

    kind = cfg["dataset"]
    if kind == "synthetic":
        per = cfg["per_class"] if split == "train" else cfg["val_per_class"]
        ds = synthetic_dataset(cfg.get("classes") or 10, per, 32,
                               seed=cfg["seed"], split=split)
    elif kind in ("cifar10", "cifar100"):
        if not cfg.get("data_dir"):
            raise UsageError("--data-dir is required for CIFAR datasets")
        ds = load_cifar(cfg["data_dir"], kind, "train" if split == "train" else "test")
    else:
        raise UsageError(f"unknown dataset '{kind}'")
    return ds


def _check_fits(spec, ds):
    """Raise UsageError unless ``spec`` takes ``ds``'s images and classes."""
    images = tuple(ds.images.shape[1:])
    if spec.input_shape != images:
        raise UsageError(f"network '{spec.name}' takes {spec.input_shape} inputs, "
                         f"the dataset has {images} images")
    if spec.num_classes != ds.num_classes:
        raise UsageError(f"network '{spec.name}' has {spec.num_classes} classes, "
                         f"the dataset has {ds.num_classes}")


def _train_config(cfg):
    from .training import TrainConfig

    flags = tuple(p for p in (cfg.get("augment") or "none").split(",")
                  if p and p != "none")
    return TrainConfig(
        epochs=cfg["epochs"], batch_size=cfg["batch"], lr=cfg["lr"],
        milestones=tuple(cfg["milestones"]), momentum=cfg["momentum"],
        weight_decay=cfg["weight_decay"], seed=cfg["seed"],
        augment_flags=flags, deterministic=bool(cfg["deterministic"]))


# ---------------------------------------------------------------------------
# subcommands

def cmd_build(cfg, out):
    spec = _build_network(cfg)
    path = _write_output("build", cfg, f"{spec.name}.netspec", spec.to_text())
    out(f"wrote {path} ({len(spec.nodes)} nodes)")
    return 0


def cmd_flops(cfg, out):
    from .flops import network_flops

    spec = _build_network(cfg)
    report = network_flops(spec)
    out(f"{spec.name}: {report.total_macs:,} MACs "
        f"({report.total_macs / 1e9:.3f} G)")
    if report.sa_block_macs:
        out("k scale channels unit_cost subtotal budget utilization")
        for row in report.block_table():
            out(" ".join(str(v) if not isinstance(v, float) else f"{v:.4f}"
                         for v in row))
    if cfg.get("out"):
        out(f"wrote {_write_output('flops', cfg, None, report.block_table_csv())}")
    return 0


def cmd_train(cfg, out):
    from .training import train

    if cfg.get("spec"):
        given = [_flag(k) for k in ("preset", "scales", "plan") if cfg.get(k)]
        if given:
            raise UsageError(f"--spec gives the network; drop {', '.join(given)}")
    train_cfg = _train_config(cfg)
    train_ds = _load_dataset(cfg, "train")
    val_ds = _load_dataset(cfg, "val")
    spec = _spec_file(cfg) or _build_network(cfg, train_ds)
    _check_fits(spec, train_ds)
    write_snapshot("train", cfg, cfg["out_dir"])
    result = train(spec, train_ds, val_ds, train_cfg, out_dir=cfg["out_dir"], log=out)
    out(f"final val top1 {result.metrics[-1]['val_top1']:.4f}; "
        f"artifacts in {cfg['out_dir']}")
    return 0


def cmd_allocate(cfg, out):
    from .allocator import (ProjectionConfig, parse_budgets_csv,
                            parse_importance_csv, plan_from_results,
                            project_network)
    from .presets import serialize_plan

    if not cfg.get("importances") or not cfg.get("budgets"):
        raise UsageError("--importances and --budgets are required")
    if not cfg.get("scales"):
        raise UsageError("--scales is required")
    records = parse_importance_csv(read_text(cfg["importances"]))
    budgets = parse_budgets_csv(read_text(cfg["budgets"]))
    proj = ProjectionConfig(exponent=cfg["b"])
    results = project_network(records, budgets, proj)
    plan = plan_from_results(results, cfg["scales"], source="allocate",
                             exponent=cfg["b"], budgets=budgets)
    path = _write_output("allocate", cfg, "plan.txt", serialize_plan(plan))
    for k in sorted(plan.rows):
        out(f"{k}: {','.join(str(c) for c in plan.rows[k])}")
    out(f"wrote {path}")
    return 0


def cmd_pipeline(cfg, out):
    from .allocator import ProjectionConfig, run_pipeline
    from .report import emit_report

    train_cfg = _train_config(cfg)
    train_ds = _load_dataset(cfg, "train")
    val_ds = _load_dataset(cfg, "val")
    base, scales = _preset_base(cfg, train_ds)
    proj = ProjectionConfig(exponent=cfg["b"])
    write_snapshot("pipeline", cfg, cfg["out_dir"])
    result = run_pipeline(base, scales, train_ds, val_ds, train_cfg, proj,
                          out_dir=cfg["out_dir"],
                          downsample=cfg["downsample"])
    emit_report(result.plan, cfg["out_dir"], result.final_spec)
    out(f"plan rows: {len(result.plan.rows)}; final val top1 {result.final_top1:.4f}")
    out(f"artifacts in {cfg['out_dir']}")
    return 0


def cmd_rf(cfg, out):
    from .rf import _fmt, rf_network_report, rf_report_csv

    spec = _build_network(cfg)
    rows = rf_network_report(spec)
    out("block_index min_rf max_rf")
    for k, lo, hi in rows:
        out(f"{k} {_fmt(lo)} {_fmt(hi)}")
    out(f"wrote {_write_output('rf', cfg, 'rf.csv', rf_report_csv(rows))}")
    return 0


def cmd_eval(cfg, out):
    from .checkpoint import load_checkpoint
    from .netspec import NetworkSpec
    from .training import evaluate_tensors

    if not cfg.get("checkpoint"):
        raise UsageError("--checkpoint is required")
    spec_text, tensors = load_checkpoint(cfg["checkpoint"])
    spec = NetworkSpec.from_text(spec_text)
    ds = _load_dataset(cfg, "val")
    _check_fits(spec, ds)
    ev = evaluate_tensors(spec, tensors, ds, batch=cfg["batch"])
    out(f"top1 error {ev.top1_err:.4f}")
    if ev.top5_err is not None:
        out(f"top5 error {ev.top5_err:.4f}")
    out(f"loss {ev.loss:.4f}")
    return 0


def cmd_report(cfg, out):
    from .presets import build_scalenet
    from .report import emit_report

    base, scales = _preset_base(cfg) if cfg.get("preset") else (None, None)
    plan = _plan(cfg, base, scales)
    if plan is None:
        raise UsageError("--plan is required")
    spec = None if base is None else build_scalenet(base, plan, downsample=cfg["downsample"])
    paths = emit_report(plan, cfg["out_dir"], spec)
    write_snapshot("report", cfg, cfg["out_dir"])
    for name in sorted(paths):
        out(f"wrote {paths[name]}")
    return 0


def cmd_gradcheck(cfg, out):
    from .autograd import Graph, gradcheck
    from .rng import stream

    spec = _spec_file(cfg) or _coverage_spec()
    graph = Graph(spec, dtype=np.float64, seed=cfg["seed"])
    c, h, w = spec.input_shape
    rng = stream(cfg["seed"], "gradcheck-input")
    x = rng.uniform(-1, 1, size=(2, c, h, w))
    labels = rng.integers(0, spec.num_classes, size=2)
    report = gradcheck(graph, x, labels, tolerance=cfg["tolerance"],
                       max_entries=cfg["max_entries"], seed=cfg["seed"])
    for entry in report.entries:
        out(f"{'ok  ' if entry.ok else 'FAIL'} {entry.param}: {entry.max_rel_err:.3e}")
    out(f"max relative error {report.max_rel_err:.3e} "
        f"(tolerance {report.tolerance:.1e})")
    return 0 if report.ok else 2


def _coverage_spec():
    """Small graph touching every differentiable op."""
    from .netspec import SpecBuilder

    b = SpecBuilder("coverage")
    b.add("x", "input", c=2, h=8, w=8)
    b.add("c1", "conv", ["x"], **{"in": 2, "out": 3, "k": 3, "stride": 1, "pad": 1})
    b.add("bn1", "batchnorm", ["c1"], c=3)
    b.add("r1", "relu", ["bn1"])
    b.add("p1", "maxpool", ["r1"], k=2, stride=2)
    b.add("a1", "avgpool", ["r1"], k=2, stride=2)
    b.add("cat", "concat", ["p1", "a1"])
    b.add("c2", "conv", ["cat"], **{"in": 6, "out": 3, "k": 1})
    b.add("up", "resize", ["c2"], h=8, w=8)
    b.add("sc", "conv", ["r1"], **{"in": 3, "out": 3, "k": 1})
    b.add("sum", "add", ["up", "sc"])
    b.add("gap", "gap", ["sum"])
    b.add("fc", "dense", ["gap"], **{"in": 3, "out": 4})
    b.add("loss", "softmax_xent", ["fc"])
    return b.build()


_COMMANDS = {
    "build": cmd_build,
    "flops": cmd_flops,
    "train": cmd_train,
    "allocate": cmd_allocate,
    "pipeline": cmd_pipeline,
    "rf": cmd_rf,
    "eval": cmd_eval,
    "report": cmd_report,
    "gradcheck": cmd_gradcheck,
}


def run_command(argv, out=print) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_usage(sys.stderr)
            return 1
        cfg = resolve_config(args.command, args)
        return _COMMANDS[args.command](cfg, out)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
