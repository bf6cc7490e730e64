import gc
import os
import resource
import shlex
import signal
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from sakit.cli import _COMMAND_KEYS, build_parser, main, resolve_config


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_usage_errors_exit_1(capsys):
    code, _, err = run(capsys, "definitely-not-a-command")
    assert code == 1
    code, _, err = run(capsys, "flops")  # missing --preset
    assert code == 1 and "preset" in err
    code, _, err = run(capsys, "flops", "--preset", "cifar-n1", "--repeats", "3")
    assert code == 1 and "--repeats" in err
    code, _, _ = run(capsys)
    assert code == 1


@pytest.mark.parametrize("argv, flag", [
    (["flops", "--preset", "cifar-n1", "--classes", "0"], "--classes"),
    (["flops", "--preset", "cifar-n1", "--classes", "-3"], "--classes"),
    (["flops", "--preset", "resnet50", "--input", "0"], "--input"),
    (["flops", "--preset", "resnet50", "--in-channels", "0"], "--in-channels"),
    (["pipeline", "--preset", "cifar-n1", "--epochs", "0"], "--epochs"),
    (["eval", "--checkpoint", "missing.sanc", "--batch", "0"], "--batch"),
    (["gradcheck", "--max-entries", "0"], "--max-entries"),
    (["train", "--preset", "cifar-n1", "--epochs", "0"], "--epochs"),
    (["train", "--preset", "cifar-n1", "--per-class", "0"], "--per-class"),
    (["train", "--preset", "cifar-n1", "--val-per-class", "0"], "--val-per-class"),
    (["train", "--preset", "cifar-n1", "--batch", "0"], "--batch"),
])
def test_counts_below_their_least_value_are_usage_errors(capsys, tmp_path, argv, flag):
    if argv[0] in ("train", "pipeline"):
        argv += ["--out-dir", str(tmp_path / "run")]
    elif argv[0] == "flops":
        argv += ["--out", str(tmp_path / "run" / "blocks.csv")]
    code, out, err = run(capsys, *argv)
    assert code == 1 and f"{flag} must be at least" in err, (out, err)
    assert not (tmp_path / "run").exists()


_SMALL = ["--preset", "cifar-n1", "--per-class", "2", "--val-per-class", "1"]
_ALLOCATE = ["allocate", "--importances", "{tmp}/imp.csv", "--budgets", "{tmp}/bud.csv"]


@pytest.mark.parametrize("argv, says", [
    (["train", *_SMALL, "--epochs", "2", "--milestones", "3"], "milestones"),
    (["train", *_SMALL, "--epochs", "3", "--milestones", "0"], "milestones must be at least 1"),
    (["train", *_SMALL, "--epochs", "3", "--milestones", "2,2"], "strictly ascending"),
    (["train", *_SMALL, "--augment", "flipp"], "flipp"),
    (["train", *_SMALL, "--lr", "-1"], "learning rate"),
    (["pipeline", *_SMALL, "--downsample", "bogus"], "--downsample"),
    (["pipeline", *_SMALL, "--scales", "2,1"], "--scales"),
    (["build", "--preset", "cifar-n1", "--scales", "2,1", "--plan", "even"], "--scales"),
    ([*_ALLOCATE, "--scales", "2,1"], "--scales"),
    ([*_ALLOCATE, "--scales", "1,4"], "scales [2]"),  # the kept scale-2 channel
    (["allocate", "--importances", "{tmp}/imp2.csv", "--budgets", "{tmp}/bud.csv",
      "--scales", "1,2"], "no budget for blocks [2]"),
    (["allocate", "--importances", "{tmp}/imp2.csv", "--budgets", "{tmp}/bud0.csv",
      "--scales", "1,2"], "line 3: budget of block 2 must be at least 1"),
    (["build", "--preset", "cifar-n4", "--plan", "cifar-n4", "--scales", "1,2"],
     "--scales is not read with --plan cifar-n4"),
    (["rf", "--preset", "scalenet50", "--scales", "1,2,4"],
     "--scales is not read with --preset scalenet50"),
    (["report", "--plan", "even"], "--plan even needs --preset"),
    (["flops", "--preset", "cifar-n1"], "unrecognized arguments: --out-dir"),
    (["pipeline", *_SMALL, "--b", "nan"], "exponent b must be finite"),
    ([*_ALLOCATE, "--scales", "1,2", "--b", "inf"], "exponent b must be finite"),
    (["train", "--spec", "{tmp}/s.netspec", "--preset", "resnet50", "--scales", "1,2",
      "--plan", "even"], "--spec gives the network; drop --preset, --scales, --plan"),
    (["train", "--spec", "{tmp}/s.netspec", "--plan", "cifar-n4"], "drop --plan"),
    (["build", "--preset", "cifar-n1", "--input", "64"], "--input is not read with --preset"),
    (["train", "--spec", "{tmp}/bad.netspec"], "node 'c1': expects 3 channels, got 1"),
    (["build", "--preset", "cifar-n1", "--scales", "1,2,4"], "--scales needs --plan"),
    (["rf", "--preset", "cifar-n1", "--scales", "1,2,4"], "--scales needs --plan"),
    (["train", *_SMALL, "--scales", "1,2,4"], "--scales needs --plan"),
], ids=["milestones", "milestones-zero", "milestones-repeated", "augment", "lr", "downsample", "pipeline-scales", "build-scales",
        "allocate-scales", "allocate-lost-scale", "allocate-budget-hole",
        "allocate-zero-budget", "build-plan-scales", "rf-alias-scales",
        "report-even-without-preset", "flops-out-dir", "pipeline-b-nan", "allocate-b-inf",
        "train-spec-with-network-options", "train-spec-with-plan", "cifar-input",
        "train-spec-shapes", "build-scales-without-plan", "rf-scales-without-plan",
        "train-scales-without-plan"])
def test_bad_options_fail_before_anything_is_written(capsys, tmp_path, argv, says):
    (tmp_path / "imp.csv").write_text("k,scale,channel,gamma,abs_gamma,unit_cost\n"
                                      "1,1,0,0.9,0.9,4\n1,2,0,0.7,0.7,1\n")
    (tmp_path / "imp2.csv").write_text("k,scale,channel,gamma,abs_gamma,unit_cost\n"
                                       "1,1,0,0.9,0.9,4\n2,2,0,0.7,0.7,1\n")
    (tmp_path / "bud.csv").write_text("k,budget\n1,99\n")
    (tmp_path / "bud0.csv").write_text("k,budget\n1,99\n2,0\n")
    (tmp_path / "bad.netspec").write_text(  # a 3-channel conv on 1-channel images
        "network bad\nx = input(c=1,h=32,w=32)\nc1 = conv(in=3,out=4,k=3,pad=1) <- x\n"
        "g = gap() <- c1\nfc = dense(in=4,out=10) <- g\nloss = softmax_xent() <- fc\n")
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, _, err = run(capsys, *argv, "--out-dir", str(tmp_path / "run"))
    assert code != 0 and says in err, err
    assert not (tmp_path / "run").exists() or not list((tmp_path / "run").iterdir())


# run with no --out-dir in an empty directory, so "." is where a write would land
@pytest.mark.parametrize("argv, says", [
    (["build", "--preset", "resnet18"], "unknown preset 'resnet18'"),
    (["train", "--preset", "cifar-n1", "--dataset", "cifar10"],
     "--data-dir is required for CIFAR datasets"),
    (["train", "--preset", "cifar-n1", "--dataset", "imagenet"], "unknown dataset 'imagenet'"),
    (["allocate", "--scales", "1,2"], "--importances and --budgets are required"),
    (["allocate", "--importances", "imp.csv", "--budgets", "bud.csv"], "--scales is required"),
    (["eval"], "--checkpoint is required"),
    (["report", "--preset", "resnet50"], "--plan is required"),
    # eval loads the val split, which --val-per-class sizes
    (["eval", "--checkpoint", "run.sanc", "--per-class", "3"],
     "unrecognized arguments: --per-class 3"),
], ids=["preset", "cifar-data-dir", "dataset", "allocate-inputs", "allocate-scales",
        "eval-checkpoint", "report-plan", "eval-per-class"])
def test_missing_and_unknown_inputs_are_usage_errors(capsys, tmp_path, monkeypatch, argv,
                                                     says):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == 1 and f"usage error: {says}" in err, err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("source", ["file", "env"])
@pytest.mark.parametrize("text, value", [
    ("ture", None), ("yes", True), ("On", True), ("1", True), ("FALSE", False), ("off", False)])
def test_boolean_values_are_checked(tmp_path, monkeypatch, source, text, value):
    from sakit.cli import UsageError

    argv = ["train"]
    if source == "file":
        (tmp_path / "conf.txt").write_text(f"deterministic={text}\n")
        argv += ["--config", str(tmp_path / "conf.txt")]
    else:
        monkeypatch.setenv("SAKIT_DETERMINISTIC", text)
    args = build_parser().parse_args(argv)
    if value is None:
        with pytest.raises(UsageError, match="deterministic"):
            resolve_config("train", args)
    else:
        assert resolve_config("train", args)["deterministic"] is value


def test_flops_command_prints_total(capsys):
    code, out, _ = run(capsys, "flops", "--preset", "resnet50")
    assert code == 0
    assert "4.089 G" in out


def test_flops_scalenet_with_shipped_plan(capsys, tmp_path):
    csv = tmp_path / "blocks.csv"
    code, out, _ = run(capsys, "flops", "--preset", "resnet50",
                       "--plan", "scalenet50", "--out", str(csv))
    assert code == 0
    assert "3.869 G" in out
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "k,scale,channels,unit_cost,subtotal,budget,utilization"
    assert len(lines) > 16


def test_build_writes_spec_and_snapshot(capsys, tmp_path):
    out_file = tmp_path / "net.netspec"
    code, out, _ = run(capsys, "build", "--preset", "cifar-n1",
                       "--plan", "even", "--out", str(out_file))
    assert code == 0 and out_file.exists()
    assert (tmp_path / "config.resolved.txt").exists()
    text = out_file.read_text()
    assert text.startswith("network ")
    snapshot = (tmp_path / "config.resolved.txt").read_text()
    assert snapshot.startswith("# sakit build\n") and "preset=cifar-n1" in snapshot


_TINY_TRAIN = ["train", "--preset", "cifar-n1", "--classes", "3", "--per-class", "2",
               "--val-per-class", "1", "--epochs", "2", "--batch", "4", "--deterministic"]


@pytest.mark.parametrize("argv, artifact", [
    (["build", "--preset", "cifar-n1", "--plan", "seed", "--classes", "7"], "*.netspec"),
    ([*_TINY_TRAIN, "--momentum", "0.5", "--weight-decay", "0"], "metrics.csv"),
], ids=["build", "train"])
def test_snapshot_replays_the_run(capsys, tmp_path, argv, artifact):
    code, _, err = run(capsys, *argv, "--out-dir", str(tmp_path / "first"))
    assert code == 0, err
    snapshot = tmp_path / "first" / "config.resolved.txt"
    code, _, err = run(capsys, argv[0], "--config", str(snapshot),
                       "--out-dir", str(tmp_path / "replay"))
    assert code == 0, err
    first = sorted((tmp_path / "first").glob(artifact))
    replay = sorted((tmp_path / "replay").glob(artifact))
    assert [p.name for p in first] == [p.name for p in replay] and first
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in replay]


def test_momentum_reaches_training(capsys, tmp_path):
    for momentum in ("0.5", "0.9"):
        code, _, err = run(capsys, *_TINY_TRAIN, "--momentum", momentum, "--weight-decay", "0",
                           "--out-dir", str(tmp_path / momentum))
        assert code == 0, err
    assert ((tmp_path / "0.5" / "metrics.csv").read_bytes()
            != (tmp_path / "0.9" / "metrics.csv").read_bytes())


def test_readme_cli_lines_parse():
    """Each ``sakit`` line of the README's CLI block parses, so no removed
    command or flag lingers in the docs."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True)
             for line in block.replace("\\\n", " ").splitlines()]
    argvs = [words[1:] for words in lines if words[:1] == ["sakit"]]
    assert {argv[0] for argv in argvs} == set(_COMMAND_KEYS)
    for argv in argvs:
        build_parser().parse_args(argv)


def test_rf_command(capsys, tmp_path):
    csv = tmp_path / "rf.csv"
    code, out, _ = run(capsys, "rf", "--preset", "resnet50",
                       "--plan", "scalenet50", "--out", str(csv))
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "block_index,min_rf,max_rf"
    assert len(lines) == 17


def test_report_emits_csv_and_wellformed_svg(capsys, tmp_path):
    code, out, _ = run(capsys, "report", "--plan", "scalenet50",
                       "--preset", "resnet50", "--out-dir", str(tmp_path))
    assert code == 0
    for name in ("proportions.csv", "proportions.svg", "rf.csv", "rf.svg"):
        assert (tmp_path / name).exists(), name
    for svg in ("proportions.svg", "rf.svg"):
        root = ET.parse(tmp_path / svg).getroot()
        assert root.tag.endswith("svg")
    rows = (tmp_path / "proportions.csv").read_text().strip().splitlines()
    assert rows[0] == "k,scale,channels,proportion"
    # block-1 shares of 62,9,5,12
    k, s, ch, frac = rows[1].split(",")
    assert (k, s, ch) == ("1", "1", "62")
    assert abs(float(frac) - 62 / 88) < 1e-6


def test_allocate_command_round_trip(capsys, tmp_path):
    imp = tmp_path / "importances.csv"
    bud = tmp_path / "budgets.csv"
    imp.write_text("k,scale,channel,gamma,abs_gamma,unit_cost\n"
                   "1,1,0,0.9,0.9,4\n1,1,1,0.8,0.8,4\n1,2,0,0.7,0.7,1\n"
                   "1,2,1,0.6,0.6,1\n1,4,0,0.5,0.5,1\n")
    bud.write_text("k,budget\n1,9\n")
    plan_path = tmp_path / "plan.txt"
    code, out, _ = run(capsys, "allocate", "--importances", str(imp),
                       "--budgets", str(bud), "--b", "0", "--scales", "1,2,4",
                       "--out", str(plan_path))
    assert code == 0
    text = plan_path.read_text()
    # scan by importance: 4+4 fits, 1 fits, the last two would exceed 9
    assert "1: 2,1,0" in text
    assert "budget 1: 9" in text


def test_gradcheck_command(capsys):
    code, out, _ = run(capsys, "gradcheck", "--max-entries", "10")
    assert code == 0
    assert "max relative error" in out


def test_train_and_eval_commands(capsys, tmp_path):
    out_dir = tmp_path / "run"
    code, out, _ = run(capsys, "train", "--preset", "cifar-n1",
                       "--dataset", "synthetic", "--classes", "6",
                       "--per-class", "6", "--val-per-class", "3",
                       "--epochs", "1", "--batch", "8", "--lr", "0.05",
                       "--seed", "5", "--deterministic",
                       "--out-dir", str(out_dir))
    assert code == 0, out
    assert (out_dir / "final.sanc").exists()
    assert (out_dir / "metrics.csv").exists()
    assert (out_dir / "config.resolved.txt").exists()
    code, out, _ = run(capsys, "eval", "--checkpoint", str(out_dir / "final.sanc"),
                       "--dataset", "synthetic", "--classes", "6",
                       "--val-per-class", "3", "--seed", "5")
    assert code == 0
    assert "top1 error" in out


def test_eval_rejects_a_dataset_with_other_classes(capsys, tmp_path):
    out_dir = tmp_path / "run"
    code, out, _ = run(capsys, "train", "--preset", "cifar-n1", "--classes", "4",
                       "--per-class", "2", "--val-per-class", "2", "--epochs", "1",
                       "--batch", "8", "--deterministic", "--out-dir", str(out_dir))
    assert code == 0, out
    code, out, err = run(capsys, "eval", "--checkpoint", str(out_dir / "final.sanc"),
                         "--classes", "2", "--val-per-class", "2")
    assert code == 1 and "top1" not in out
    assert "4 classes" in err and "has 2" in err


def test_train_checks_spec_input_before_writing(capsys, tmp_path):
    from sakit.presets import build_cifar_resnet

    spec_file = tmp_path / "rgb.netspec"
    spec_file.write_text(build_cifar_resnet(1, num_classes=10, in_channels=3).to_text())
    out_dir = tmp_path / "run"
    code, _, err = run(capsys, "train", "--spec", str(spec_file), "--classes", "10",
                       "--per-class", "2", "--val-per-class", "1", "--epochs", "1",
                       "--out-dir", str(out_dir))
    assert code == 1
    assert "(3, 32, 32)" in err and "(1, 32, 32)" in err
    assert not (out_dir / "config.resolved.txt").exists()


def test_train_rejects_empty_cifar_before_writing(capsys, tmp_path):
    data_dir = tmp_path / "cifar"
    data_dir.mkdir()
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        (data_dir / name).write_bytes(b"")
    out_dir = tmp_path / "run"
    code, _, err = run(capsys, "train", "--preset", "cifar-n1", "--dataset", "cifar10",
                       "--data-dir", str(data_dir), "--epochs", "1", "--out-dir", str(out_dir))
    assert code == 2
    assert "data_batch_1.bin' holds no records" in err
    assert not (out_dir / "config.resolved.txt").exists()


def test_runtime_failure_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "eval", "--checkpoint", str(tmp_path / "missing.sanc"),
                       "--dataset", "synthetic")
    assert code == 2
    assert "error" in err


def test_config_precedence_env_flag_file(tmp_path, monkeypatch):
    parser = build_parser()
    cfg_file = tmp_path / "conf.txt"
    cfg_file.write_text("seed=1\nepochs=3\n")
    args = parser.parse_args(["train", "--config", str(cfg_file), "--seed", "2"])
    cfg = resolve_config("train", args)
    assert cfg["seed"] == 2        # flag beats file
    assert cfg["epochs"] == 3      # file beats default
    monkeypatch.setenv("SAKIT_SEED", "7")
    cfg = resolve_config("train", args)
    assert cfg["seed"] == 7        # env beats flag
    monkeypatch.setenv("SAKIT_NOT_A_KEY", "1")
    from sakit.cli import UsageError
    with pytest.raises(UsageError, match="NOT_A_KEY"):
        resolve_config("train", args)


def test_repeated_config_file_key_rejected(tmp_path):
    cfg_file = tmp_path / "conf.txt"
    cfg_file.write_text("seed=1\n# a comment\nseed=2\n")
    args = build_parser().parse_args(["train", "--config", str(cfg_file)])
    from sakit.cli import UsageError
    with pytest.raises(UsageError, match=r"conf.txt:3: duplicate key 'seed' \(first on line 1\)"):
        resolve_config("train", args)


def test_hash_inside_a_config_value_is_kept(capsys, tmp_path, monkeypatch):
    # only a line whose first non-blank character is '#' is a comment
    monkeypatch.chdir(tmp_path)
    (tmp_path / "conf.txt").write_text("# sakit build\n  # indented comment\n"
                                       "preset=cifar-n1\nout_dir=a#b\n")
    code, _, err = run(capsys, "build", "--config", "conf.txt")
    assert code == 0, err
    assert (tmp_path / "a#b" / "cifar-n1.netspec").exists()
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("source", ["flag", "env"])
def test_values_holding_a_line_break_are_rejected(capsys, tmp_path, monkeypatch, source):
    # the snapshot writes one key=value line per option, so such a value would
    # replay as a different run
    monkeypatch.chdir(tmp_path)
    argv = ["build", "--preset", "cifar-n1"]
    if source == "flag":
        argv += ["--out-dir", "a\nplan=even"]
    else:
        monkeypatch.setenv("SAKIT_OUT_DIR", "a\nplan=even")
    code, _, err = run(capsys, *argv)
    assert code == 1 and "--out-dir takes one line" in err, err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag, argv, code, says", [
    ("--config", ["build", "--preset", "cifar-n1"], 1, "usage error: "),
    ("--spec", ["gradcheck"], 2, "error: SpecError: "),
    ("--plan", ["build", "--preset", "cifar-n1"], 2, "error: SpecError: "),
    ("--importances", ["allocate", "--budgets", "budgets.csv", "--scales", "1,2,4"], 2,
     "error: SpecError: "),
    ("--budgets", ["allocate", "--importances", "importances.csv", "--scales", "1,2,4"], 2,
     "error: SpecError: "),
], ids=["config", "spec", "plan", "importances", "budgets"])
def test_a_file_that_is_not_utf8_is_named(capsys, tmp_path, monkeypatch, flag, argv, code,
                                           says):
    # the reader's own error, naming the file and the offset of the bad byte
    monkeypatch.chdir(tmp_path)
    Path("importances.csv").write_text("k,scale,channel,gamma,abs_gamma,unit_cost\n"
                                       "1,1,0,0.9,0.9,4\n")
    Path("budgets.csv").write_text("k,budget\n1,9\n")
    Path("f").write_bytes(b"seed=1\n\xff\n")
    got, _, err = run(capsys, *argv, flag, "f")
    assert got == code and f"{says}f: not UTF-8 text, byte 0xff at offset 7" in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["budgets.csv", "f",
                                                          "importances.csv"]


def test_config_file_is_closed(tmp_path):
    cfg_file = tmp_path / "conf.txt"
    cfg_file.write_text("seed=1\n")
    args = build_parser().parse_args(["train", "--config", str(cfg_file)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert resolve_config("train", args)["seed"] == 1
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize("argv, name", [
    (["build", "--preset", "cifar-n1"], "cifar-n1.netspec"),
    (["flops", "--preset", "scalenet50", "--out", "{dir}/blocks.csv"], "blocks.csv"),
    (["rf", "--preset", "cifar-n1", "--plan", "even"], "rf.csv"),
    (["allocate", "--importances", "{tmp}/importances.csv",
      "--budgets", "{tmp}/budgets.csv", "--scales", "1,2,4"], "plan.txt"),
], ids=["build", "flops", "rf", "allocate"])
def test_outputs_go_into_a_new_directory(capsys, tmp_path, argv, name):
    (tmp_path / "importances.csv").write_text(
        "k,scale,channel,gamma,abs_gamma,unit_cost\n1,1,0,0.9,0.9,4\n")
    (tmp_path / "budgets.csv").write_text("k,budget\n1,9\n")
    new_dir = tmp_path / "new" / "nested"
    argv = [a.format(dir=new_dir, tmp=tmp_path) for a in argv]
    if "--out" not in argv:
        argv += ["--out-dir", str(new_dir)]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert (new_dir / name).exists()
    assert (new_dir / "config.resolved.txt").exists()
    assert f"wrote {new_dir / name}" in out


def test_unknown_config_file_key_rejected(tmp_path):
    parser = build_parser()
    cfg_file = tmp_path / "conf.txt"
    cfg_file.write_text("frobnicate=1\n")
    args = parser.parse_args(["flops", "--preset", "resnet50",
                              "--config", str(cfg_file)])
    from sakit.cli import UsageError
    with pytest.raises(UsageError, match="frobnicate"):
        resolve_config("flops", args)


def test_pipeline_matches_manual_stage_composition(tmp_path):
    """pipeline == train-seed; allocate; build; retrain, given one seed."""
    from sakit.allocator import (ProjectionConfig, extract_importance,
                                 plan_from_results, project_network, run_pipeline)
    from sakit.data import synthetic_dataset
    from sakit.flops import network_flops
    from sakit.presets import build_cifar_resnet, build_scalenet, build_seed
    from sakit.training import TrainConfig, train

    classes, per = 4, 5
    train_ds = synthetic_dataset(classes, per, 32, seed=3, split="train")
    val_ds = synthetic_dataset(classes, 2, 32, seed=3, split="val")
    base = build_cifar_resnet(1, num_classes=classes, in_channels=1)
    cfg = TrainConfig(epochs=1, batch_size=8, lr=0.05, seed=3, deterministic=True)

    result = run_pipeline(base, [1, 2, 4], train_ds, val_ds, cfg,
                          ProjectionConfig(0.0), out_dir=tmp_path / "p")

    seed_spec = build_seed(base, [1, 2, 4])
    seed_res = train(seed_spec, train_ds, val_ds, cfg)
    records = extract_importance(seed_res.tensors(), seed_spec)
    budgets = {k: b.budget for k, b in network_flops(seed_spec).budgets.items()}
    plan = plan_from_results(project_network(records, budgets), [1, 2, 4],
                             budgets=budgets)
    assert plan.rows == result.plan.rows
    final_res = train(build_scalenet(base, result.plan), train_ds, val_ds, cfg)
    assert final_res.metrics == result.final_metrics


def test_scalenet_preset_alias(capsys, tmp_path):
    code, out, _ = run(capsys, "flops", "--preset", "scalenet50")
    assert code == 0
    assert "3.869 G" in out
    code, out, _ = run(capsys, "rf", "--preset", "scalenet50",
                       "--out", str(tmp_path / "rf.csv"))
    assert code == 0


def test_pipeline_command_end_to_end(capsys, tmp_path):
    code, out, _ = run(capsys, "pipeline", "--preset", "cifar-n1",
                       "--dataset", "synthetic", "--classes", "4",
                       "--per-class", "4", "--val-per-class", "2",
                       "--epochs", "1", "--batch", "8", "--lr", "0.05",
                       "--seed", "3", "--deterministic",
                       "--out-dir", str(tmp_path))
    assert code == 0, out
    for name in ("seed.netspec", "seed.sanc", "importances.csv", "budgets.csv",
                 "plan.txt", "final.netspec", "final.sanc", "seed_metrics.csv",
                 "final_metrics.csv", "proportions.csv", "proportions.svg",
                 "rf.csv", "rf.svg", "config.resolved.txt"):
        assert (tmp_path / name).exists(), name
    assert "final val top1" in out


def test_even_plan_proportions_are_uniform():
    from sakit.presets import build_cifar_resnet, even_allocation
    from sakit.report import plan_proportions

    base = build_cifar_resnet(1, num_classes=10)
    plan = even_allocation(base, [1, 2, 4])
    for _k, counts, fracs in plan_proportions(plan):
        for f in fracs:
            assert abs(f - 1 / 3) <= 1 / sum(counts)  # exact up to remainders


def _limit_file_size():
    """In the child: files stop at 20 kB, and a write past that fails with
    EFBIG instead of killing the process."""
    resource.setrlimit(resource.RLIMIT_FSIZE, (20000, 20000))
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)


def test_a_failed_write_names_its_file_and_leaves_no_temporary(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    pythonpath = filter(None, [str(src), os.environ.get("PYTHONPATH")])
    out = tmp_path / "x.netspec"  # scalenet50's spec text is larger than the limit
    proc = subprocess.run(
        [sys.executable, "-m", "sakit.cli", "build", "--preset", "scalenet50",
         "--out", str(out)], env={**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)},
        preexec_fn=_limit_file_size, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert str(out) in proc.stderr
    assert sorted(os.listdir(tmp_path)) == ["config.resolved.txt"]
