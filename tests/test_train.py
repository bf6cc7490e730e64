import numpy as np
import pytest

from sakit.autograd import Graph
from sakit.blocks import SABlockSpec, build_sa_residual
from sakit.checkpoint import load_checkpoint, save_checkpoint
from sakit.data import Dataset, synthetic_dataset
from sakit.netspec import NetworkSpec, SpecBuilder
from sakit.presets import build_cifar_resnet
from sakit.training import (TrainConfig, downsample_sweep, evaluate_graph,
                            evaluate_tensors, lr_at, train, write_metrics_csv)


def micro_sa_net(classes=10, size=16, width=8):
    """One aggregation residual on a small input; fast enough for unit tests."""
    b = SpecBuilder("micro")
    b.add("x", "input", c=1, h=size, w=size)
    cur = b.add("stem.conv", "conv", ["x"],
                **{"in": 1, "out": width, "k": 3, "pad": 1})
    cur = b.add("stem.bn", "batchnorm", [cur], c=width)
    cur = b.add("stem.relu", "relu", [cur])
    sa = SABlockSpec(width, [1, 2, 4], [width // 2, width // 4, width // 4], 1)
    cur = build_sa_residual(b, "sa1", cur, width, sa, 2 * width, size, size)
    b.add("head.gap", "gap", [cur])
    b.add("head.fc", "dense", ["head.gap"], **{"in": 2 * width, "out": classes})
    b.add("loss", "softmax_xent", ["head.fc"])
    return b.build()


def small_data(classes=10, per_class=12, seed=0, size=16):
    return (synthetic_dataset(classes, per_class, size, seed=seed, split="train"),
            synthetic_dataset(classes, max(per_class // 2, 2), size, seed=seed,
                              split="val"))


def test_lr_schedule_milestones():
    cfg = TrainConfig(epochs=300, lr=0.1, milestones=(150, 225))
    assert lr_at(cfg, 1) == 0.1
    assert lr_at(cfg, 150) == 0.1
    assert lr_at(cfg, 151) == pytest.approx(0.01)
    assert lr_at(cfg, 225) == pytest.approx(0.01)
    assert lr_at(cfg, 226) == pytest.approx(0.001)


def test_milestone_validation():
    with pytest.raises(ValueError, match="ascending"):
        TrainConfig(epochs=10, milestones=(5, 3))
    with pytest.raises(ValueError, match="smaller"):
        TrainConfig(epochs=10, milestones=(10,))


@pytest.mark.parametrize("batch_size", [0, -3])
def test_batch_size_below_one_rejected(batch_size):
    with pytest.raises(ValueError, match=f"batch_size must be at least 1, got {batch_size}"):
        TrainConfig(epochs=1, batch_size=batch_size)


def test_zero_lr_leaves_parameters_bitwise_unchanged():
    spec = micro_sa_net()
    train_ds, val_ds = small_data(per_class=4)
    cfg = TrainConfig(epochs=1, batch_size=8, lr=0.0, weight_decay=0.0,
                      seed=3, deterministic=True)
    before = {k: v.copy() for k, v in Graph(spec, seed=3).params.items()}
    result = train(spec, train_ds, val_ds, cfg)
    for name, val in before.items():
        assert np.array_equal(result.graph.params[name], val), name


def test_training_beats_chance(tmp_path):
    spec = micro_sa_net()
    train_ds, val_ds = small_data(per_class=30, seed=7)
    # the last epoch at lr 0.01, as criterion 7 decays for its last quarter:
    # at a constant 0.1 the final accuracy is one noisy SGD sample
    cfg = TrainConfig(epochs=6, batch_size=32, lr=0.1, milestones=(5,),
                      weight_decay=1e-4, seed=7, deterministic=True)
    result = train(spec, train_ds, val_ds, cfg, out_dir=tmp_path)
    assert result.metrics[-1]["val_top1"] >= 0.3  # 3x chance on 10 classes
    assert (tmp_path / "metrics.csv").exists()
    assert (tmp_path / "final.sanc").exists()
    assert (tmp_path / "best.sanc").exists()
    # top-5 accuracy is never below top-1
    for row in result.metrics:
        assert row["val_top5"] >= row["val_top1"]


def test_fixed_seed_reproduces_everything_bitwise(tmp_path):
    spec = micro_sa_net(classes=4)
    train_ds, val_ds = small_data(classes=4, per_class=6, seed=2)
    cfg = TrainConfig(epochs=2, batch_size=8, lr=0.05, seed=11,
                      deterministic=True, augment_flags=("flip", "crop-pad-4"))
    r1 = train(spec, train_ds, val_ds, cfg, out_dir=tmp_path / "a")
    r2 = train(spec, train_ds, val_ds, cfg, out_dir=tmp_path / "b")
    assert r1.metrics == r2.metrics
    for name in r1.graph.params:
        assert np.array_equal(r1.graph.params[name], r2.graph.params[name])
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
        (tmp_path / "b" / "metrics.csv").read_bytes()
    assert (tmp_path / "a" / "final.sanc").read_bytes() == \
        (tmp_path / "b" / "final.sanc").read_bytes()


def test_checkpoint_save_load_evaluate_bitwise(tmp_path):
    spec = micro_sa_net(classes=4)
    train_ds, val_ds = small_data(classes=4, per_class=6, seed=5)
    cfg = TrainConfig(epochs=1, batch_size=8, seed=5, deterministic=True)
    result = train(spec, train_ds, val_ds, cfg)
    direct = evaluate_tensors(spec, result.tensors(), val_ds)
    path = tmp_path / "ck.sanc"
    save_checkpoint(path, spec.to_text(), result.tensors())
    spec_text, tensors = load_checkpoint(path)
    loaded = NetworkSpec.from_text(spec_text)
    assert loaded.to_text() == spec.to_text()
    reloaded = evaluate_tensors(loaded, tensors, val_ds)
    assert direct.top1_err == reloaded.top1_err
    assert direct.loss == reloaded.loss


def test_random_network_sits_at_chance_on_many_classes():
    classes = 100
    ds = synthetic_dataset(classes, 2, 16, seed=1)
    b = SpecBuilder("rand")
    b.add("x", "input", c=1, h=16, w=16)
    b.add("c", "conv", ["x"], **{"in": 1, "out": 8, "k": 3, "pad": 1})
    b.add("g", "gap", ["c"])
    b.add("fc", "dense", ["g"], **{"in": 8, "out": classes})
    b.add("loss", "softmax_xent", ["fc"])
    ev = evaluate_tensors(b.build(), Graph(b.build(), seed=0).params, ds)
    assert abs(ev.top1_err - 0.99) <= 0.03
    assert ev.top5_err <= ev.top1_err


def test_memorizes_two_samples():
    spec = micro_sa_net(classes=2)
    images = synthetic_dataset(2, 1, 16, seed=8).images
    ds = Dataset(images, np.array([0, 1], dtype=np.int64), 2, split="train")
    cfg = TrainConfig(epochs=25, batch_size=2, lr=0.05, weight_decay=0.0,
                      seed=8, deterministic=True)
    result = train(spec, ds, ds, cfg)
    assert result.metrics[-1]["val_top1"] == 1.0
    assert result.metrics[-1]["val_top5"] == ""  # fewer than 5 classes


def test_smoothed_loss_nonincreasing_on_first_segment():
    spec = micro_sa_net()
    train_ds, val_ds = small_data(per_class=20, seed=13)
    cfg = TrainConfig(epochs=10, batch_size=32, lr=0.05, seed=13,
                      deterministic=True)
    result = train(spec, train_ds, val_ds, cfg)
    losses = [m["train_loss"] for m in result.metrics]
    smoothed = [np.mean(losses[i:i + 5]) for i in range(len(losses) - 4)]
    assert all(b <= a + 1e-6 for a, b in zip(smoothed, smoothed[1:]))


def test_nonfinite_loss_aborts_with_diagnostic():
    import sakit.training as training

    spec = micro_sa_net(classes=2)
    train_ds, val_ds = small_data(classes=2, per_class=3, seed=1)
    cfg = TrainConfig(epochs=1, batch_size=4, seed=1)
    orig = training.Graph
    try:
        class Poisoned(orig):
            def __init__(self, *a, **kw):
                super().__init__(*a, **kw)
                self.params["head.fc.weight"][...] = np.inf
        training.Graph = Poisoned
        with pytest.raises(RuntimeError, match="non-finite loss"):
            train(spec, train_ds, val_ds, cfg)
    finally:
        training.Graph = orig


def test_running_stats_are_checked_like_parameters():
    spec = micro_sa_net(classes=4)
    _, val_ds = small_data(classes=4, per_class=4, seed=6)
    graph = Graph(spec, seed=6)
    missing = {**graph.params, **graph.state}
    del missing["stem.bn.running_mean"]
    with pytest.raises(KeyError, match="running stat 'stem.bn.running_mean'"):
        evaluate_tensors(spec, missing, val_ds)
    misshapen = {**graph.params, **graph.state,
                 "stem.bn.running_var": np.ones(3, np.float32)}
    with pytest.raises(ValueError, match=r"'stem.bn.running_var' shape \(3,\)"):
        evaluate_tensors(spec, misshapen, val_ds)


def empty(ds):
    return Dataset(ds.images[:0], ds.labels[:0], ds.num_classes, split=ds.split)


@pytest.mark.parametrize("arg", ["train_ds", "val_ds"])
def test_train_rejects_an_empty_split_before_the_first_step(monkeypatch, arg):
    import sakit.training as training

    def no_step(*args):
        raise AssertionError("trained a step")
    monkeypatch.setattr(training, "sgd_step", no_step)
    train_ds, val_ds = small_data(classes=2, per_class=2)
    splits = {"train_ds": train_ds, "val_ds": val_ds}
    splits[arg] = empty(splits[arg])
    split = splits[arg].split
    with pytest.raises(ValueError, match=f"{arg} has no images \\(split '{split}'\\)"):
        train(micro_sa_net(classes=2), splits["train_ds"], splits["val_ds"],
              TrainConfig(epochs=1, batch_size=2))


def test_evaluate_rejects_an_empty_split_and_a_batch_below_one():
    spec = micro_sa_net(classes=2)
    graph = Graph(spec, seed=2)
    _, val_ds = small_data(classes=2, per_class=2)
    mean, std = np.zeros(1, np.float32), np.ones(1, np.float32)
    with pytest.raises(ValueError, match="ds has no images \\(split 'val'\\)"):
        evaluate_graph(graph, empty(val_ds), mean, std)
    for batch in (0, -1):
        with pytest.raises(ValueError, match=f"batch must be at least 1, got {batch}"):
            evaluate_graph(graph, val_ds, mean, std, batch=batch)
    assert evaluate_graph(graph, val_ds, mean, std, batch=1).top5_err is None


def test_metrics_csv_layout(tmp_path):
    rows = [{"epoch": 1, "lr": 0.1, "train_loss": 2.0, "train_top1": 0.5,
             "val_top1": 0.4, "val_top5": 0.9, "seconds": 0.0}]
    path = tmp_path / "m.csv"
    write_metrics_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,lr,train_loss,train_top1,val_top1,val_top5,seconds"
    assert lines[1].startswith("1,0.1,2.0,0.5,0.4,0.9,")


def test_sweep_with_fewer_than_five_classes_leaves_val_top5_empty(tmp_path):
    train_ds = synthetic_dataset(3, 4, 32, seed=0, split="train")
    val_ds = synthetic_dataset(3, 2, 32, seed=0, split="val")
    base = build_cifar_resnet(1, num_classes=3, in_channels=1)
    path = tmp_path / "sweep.csv"
    downsample_sweep(base, [1, 2], train_ds, val_ds, TrainConfig(epochs=1, batch_size=8),
                     out_csv=path)
    rows = path.read_text().splitlines()[1:]
    assert len(rows) == 4
    assert all(row.split(",")[-1] == "" for row in rows), rows
