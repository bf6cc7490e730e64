"""Training loop with step-decay schedule, evaluation, and checkpointing.

The learning rate drops tenfold at each milestone. Metric logs hold accuracy
fractions; evaluate_graph() reports error rates. With the deterministic flag set
the per-epoch seconds column is written as 0.0 so two identically seeded
runs produce byte-identical logs.
"""

import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import data as data_mod
from .autograd import Graph
from .checkpoint import save_checkpoint, write_text
from .netspec import NetworkSpec, csv_text
from .optim import SgdState, sgd_step
from .presets import build_scalenet, even_allocation
from .blocks import DOWNSAMPLE_MODES
from .rng import stream

METRIC_COLUMNS = ("epoch", "lr", "train_loss", "train_top1", "val_top1",
                  "val_top5", "seconds")


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 64
    lr: float = 0.1
    milestones: tuple = ()
    momentum: float = 0.9
    weight_decay: float = 1e-4
    seed: int = 0
    augment_flags: tuple = ()
    deterministic: bool = False

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("need at least one epoch")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        ms = list(self.milestones)
        if any(m < 1 for m in ms):
            raise ValueError(f"milestones must be at least 1, got {ms}")
        if any(a >= b for a, b in zip(ms, ms[1:])):
            raise ValueError(f"milestones must be strictly ascending, got {ms}")
        if any(m >= self.epochs for m in ms):
            raise ValueError("milestones must be smaller than the epoch count")
        unknown = sorted(set(self.augment_flags) - set(data_mod.AUGMENT_FLAGS))
        if unknown:
            raise ValueError(f"unknown augmentation flags {unknown}")
        SgdState(self.lr, self.momentum, self.weight_decay)  # its range checks


def lr_at(cfg: TrainConfig, epoch: int) -> float:
    """Learning rate for a 1-based epoch: divided by 10 per crossed milestone."""
    drops = sum(1 for m in cfg.milestones if epoch > m)
    return cfg.lr / 10.0 ** drops


@dataclass
class TrainResult:
    spec: NetworkSpec
    graph: Graph
    norm_mean: np.ndarray
    norm_std: np.ndarray
    metrics: list = field(default_factory=list)
    best_val_top1: float = 0.0

    def tensors(self):
        out = dict(self.graph.params)
        out.update(self.graph.state)
        out["norm.mean"] = self.norm_mean
        out["norm.std"] = self.norm_std
        return out


def train(spec: NetworkSpec, train_ds, val_ds, cfg: TrainConfig,
          out_dir=None, log=None) -> TrainResult:
    """SGD training of ``spec`` on ``train_ds`` with per-epoch validation.

    Aborts with a diagnostic on a non-finite loss. Writes metrics.csv plus
    final/best checkpoints when ``out_dir`` is given. An empty split is a
    ValueError before the first step.
    """
    _check_split(train_ds, "train_ds")
    _check_split(val_ds, "val_ds")
    graph = Graph(spec, dtype=np.float32, seed=cfg.seed)
    if train_ds.mean is None:
        data_mod.normalization_stats(train_ds)
    mean, std = train_ds.mean, train_ds.std
    sgd = SgdState(cfg.lr, cfg.momentum, cfg.weight_decay)
    logits_name = spec.logits_name
    n = len(train_ds)
    result = TrainResult(spec, graph, mean, std)
    best_params = None
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        sgd.learning_rate = lr_at(cfg, epoch)
        perm = stream(cfg.seed, "shuffle", epoch).permutation(n)
        arng = stream(cfg.seed, "augment", epoch)
        losses, correct = [], 0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            x = train_ds.images[idx]
            y = train_ds.labels[idx]
            if cfg.augment_flags:
                x = data_mod.augment(x, cfg.augment_flags, arng)
            x = data_mod.normalize(x, mean, std)
            acts = graph.forward(x, labels=y, mode="train")
            loss = float(acts[spec.loss_name])
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite loss {loss} at epoch {epoch}, batch {start // cfg.batch_size}")
            losses.append(loss)
            correct += int((acts[logits_name].argmax(axis=1) == y).sum())
            grads = graph.backward(input_grad=False)
            sgd_step(sgd, graph.params, grads)
        ev = evaluate_graph(graph, val_ds, mean, std)
        seconds = 0.0 if cfg.deterministic else time.perf_counter() - t0
        row = {
            "epoch": epoch,
            "lr": sgd.learning_rate,
            "train_loss": float(np.mean(losses)),
            "train_top1": correct / n,
            "val_top1": 1.0 - ev.top1_err,
            "val_top5": 1.0 - ev.top5_err if ev.top5_err is not None else "",
            "seconds": seconds,
        }
        result.metrics.append(row)
        if log:
            log(f"epoch {epoch:3d}  lr {row['lr']:.4f}  loss {row['train_loss']:.4f}  "
                f"train {row['train_top1']:.3f}  val {row['val_top1']:.3f}")
        if row["val_top1"] >= result.best_val_top1:
            result.best_val_top1 = row["val_top1"]
            if out_dir:  # only best.sanc reads it
                best_params = {p: v.copy() for p, v in result.tensors().items()}
    if out_dir:
        write_metrics_csv(result.metrics, os.path.join(out_dir, "metrics.csv"))
        save_checkpoint(os.path.join(out_dir, "final.sanc"), spec.to_text(),
                        result.tensors())
        save_checkpoint(os.path.join(out_dir, "best.sanc"), spec.to_text(),
                        best_params or result.tensors())
    return result


def write_metrics_csv(metrics, path):
    write_text(path, csv_text(",".join(METRIC_COLUMNS),
                              ([row[c] for c in METRIC_COLUMNS] for row in metrics)))


@dataclass
class EvalResult:
    top1_err: float
    top5_err: float  # None when fewer than 5 classes
    loss: float


def _check_split(ds, arg):
    if len(ds) == 0:
        raise ValueError(f"{arg} has no images (split '{ds.split}')")


def evaluate_graph(graph: Graph, ds, mean, std, batch=256) -> EvalResult:
    """Inference-mode top-1/top-5 error and mean loss of ``graph`` on ``ds``,
    normalized with ``mean``/``std``, ``batch`` images per forward. An empty
    ``ds`` or a ``batch`` below 1 is a ValueError."""
    _check_split(ds, "ds")
    if batch < 1:
        raise ValueError(f"batch must be at least 1, got {batch}")
    n = len(ds)
    top1 = top5 = 0
    losses = []
    want5 = ds.num_classes >= 5
    for start in range(0, n, batch):
        x = ds.images[start:start + batch]
        y = ds.labels[start:start + batch]
        x = data_mod.normalize(x, mean, std)
        acts = graph.forward(x, labels=y, mode="infer")
        losses.append(float(acts[graph.spec.loss_name]) * len(y))
        logits = acts[graph.spec.logits_name]
        top1 += int((logits.argmax(axis=1) == y).sum())
        if want5:
            top5_pred = np.argpartition(logits, -5, axis=1)[:, -5:]
            top5 += int((top5_pred == y[:, None]).any(axis=1).sum())
    return EvalResult(1.0 - top1 / n, (1.0 - top5 / n) if want5 else None,
                      sum(losses) / n)


def evaluate_tensors(spec: NetworkSpec, tensors: dict, ds, batch=256) -> EvalResult:
    """Evaluate a checkpoint-shaped tensor dict (params, state, norm stats)."""
    graph = Graph(spec, dtype=np.float32, init=False)
    load_tensors_into(graph, tensors)
    mean = tensors.get("norm.mean")
    std = tensors.get("norm.std")
    if mean is None or std is None:
        if ds.mean is None:
            data_mod.normalization_stats(ds)
        mean, std = ds.mean, ds.std
    return evaluate_graph(graph, ds, mean, std, batch)


def load_tensors_into(graph: Graph, tensors: dict):
    """Copy every parameter and running stat of ``graph`` from ``tensors``; a
    missing one raises KeyError and a misshapen one ValueError, naming it."""
    for kind, group in (("parameter", graph.params), ("running stat", graph.state)):
        for name, arr in group.items():
            if name not in tensors:
                raise KeyError(f"checkpoint missing {kind} '{name}'")
            if tensors[name].shape != arr.shape:
                raise ValueError(f"'{name}' shape {tensors[name].shape} != {arr.shape}")
    for name, arr in graph.params.items():
        arr[...] = tensors[name]
    for name in graph.state:
        graph.state[name] = tensors[name].astype(graph.dtype)


def downsample_sweep(base: NetworkSpec, scales, train_ds, val_ds,
                     cfg: TrainConfig, out_csv=None, log=None):
    """Train the even-allocation aggregation net once per downsampling mode
    (max / avg / conv / dilated); returns comparison rows, no ordering asserted."""
    plan = even_allocation(base, scales)
    rows = []
    for mode in DOWNSAMPLE_MODES:
        spec = build_scalenet(base, plan, downsample=mode)
        res = train(spec, train_ds, val_ds, cfg, log=log)
        last = res.metrics[-1]
        rows.append({"mode": mode, "train_loss": last["train_loss"],
                     "val_top1": last["val_top1"], "val_top5": last["val_top5"]})
        if log:
            log(f"downsample={mode}: val top1 {last['val_top1']:.3f}")
    if out_csv:
        write_text(out_csv, csv_text("mode,train_loss,val_top1,val_top5",
                                     (r.values() for r in rows)))
    return rows
