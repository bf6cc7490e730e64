"""The benchmark's workloads, driven through sakit's public functions.

A workload has a ``setup(seed)`` that builds everything one run needs and
performs one warm-up operation, a ``unit(state, probe=None)`` that performs a
fixed amount of work and returns one ``Op`` per operation (a pipeline unit
also samples the machine-speed ``probe`` between epochs, when given one), and
a ``check(state, op)`` that decides whether an operation's output is correct.
The load is a closed loop: one caller, each operation issued after the
previous returns.

sakit functions are always looked up on their module at call time, so the
tracer's wrappers see every call.
"""

import math
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sakit import allocator, autograd, data, flops, optim, presets, training

SCRATCH = Path(__file__).resolve().parent / "out"
INFER_BATCH = 1
# acceptance criterion 7's network, data and optimizer, except the learning
# rate: at three epochs of this data 0.05 ends further above chance than 0.1
CLASSES, IMAGE_SIZE, TRAIN_BATCH, LR, SCALES = 10, 32, 32, 0.05, [1, 2, 4]


@dataclass
class Op:
    """One operation: a batch, or a pipeline run."""

    output: object
    images: int  # images that went through the network
    batches: list  # (start, end) perf_counter times of each batch inside it
    error: str = ""  # set when the operation raised


def budget_utilization(spec):
    """Sum of aggregation-block per-scale-conv MACs over the sum of budgets."""
    rep = flops.network_flops(spec)
    budget = sum(b.budget for b in rep.budgets.values())
    return sum(rep.sa_block_macs.values()) / budget if budget else 0.0


class InferWorkload:
    """``evaluate_graph`` on a 224x224 ImageNet-shaped network, one call per
    batch, over a seeded random eval set that is cycled through in passes."""

    def __init__(self, net, size=224, pass_batches=8):
        self.net, self.size, self.pass_batches = net, size, pass_batches

    def spec(self):
        base = presets.build_resnet(50, input_size=self.size)
        if self.net == "resnet50":
            return base
        return presets.build_scalenet(base, presets.reference_plan(self.net))

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        n = INFER_BATCH * self.pass_batches
        images = rng.random((n, 3, self.size, self.size), dtype=np.float32)
        labels = rng.integers(0, 1000, size=n)
        mean, std = data.normalization_stats(data.Dataset(images, labels, 1000))
        batches = [data.Dataset(images[i:i + INFER_BATCH], labels[i:i + INFER_BATCH], 1000)
                   for i in range(0, n, INFER_BATCH)]
        graph = autograd.Graph(self.spec(), seed=seed)
        state = {"graph": graph, "batches": batches, "mean": mean, "std": std,
                 "reference": None}
        self._evaluate(state, batches[0])  # warm-up
        return state

    def _evaluate(self, state, ds):
        graph = state["graph"]
        res = training.evaluate_graph(graph, ds, state["mean"], state["std"],
                                      batch=INFER_BATCH)
        return res.loss, graph.activations[graph.spec.logits_name].copy()

    def _op(self, state, index):
        t0 = time.perf_counter()
        try:
            output = (index,) + self._evaluate(state, state["batches"][index])
            error = ""
        except Exception as e:  # a failed batch is counted, not fatal
            output, error = None, f"{type(e).__name__}: {e}"
        return Op(output, INFER_BATCH, [(t0, time.perf_counter())], error)

    def unit(self, state, probe=None):
        """One pass over the eval set, one ``evaluate_graph`` call per batch."""
        return [self._op(state, i) for i in range(self.pass_batches)]

    def finish(self, state):
        """The first batch once more, which must repeat bit for bit."""
        return [self._op(state, 0)]

    def check(self, state, op):
        if op.error:
            return False
        index, loss, logits = op.output
        if not (math.isfinite(loss) and np.all(np.isfinite(logits))):
            return False
        if index == 0:
            if state["reference"] is None:
                state["reference"] = logits
            return logits.tobytes() == state["reference"].tobytes()
        return True

    def network(self, state, outputs):
        return state["graph"].spec


class _ClockedImages:
    """Array stand-in that notes when each batch is drawn from it, so the
    runner can time training steps from outside the library. A training
    array calls ``on_epoch``, when set, at the first draw after validation."""

    def __init__(self, array, split, clock):
        self.array, self.split, self.clock = array, split, clock
        self.shape = array.shape
        self.on_epoch = None

    def __len__(self):
        return len(self.array)

    def __getitem__(self, idx):
        if (self.on_epoch and self.split == "train" and self.clock
                and self.clock[-1][0] != "train"):
            self.on_epoch()  # before the clock entry, so it lands in no training step
        self.clock.append((self.split, time.perf_counter()))
        return self.array[idx]


class PipelineWorkload:
    """``run_pipeline`` in the acceptance-criterion-7 shape, at a size where
    one run trains each stage for a few epochs."""

    def __init__(self, per_class=24, val_per_class=5, epochs=3):
        self.per_class, self.val_per_class, self.epochs = per_class, val_per_class, epochs

    def config(self, seed):
        return training.TrainConfig(
            epochs=self.epochs, batch_size=TRAIN_BATCH, lr=LR, momentum=0.9,
            weight_decay=1e-4, seed=seed, augment_flags=("flip",),
            deterministic=True)

    def setup(self, seed):
        train_ds = data.synthetic_dataset(CLASSES, self.per_class, IMAGE_SIZE,
                                          seed=seed, split="train")
        val_ds = data.synthetic_dataset(CLASSES, self.val_per_class, IMAGE_SIZE,
                                        seed=seed, split="val")
        mean, std = data.normalization_stats(train_ds)
        base = presets.build_cifar_resnet(1, num_classes=CLASSES, in_channels=1)
        # warm-up: one training step of the seed network
        graph = autograd.Graph(presets.build_seed(base, SCALES), seed=seed)
        x = data.normalize(train_ds.images[:TRAIN_BATCH], mean, std)
        graph.forward(x, labels=train_ds.labels[:TRAIN_BATCH], mode="train")
        optim.sgd_step(optim.SgdState(LR), graph.params, graph.backward())
        clock = []
        clocked = []
        for ds in (train_ds, val_ds):
            c = data.Dataset(_ClockedImages(ds.images, ds.split, clock), ds.labels,
                             ds.num_classes, split=ds.split)
            c.mean, c.std = mean, std
            clocked.append(c)
        return {"base": base, "train": clocked[0], "val": clocked[1],
                "clock": clock, "cfg": self.config(seed)}

    @staticmethod
    def _steps(clock):
        """Training steps of both stages: from drawing a batch to drawing the
        next one (a validation batch after an epoch's last step)."""
        return [(clock[i][1], clock[i + 1][1])
                for i in range(len(clock) - 1) if clock[i][0] == "train"]

    def unit(self, state, probe=None):
        state["clock"].clear()
        state["train"].images.on_epoch = probe.sample if probe else None
        SCRATCH.mkdir(exist_ok=True)
        out_dir = tempfile.mkdtemp(prefix="pipeline-", dir=SCRATCH)
        t0 = time.perf_counter()
        try:
            output = allocator.run_pipeline(
                state["base"], SCALES, state["train"], state["val"], state["cfg"],
                allocator.ProjectionConfig(0.0), out_dir=out_dir)
            error = ""
        except Exception as e:  # a failed pipeline run is counted, not fatal
            output, error = None, f"{type(e).__name__}: {e}"
        t1 = time.perf_counter()
        state["train"].images.on_epoch = None
        final_exists = output is not None and Path(output.artifacts["final.sanc"]).is_file()
        shutil.rmtree(out_dir)
        n = CLASSES * (self.per_class + self.val_per_class)
        # a pipeline that failed early has no timed steps: count it whole
        return [Op((output, final_exists), 2 * self.epochs * n,
                   self._steps(state["clock"]) or [(t0, t1)], error)]

    def finish(self, state):
        return []

    def check(self, state, op):
        if op.error:
            return False
        result, final_exists = op.output
        rep = flops.network_flops(result.final_spec)
        budgets_ok = all(rep.sa_block_macs[k] <= rep.budgets[k].budget
                         for k in rep.sa_block_macs)
        loss_ok = math.isfinite(result.final_metrics[-1]["train_loss"])
        return (final_exists and budgets_ok and loss_ok
                and result.final_top1 >= 1.0 / CLASSES)

    def network(self, state, outputs):
        done = [op.output[0] for op in outputs if not op.error]
        return done[-1].final_spec if done else presets.build_seed(state["base"], SCALES)


WORKLOADS = {
    "pipeline-desk": PipelineWorkload,
    "infer-scalenet50": lambda: InferWorkload("scalenet50"),
    "infer-resnet50": lambda: InferWorkload("resnet50"),
}

# per-layer spans each workload must reach; a zero count there fails the run
_COMMON = ("ops.conv2d_forward", "ops.maxpool2d_forward", "ops.batchnorm2d_forward",
           "ops.relu_forward", "ops.add_forward", "ops.global_avg_pool_forward",
           "ops.dense_forward", "ops.softmax_cross_entropy_forward",
           "autograd.Graph.__init__", "autograd.Graph.forward",
           "netspec.propagate_shapes", "training.evaluate_graph", "data.normalize")
_AGGREGATION = ("ops.resize_nearest_forward", "ops.concat_channels_forward",
                "presets.build_scalenet", "blocks.build_sa_residual")
REQUIRED_SPANS = {
    "infer-resnet50": _COMMON + ("presets.build_resnet",),
    "infer-scalenet50": _COMMON + _AGGREGATION + ("presets.build_resnet",),
    "pipeline-desk": _COMMON + _AGGREGATION + (
        "ops.conv2d_backward", "ops.maxpool2d_backward", "ops.batchnorm2d_backward",
        "ops.relu_backward", "ops.resize_nearest_backward",
        "ops.concat_channels_backward", "ops.global_avg_pool_backward",
        "ops.dense_backward", "ops.softmax_cross_entropy_backward",
        "autograd.Graph.backward", "optim.sgd_step", "data.augment",
        "data.synthetic_dataset", "training.train", "allocator.extract_importance",
        "allocator.project_network", "flops.network_flops", "presets.build_seed",
        "presets.build_cifar_resnet", "checkpoint.save_checkpoint"),
}
