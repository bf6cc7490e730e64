"""Byte record of a sakit tree, and a per-op A/B of its training step
against its parent.

    python3 tools/ab.py bytes
    python3 tools/ab.py step --parent DIR

sakit is imported from the ``src/`` beside this file's ``tools/``. To record
a parent commit, copy this file into a ``git archive`` of it and run it
there; the parent needs ``Graph.backward(input_grad=...)``. Loading this
file pins BLAS to one thread, which holds if numpy is not loaded yet, so two
trees whose kernels compute the same expressions print the same JSON.

``bytes`` prints one JSON object of hashes: sha256, first 16 hex digits, over
each array's dtype, shape and bytes, in the order listed.

- ``resnet50_logits``, ``scalenet50_logits``: ``Graph(seed=3)`` of resnet50
  and of scalenet50 (resnet50 with the shipped plan) on one seeded
  (2, 3, 224, 224) float32 batch, infer mode, as initialized.
- ``*_logits_bn_state``: the same, after every batchnorm's gamma ~ U(0.5, 1.5),
  beta ~ N(0, 0.1), running mean ~ N(0, 0.1) and running var ~ U(0.5, 2) are
  drawn from ``stream(3, "bn-state", node)``. At initialization batchnorm
  inference is ``x * inv_std``, so only these see a change to it.
- ``desk_max``, ``desk_avg``: the cifar-n1 seed network at scales [1, 2, 4]
  with max or avg downsampling, ``Graph(seed=1)``, 3 steps of
  ``SgdState(0.05, momentum 0.9, weight decay 1e-4)`` on seeded (32, 1, 32, 32)
  batches: every loss, every gradient (by name), every ``input_grad``, then
  the params and the state (by name), and ``eval_logits`` of one infer-mode
  pass of the stepped network.
- ``pipeline_artifacts``: sha256 (first 16 hex digits) of each file, by name,
  that ``sakit pipeline --preset cifar-n1 --dataset synthetic --classes 6
  --per-class 4 --val-per-class 4 --epochs 1 --batch 8 --seed 0
  --deterministic`` writes. It runs in process through ``cli.run_command``
  with no ``SAKIT_*`` variable set and a relative ``--out-dir`` in a
  temporary working directory, so that ``config.resolved.txt`` holds no
  absolute path.

``step`` times the training step that ``training.train`` runs, on the desk
seed network of ``desk_max`` (batch 32), in this tree and in the tree at
``--parent DIR`` (a ``git archive`` of the parent; its ``src/sakit`` is
imported as the package ``sakit_parent``), in one process: each side's
``Graph(seed=1)`` as initialized, forward with the loss,
``backward(input_grad=False)`` and its own ``sgd_step`` with the
``desk_max`` SGD settings, on the same seeded batch per step. After 3
warm-up steps, the sides alternate step by step, the first side swapping
each step, for 30 steps. Each node but the input is timed inside the step:
its ``forward`` and ``backward`` are wrapped on the side's graph, which
calls them. The JSON gives, per side and for each of the phases
``forward``, ``backward``, ``sgd_step`` and ``step`` (their sum), the
median and quartiles (``statistics.quantiles``, inclusive) in ms, the
median paired difference, change minus parent, and the steps the change
was faster; the same under ``ops``, by op, for its nodes' summed forward
and backward seconds, with the op's node count; and under ``executor``, for
forward and backward, the phase's seconds outside those node calls. It
also gives whether the two sides' parameters are byte-equal after the last
step, and the first node call, in execution order (forward in spec order,
then backward), whose arrays differ between the sides in the first
warm-up step, or null. A forward call's arrays are its output; a
backward's are the input gradients it computes, then its parameter
gradients by name. Once one node's bytes differ, the nodes downstream see
different inputs, so only the first difference is named.
"""

import argparse
import collections
import hashlib
import importlib.util
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(ROOT / "src"))


def digest(arrays):
    """sha256 (first 16 hex digits) over each array's dtype, shape and bytes."""
    import numpy as np
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def by_name(arrays):
    return [arrays[k] for k in sorted(arrays)]


def set_bn_state(graph):
    from sakit.rng import stream
    for layer in graph.spec.nodes:
        if layer.op != "batchnorm":
            continue
        r, n, c = stream(3, "bn-state", layer.name), layer.name, layer.attrs["c"]
        graph.params[f"{n}.gamma"][...] = r.uniform(0.5, 1.5, c)
        graph.params[f"{n}.beta"][...] = r.normal(0.0, 0.1, c)
        graph.state[f"{n}.running_mean"][...] = r.normal(0.0, 0.1, c)
        graph.state[f"{n}.running_var"][...] = r.uniform(0.5, 2.0, c)


def imagenet_hashes():
    import numpy as np
    from sakit.autograd import Graph
    from sakit.presets import build_resnet, build_scalenet, reference_plan
    from sakit.rng import stream
    x = stream(3, "ab-bytes", "imagenet").normal(size=(2, 3, 224, 224)).astype(np.float32)
    resnet = build_resnet(50)
    out = {}
    for name, spec in (("resnet50", resnet),
                       ("scalenet50", build_scalenet(resnet, reference_plan("scalenet50")))):
        g = Graph(spec, seed=3)
        out[f"{name}_logits"] = digest([g.forward(x, mode="infer")[spec.logits_name]])
        set_bn_state(g)
        out[f"{name}_logits_bn_state"] = digest([g.forward(x, mode="infer")[spec.logits_name]])
    return out


def desk_spec(presets, downsample="max"):
    """The cifar-n1 seed network at scales [1, 2, 4] from ``presets``."""
    return presets.build_seed(presets.build_cifar_resnet(1, num_classes=10, in_channels=1),
                              [1, 2, 4], downsample=downsample)


def desk_hashes(downsample):
    import numpy as np
    from sakit import presets
    from sakit.autograd import Graph
    from sakit.optim import SgdState, sgd_step
    from sakit.rng import stream
    spec = desk_spec(presets, downsample)
    g = Graph(spec, seed=1)
    sgd = SgdState(0.05, momentum=0.9, weight_decay=1e-4)
    losses, grads, input_grads = [], [], []
    for step in range(3):
        r = stream(1, "ab-bytes", "desk", step)
        x = r.normal(size=(32, 1, 32, 32)).astype(np.float32)
        labels = r.integers(0, 10, size=32)
        losses.append(g.forward(x, labels=labels, mode="train")[spec.loss_name].copy())
        step_grads = g.backward()
        grads += by_name(step_grads)
        input_grads.append(g.input_grad)
        sgd_step(sgd, g.params, step_grads)
    x = stream(1, "ab-bytes", "desk", "eval").normal(size=(32, 1, 32, 32)).astype(np.float32)
    return {"loss": digest(losses), "grads": digest(grads),
            "input_grad": digest(input_grads), "params": digest(by_name(g.params)),
            "state": digest(by_name(g.state)),
            "eval_logits": digest([g.forward(x, mode="infer")[spec.logits_name]])}


def pipeline_artifacts():
    import tempfile
    from sakit.cli import run_command
    argv = ["pipeline", "--preset", "cifar-n1", "--dataset", "synthetic", "--classes", "6",
            "--per-class", "4", "--val-per-class", "4", "--epochs", "1", "--batch", "8",
            "--seed", "0", "--deterministic", "--out-dir", "run"]
    env = {k: os.environ.pop(k) for k in list(os.environ) if k.startswith("SAKIT_")}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            if run_command(argv, out=lambda line: None):
                raise SystemExit("sakit pipeline failed")
            return {name: hashlib.sha256((Path("run") / name).read_bytes()).hexdigest()[:16]
                    for name in sorted(os.listdir("run"))}
        finally:
            os.chdir(cwd)
            os.environ.update(env)


def load_tree(src, name):
    """Import the sakit package in ``src`` as ``name``; its relative imports
    resolve inside it."""
    init = Path(src) / "sakit" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BATCH = 32
WARMUP = 3
REPS = 30
PHASES = ("forward", "backward", "sgd_step", "step")
NODE_PHASES = ("forward", "backward")


def between(*marks):
    """Seconds between successive ``time.perf_counter()`` marks."""
    return [b - a for a, b in zip(marks, marks[1:])]


class StepSide:
    """One tree's desk seed network and SGD state, one training step a rep,
    with every node but the input timed by op."""

    def __init__(self, tree):
        self.spec = desk_spec(tree.presets)
        self.graph = tree.autograd.Graph(self.spec, seed=1)
        self.sgd = tree.optim.SgdState(0.05, momentum=0.9, weight_decay=1e-4)
        self.sgd_step = tree.optim.sgd_step
        self.counts, self.seconds, self.record = collections.Counter(), {}, None
        for node in self.graph.nodes:
            if node.layer.op != "input":
                self.counts[node.layer.op] += 1
                node.forward = self.timed(node, "forward", node.forward)
                node.backward = self.timed(node, "backward", node.backward)

    def timed(self, node, phase, call):
        """``call``, adding its seconds to ``seconds[(op, phase)]`` and, while
        ``record`` is a list, appending its arrays' digest."""
        key = (node.layer.op, phase)

        def wrapper(*args, **kwargs):
            c0 = time.perf_counter()
            result = call(*args, **kwargs)
            self.seconds[key] += time.perf_counter() - c0
            if self.record is not None:
                if phase == "forward":  # (output, cache)
                    arrays = [result[0]]
                else:  # (input gradients, parameter gradients)
                    arrays = [dx for dx in result[0] if dx is not None] + by_name(result[1])
                self.record.append((node.name, phase, digest(arrays)))
            return result
        return wrapper

    def rep(self, x, labels, record=None):
        """Seconds by phase, by ``(op, phase)`` and by ``("executor", phase)``;
        ``record`` collects each node call's digest."""
        self.seconds = {(op, phase): 0.0 for op in self.counts for phase in NODE_PHASES}
        self.record = record
        c0 = time.perf_counter()
        self.graph.forward(x, labels=labels, mode="train")
        c1 = time.perf_counter()
        grads = self.graph.backward(input_grad=False)
        c2 = time.perf_counter()
        self.sgd_step(self.sgd, self.graph.params, grads)
        row = dict(zip(PHASES, between(c0, c1, c2, time.perf_counter())))
        row["step"] = row["forward"] + row["backward"] + row["sgd_step"]
        for phase in NODE_PHASES:
            row["executor", phase] = row[phase] - sum(self.seconds[op, phase]
                                                      for op in self.counts)
        row.update(self.seconds)
        self.record = None
        return row


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"p25": round(q1, 3), "median": round(med, 3), "p75": round(q3, 3)}


def alternate(rep):
    """{side: rows} of ``rep(side, i)`` for the reps after the warm-up; the
    sides alternate, the first swapping each rep."""
    runs = {"parent": [], "change": []}
    for i in range(WARMUP + REPS):
        for name in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            row = rep(name, i)
            if i >= WARMUP:
                runs[name].append(row)
    return runs


def phase_stats(runs, key):
    """Each side's quartiles in ms of its rows' ``key`` seconds, the median
    paired difference and the reps the change was faster."""
    ms = {name: [row[key] * 1e3 for row in rows] for name, rows in runs.items()}
    diff = [c - p for p, c in zip(ms["parent"], ms["change"])]
    out = {name: quartiles(ms[name]) for name in runs}
    out["paired_diff_ms"] = round(statistics.median(diff), 3)
    out["change_faster"] = f"{sum(d < 0 for d in diff)}/{REPS}"
    return out


def load_parent(parent):
    return load_tree(Path(parent) / "src", "sakit_parent")


def step_ab(parent):
    """The ``step`` record (module docstring) as a dict."""
    import numpy as np
    import sakit
    from sakit.rng import stream
    sides = {"parent": StepSide(load_parent(parent)), "change": StepSide(sakit)}
    if sides["parent"].spec.to_text() != sides["change"].spec.to_text():
        raise SystemExit("the trees build different desk seed networks")
    batches = []
    for i in range(WARMUP + REPS):
        r = stream(1, "ab-step", i)
        batches.append((r.normal(size=(BATCH, 1, 32, 32)).astype(np.float32),
                        r.integers(0, 10, size=BATCH)))
    records = {name: [] for name in sides}
    runs = alternate(lambda name, i: sides[name].rep(*batches[i],
                                                     records[name] if i == 0 else None))
    differ = next(({"node": a[0], "part": a[1]}
                   for a, b in zip(*records.values()) if a != b), None)
    params = [side.graph.params for side in sides.values()]
    equal = params[0].keys() == params[1].keys() and all(
        params[0][k].tobytes() == params[1][k].tobytes() for k in params[0])
    out = {"batch": BATCH, "reps": REPS, "params_equal": equal,
           "first_differing_node": differ}
    out.update({phase: phase_stats(runs, phase) for phase in PHASES})
    out["executor"] = {phase: phase_stats(runs, ("executor", phase)) for phase in NODE_PHASES}
    out["ops"] = {op: {"nodes": n, **{phase: phase_stats(runs, (op, phase))
                                      for phase in NODE_PHASES}}
                  for op, n in sorted(sides["change"].counts.items())}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("bytes", help="print the byte record as JSON")
    step = sub.add_parser("step", help="time the desk training step, op by op, "
                                       "against a parent tree")
    step.add_argument("--parent", required=True, help="root of the parent tree")
    args = parser.parse_args(argv)
    if args.mode == "step":
        print(json.dumps(step_ab(args.parent), indent=1))
        return
    record = imagenet_hashes()
    for downsample in ("max", "avg"):
        record[f"desk_{downsample}"] = desk_hashes(downsample)
    record["pipeline_artifacts"] = pipeline_artifacts()
    print(json.dumps(record, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
