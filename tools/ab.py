"""Byte record of a sakit tree, for comparing a change with its parent.

    python3 tools/ab.py bytes

sakit is imported from the ``src/`` beside this file's ``tools/``. To record
a parent commit, copy this file into a ``git archive`` of it and run it
there. Loading this file pins BLAS to one thread, which holds if numpy is
not loaded yet, so two trees whose kernels compute the same expressions
print the same JSON.

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
"""

import argparse
import hashlib
import json
import os
import sys
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


def desk_hashes(downsample):
    import numpy as np
    from sakit.autograd import Graph
    from sakit.optim import SgdState, sgd_step
    from sakit.presets import build_cifar_resnet, build_seed
    from sakit.rng import stream
    spec = build_seed(build_cifar_resnet(1, num_classes=10, in_channels=1), [1, 2, 4],
                      downsample=downsample)
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("bytes", help="print the byte record as JSON")
    parser.parse_args(argv)
    record = imagenet_hashes()
    for downsample in ("max", "avg"):
        record[f"desk_{downsample}"] = desk_hashes(downsample)
    print(json.dumps(record, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
