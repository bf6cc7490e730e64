"""Run one sakit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload infer-resnet50 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; sakit is imported from ``src/``. With
``--trace 0`` the workload runs for ``--seconds`` in a closed loop and the
end-to-end metrics are printed; with ``--trace 1`` one unit of work runs
untraced and once traced, and the per-layer metrics are printed; the exact
counts must match those of any earlier traced run with the same seed and the
same sources (see ``source_digest``). The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Full results, and for traced runs the spans and per-node table,
go to ``perfbench/out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "images_per_s": "1/s",
    "batch_ms_p50": "ms",
    "batch_ms_p90": "ms",
    "peak_rss_mib": "MiB",
}

# per-op time shares from the single-run baseline table in ROADMAP.md
BASELINE_SHARES = {
    "pipeline-desk": {"conv": 0.39, "batchnorm": 0.26, "maxpool": 0.16,
                      "relu": 0.12, "resize": 0.04},
    "infer-scalenet50": {"conv": 0.70 / 1.16, "batchnorm": 0.19 / 1.16,
                         "maxpool": 0.18 / 1.16},
    "infer-resnet50": {"maxpool": 0.05 / 0.96},
}
# and the time of that step, or of one image (ROADMAP's batch-2 time / 2)
BASELINE_MS = {"pipeline-desk": 800, "infer-scalenet50": 580, "infer-resnet50": 480}


def pin_blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def git(root, *args):
    """Output of ``git <args>`` in ``root``, or None outside a git checkout."""
    if not (root / ".git").exists():  # do not report an enclosing repository
        return None
    try:
        done = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(root):
    """sha256 over sakit's sources and the benchmark's own, so that exact
    counts are compared only between runs of the same code, committed or
    not."""
    files = [f for f in (root / "src" / "sakit").rglob("*")
             if f.is_file() and "__pycache__" not in f.parts]
    files += [f for f in (root / "perfbench").glob("*.py")
              if not f.name.startswith("test_")]
    digest = hashlib.sha256()
    for f in sorted(files):
        digest.update(f.relative_to(root).as_posix().encode() + b"\0")
        digest.update(f.read_bytes() + b"\0")
    return digest.hexdigest()


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        vendor = "unknown"
    status = git(ROOT, "status", "--porcelain")
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas": vendor, "blas_threads": BLAS_THREADS, "numpy": np.__version__,
            "python": platform.python_version(),
            "git_commit": git(ROOT, "rev-parse", "HEAD"),
            "git_dirty": None if status is None else bool(status),
            "source_digest": source_digest(ROOT)}


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def measure(workload, seed, seconds, setup_repeats=SETUP_REPEATS):
    """Closed loop of units for ``seconds``; returns (result, details).

    Every timing, a set-up, a unit or a batch, is divided by the slowdown the
    machine-speed probe saw around it (see ``speed.py``). The probe is sampled
    before the first set-up, after every set-up and every unit, and between a
    pipeline's epochs; time spent sampling inside a unit is not counted."""
    from speed import SpeedProbe
    probe = SpeedProbe()
    probe.sample()
    setups, state = [], None
    for _ in range(setup_repeats):
        state = None  # free the previous set-up before building the next
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setups.append((t0, time.perf_counter()))
        probe.sample()
    checked, units, batches, images = [], [], [], 0
    while True:
        spent = probe.spent
        t0 = time.perf_counter()
        ops = workload.unit(state, probe)
        t1 = time.perf_counter()
        units.append((t0, t1, t1 - t0 - (probe.spent - spent)))
        probe.sample()
        images += sum(op.images for op in ops)
        batches += [b for op in ops for b in op.batches]
        # check now and drop the outputs, so that memory does not grow with
        # the number of units that fit in the window
        checked += [(op.error, workload.check(state, op)) for op in ops]
        # stop when one more unit would probably end past the window
        unit_s = [u[2] for u in units]
        if sum(unit_s) + statistics.median(unit_s) > seconds:
            break
    checked += [(op.error, workload.check(state, op)) for op in workload.finish(state)]
    failed = sum(not ok for _, ok in checked)
    setup_s = [(t1 - t0) / probe.slowdown(t0, t1) for t0, t1 in setups]
    unit_s = [raw / probe.slowdown(t0, t1) for t0, t1, raw in units]
    batch_ms = [(t1 - t0) * 1e3 / probe.slowdown(t0, t1) for t0, t1 in batches]
    values = {
        "setup_s": statistics.median(setup_s),
        "pipeline_s": statistics.median(unit_s),
        "images_per_s": images / sum(unit_s),
        "batch_ms_p50": statistics.median(batch_ms),
        "batch_ms_p90": p90(batch_ms),
        "peak_rss_mib": peak_rss_mib(),
    }
    result = _result(len(checked), failed, values, END_TO_END)
    details = {"probe_s": probe.samples,
               "setup_raw_s": [t1 - t0 for t0, t1 in setups],
               "unit_raw_s": [u[2] for u in units],
               "unit_slowdown": [probe.slowdown(t0, t1) for t0, t1, _ in units],
               "batch_raw_ms": [(t1 - t0) * 1e3 for t0, t1 in batches],
               "errors": sorted({error for error, _ in checked} - {""})}
    return result, details


def measure_traced(name, workload, seed):
    """One unit untraced, then set-up and the unit under the tracer; returns
    (result, details, tracer)."""
    from tracing import UNITS, Tracer, layer_metrics, node_rows, op_shares
    from workloads import REQUIRED_SPANS, budget_utilization
    from sakit import flops

    state = workload.setup(seed)
    t0 = time.perf_counter()
    ops = workload.unit(state)
    untraced = time.perf_counter() - t0
    ops += workload.finish(state)
    failed = sum(not workload.check(state, op) for op in ops)
    attempted = len(ops)
    state = None
    with Tracer() as tracer:
        state = workload.setup(seed)
        t0 = time.perf_counter()
        ops = workload.unit(state)
        traced = time.perf_counter() - t0
    ops += workload.finish(state)
    attempted += len(ops)
    failed += sum(not workload.check(state, op) for op in ops)
    calls = tracer.calls()
    missing = [label for label in REQUIRED_SPANS[name] if not calls[label]]
    if missing:
        raise RuntimeError(f"{name}: traced spans with zero calls: {missing}")
    values = layer_metrics(tracer, budget_utilization(workload.network(state, ops)),
                           (traced - untraced) / untraced)
    evals = calls["training.evaluate_graph"]
    step_ms = values["training.step_ms_p50"] or (
        values["training.evaluate_graph.s"] / evals * 1e3 if evals else 0.0)
    details = {"untraced_unit_s": untraced, "traced_unit_s": traced,
               "op_shares": op_shares(tracer), "step_ms": step_ms,
               "nodes": node_rows(tracer, flops.network_flops)}
    return _result(attempted, failed, values, UNITS), details, tracer


def check_counts(path, result):
    """Keep the exact counts of a traced run in ``path``; fail when an
    earlier traced run recorded there counted otherwise."""
    from tracing import EXACT
    counts = {k: result["metrics"][k]["value"] for k in EXACT}
    if path.exists():
        before = json.loads(path.read_text())
        differ = {k: (before.get(k), v) for k, v in counts.items() if before.get(k) != v}
        if differ:
            raise RuntimeError(f"exact counts differ from the earlier traced run "
                               f"recorded in {path.name}: {differ}")
    path.write_text(json.dumps(counts))


def _result(attempted, failed, values, units):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def baseline_line(name, shares, step_ms):
    """Per-op time shares and step time beside ROADMAP's baseline table;
    not a gate."""
    parts = []
    for kind, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        base = BASELINE_SHARES[name].get(kind)
        note = ""
        if base is not None:
            note = f" (ROADMAP {base:.0%}{', DIFFERS' if abs(share - base) > 0.10 else ''})"
        parts.append(f"{kind} {share:.1%}{note}")
    scope = "seed training step" if name == "pipeline-desk" else "evaluate_graph batch"
    return (f"baseline-check {name} {scope}: {step_ms:.0f} ms "
            f"(ROADMAP {BASELINE_MS[name]} ms); " + ", ".join(parts))


def write_trace(path, tracer, details, result, env):
    t_zero = tracer.spans[0][1] if tracer.spans else 0
    labels = sorted({s[0] for s in tracer.spans})
    index = {label: i for i, label in enumerate(labels)}
    spans = [[index[label], start - t_zero, end - t_zero, parent]
             for label, start, end, parent, _ in tracer.spans]
    payload = {"env": env, "result": result, **details,
               "span_columns": ["label", "start_ns", "end_ns", "parent"],
               "labels": labels, "spans": spans}
    path.write_text(json.dumps(payload))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sakit" / "__init__.py").is_file():
        print(f"error: no sakit sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    pin_blas_threads()  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload '{args.workload}'; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    env = environment()
    print("env " + json.dumps(env), flush=True)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        result, details, tracer = measure_traced(args.workload, workload, args.seed)
        check_counts(out / f"counts-{stem}-{env['source_digest'][:16]}.json", result)
        print(baseline_line(args.workload, details["op_shares"], details["step_ms"]))
        write_trace(out / f"trace-{stem}.json", tracer, details, result, env)
    else:
        result, details = measure(workload, args.seed, args.seconds)
        print("samples " + json.dumps(details))
        (out / f"result-{stem}.json").write_text(
            json.dumps({"env": env, "result": result, **details}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
