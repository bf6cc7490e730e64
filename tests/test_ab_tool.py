"""tools/ab.py: the byte record, the pipeline's artifact hashes included,
prints the same text on every run; the training-step A/B of a tree against
itself splits each phase by op and finds no differing bytes, and against a
tree whose relu backward differs it names that node."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
AB = ROOT / "tools" / "ab.py"
DESK_FIELDS = {"loss", "grads", "input_grad", "params", "state", "eval_logits"}


def record_twice(expr):
    """The JSON of ``expr`` from two fresh processes, which must print the
    same text. Each loads tools/ab.py by path, which pins BLAS before numpy
    loads."""
    script = f"""
import importlib.util, json
spec = importlib.util.spec_from_file_location("ab", {str(AB)!r})
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)
print(json.dumps({expr}, indent=1, sort_keys=True))
"""
    runs = [subprocess.run([sys.executable, "-c", script], capture_output=True,
                           text=True, check=True).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    return json.loads(runs[0])


def test_desk_byte_record_is_complete_and_repeats():
    record = record_twice('{f"desk_{d}": ab.desk_hashes(d) for d in ("max", "avg")}')
    assert set(record) == {"desk_max", "desk_avg"}
    for fields in record.values():
        assert set(fields) == DESK_FIELDS
        assert all(len(h) == 16 and int(h, 16) >= 0 for h in fields.values())


PIPELINE_FILES = {"seed.netspec", "seed.sanc", "seed_metrics.csv", "importances.csv",
                  "budgets.csv", "plan.txt", "final.netspec", "final.sanc",
                  "final_metrics.csv", "proportions.csv", "proportions.svg", "rf.csv",
                  "rf.svg", "config.resolved.txt"}


def test_pipeline_artifact_record_is_complete_and_repeats():
    record = record_twice("ab.pipeline_artifacts()")
    assert set(record) == PIPELINE_FILES
    assert all(len(h) == 16 and int(h, 16) >= 0 for h in record.values())


# record_twice's script, with two reps: the step record against the parent
# tree in argv, and every rep's row, a key (op, phase) joined as "op|phase"
AB_STEP = f"""
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("ab", {str(AB)!r})
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)
ab.REPS = 2
runs, alternate = [], ab.alternate
ab.alternate = lambda rep: runs.append(alternate(rep)) or runs[-1]
record = ab.step_ab(sys.argv[1])
rows = [{{"|".join(k) if isinstance(k, tuple) else k: v for k, v in row.items()}}
        for side in runs[0].values() for row in side]
print(json.dumps({{"record": record, "rows": rows}}))
"""


def step_record(parent):
    return json.loads(subprocess.run([sys.executable, "-c", AB_STEP, str(parent)],
                                     capture_output=True, text=True, check=True).stdout)


def check_stats(stats):
    assert set(stats) == {"parent", "change", "paired_diff_ms", "change_faster"}
    assert re.fullmatch(r"[0-2]/2", stats["change_faster"])
    for side in ("parent", "change"):
        assert set(stats[side]) == {"p25", "median", "p75"}
        assert 0 < stats[side]["p25"] <= stats[side]["median"] <= stats[side]["p75"]


PHASES = ("forward", "backward", "sgd_step", "step")


def test_step_ab_of_a_tree_against_itself():
    out = step_record(ROOT)
    record = out["record"]
    assert (record["batch"], record["reps"], record["params_equal"]) == (32, 2, True)
    # the stem conv reads the network input: its backward's None dx is not hashed
    assert record["first_differing_node"] is None
    assert set(record) == {"batch", "reps", "params_equal", "first_differing_node",
                           "executor", "ops", *PHASES}
    for phase in PHASES:
        check_stats(record[phase])
    # a step's time is the sum of its phases'
    assert record["step"]["change"]["median"] > record["forward"]["change"]["median"]
    assert set(record["executor"]) == {"forward", "backward"}
    for stats in record["executor"].values():
        check_stats(stats)
    nodes = {op: row["nodes"] for op, row in record["ops"].items()}
    assert "input" not in nodes
    assert {op: nodes[op] for op in ("batchnorm", "conv", "resize", "softmax_xent")} == {
        "batchnorm": 19, "conv": 19, "resize": 6, "softmax_xent": 1}
    for row in record["ops"].values():
        assert set(row) == {"nodes", "forward", "backward"}
        check_stats(row["forward"])
        check_stats(row["backward"])
    # every rep: the node calls and the executor split each phase
    assert len(out["rows"]) == 4
    for row in out["rows"]:
        for phase in ("forward", "backward"):
            nodes_s = sum(row[f"{op}|{phase}"] for op in nodes)
            assert row[f"executor|{phase}"] > 0
            assert nodes_s + row[f"executor|{phase}"] == pytest.approx(row[phase])


RELU_SCALED = """

_relu_backward = relu_backward


def relu_backward(dy, y):
    return _relu_backward(dy, y) * 2
"""


def test_step_ab_names_the_first_node_whose_bytes_differ(tmp_path):
    from sakit import presets

    shutil.copytree(ROOT / "src" / "sakit", tmp_path / "src" / "sakit")
    with open(tmp_path / "src" / "sakit" / "ops.py", "a") as f:
        f.write(RELU_SCALED)
    record = step_record(tmp_path)["record"]
    spec = presets.build_seed(presets.build_cifar_resnet(1, num_classes=10, in_channels=1),
                              [1, 2, 4])
    last_relu = [layer.name for layer in spec.nodes if layer.op == "relu"][-1]
    assert record["first_differing_node"] == {"node": last_relu, "part": "backward"}
    assert record["params_equal"] is False
