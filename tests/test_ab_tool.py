"""tools/ab.py: the byte record, the pipeline's artifact hashes included,
prints the same text on every run, and the per-op and training-step A/B of a
tree against itself find no differing bytes."""

import json
import re
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


# record_twice's script, with two reps: the tree against itself as its own parent
AB_RECORD = f"""
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("ab", {str(AB)!r})
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)
ab.REPS = 2
parent = {str(ROOT)!r}
print(json.dumps(ab.ops_ab(parent, sys.argv[2]) if sys.argv[1] == "ops" else ab.step_ab(parent)))
"""


def ab_record(*args):
    return json.loads(subprocess.run([sys.executable, "-c", AB_RECORD, *args],
                                     capture_output=True, text=True, check=True).stdout)


def check_phases(record, phases):
    for phase in phases:
        assert set(record[phase]) == {"parent", "change", "paired_diff_ms", "change_faster"}
        assert re.fullmatch(r"[0-2]/2", record[phase]["change_faster"])
        for side in ("parent", "change"):
            stats = record[phase][side]
            assert set(stats) == {"p25", "median", "p75"}
            assert 0 < stats["p25"] <= stats["median"] <= stats["p75"]


# the desk's stem conv reads the network input, so its backward returns no dx
@pytest.mark.parametrize("op, nodes", [("batchnorm", 19), ("conv", 19), ("resize", 6),
                                       ("softmax_xent", 1)])
def test_ops_ab_of_a_tree_against_itself(op, nodes):
    record = ab_record("ops", op)
    assert record["first_differing_node"] is None
    assert (record["op"], record["nodes"], record["reps"]) == (op, nodes, 2)
    assert set(record) == {"op", "nodes", "reps", "first_differing_node", "forward", "backward"}
    check_phases(record, ("forward", "backward"))


def test_step_ab_of_a_tree_against_itself():
    record = ab_record("step")
    assert (record["batch"], record["reps"], record["params_equal"]) == (32, 2, True)
    phases = ("forward", "backward", "sgd_step", "step")
    assert set(record) == {"batch", "reps", "params_equal"} | set(phases)
    check_phases(record, phases)
    # a step's time is the sum of its phases'
    assert record["step"]["change"]["median"] > record["forward"]["change"]["median"]
