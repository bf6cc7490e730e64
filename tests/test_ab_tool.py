"""tools/ab.py: the byte record prints the same text on every run, and the
per-op A/B of a tree against itself finds no differing bytes."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
AB = ROOT / "tools" / "ab.py"
DESK_FIELDS = {"loss", "grads", "input_grad", "params", "state", "eval_logits"}

# a fresh process loads tools/ab.py by path, which pins BLAS before numpy loads
DESK_RECORD = f"""
import importlib.util, json
spec = importlib.util.spec_from_file_location("ab", {str(AB)!r})
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)
print(json.dumps({{f"desk_{{d}}": ab.desk_hashes(d) for d in ("max", "avg")}},
                 indent=1, sort_keys=True))
"""


def test_desk_byte_record_is_complete_and_repeats():
    runs = [subprocess.run([sys.executable, "-c", DESK_RECORD], capture_output=True,
                           text=True, check=True).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    record = json.loads(runs[0])
    assert set(record) == {"desk_max", "desk_avg"}
    for fields in record.values():
        assert set(fields) == DESK_FIELDS
        assert all(len(h) == 16 and int(h, 16) >= 0 for h in fields.values())


# the same, with two reps: the tree against itself as its own parent
OPS_RECORD = f"""
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("ab", {str(AB)!r})
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)
ab.REPS = 2
print(json.dumps(ab.ops_ab({str(ROOT)!r}, sys.argv[1])))
"""


@pytest.mark.parametrize("op, nodes", [("batchnorm", 19), ("resize", 6), ("softmax_xent", 1)])
def test_ops_ab_of_a_tree_against_itself(op, nodes):
    out = subprocess.run([sys.executable, "-c", OPS_RECORD, op], capture_output=True,
                         text=True, check=True).stdout
    record = json.loads(out)
    assert record["first_differing_node"] is None
    assert (record["op"], record["nodes"], record["reps"]) == (op, nodes, 2)
    assert set(record) == {"op", "nodes", "reps", "first_differing_node", "forward", "backward"}
    for phase in ("forward", "backward"):
        assert set(record[phase]) == {"parent", "change", "paired_diff_ms", "change_faster"}
        assert re.fullmatch(r"[0-2]/2", record[phase]["change_faster"])
        for side in ("parent", "change"):
            stats = record[phase][side]
            assert set(stats) == {"p25", "median", "p75", "minflt"}
            assert 0 < stats["p25"] <= stats["median"] <= stats["p75"]
            assert stats["minflt"] >= 0
