"""tools/ab.py bytes: the byte record prints the same text on every run."""

import json
import subprocess
import sys
from pathlib import Path

AB = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
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
