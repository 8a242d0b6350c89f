import json
import os
import subprocess
import sys

from snl import blocks, harness, verify

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_train_pairs_times_two_trees_in_one_process():
    # the same tree on both sides, one counted round: every timing row and
    # the JSON line, with one round won or lost per timing
    src = os.path.dirname(os.path.dirname(harness.__file__))
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "train_pairs.py"), src, src,
         "--rounds", "1"], capture_output=True, text=True, check=True, timeout=300).stdout
    lines = out.splitlines()
    keys = ["SNL_step", "SNL_evaluate", "NL_step", "NL_evaluate"]
    assert [line.split()[0] for line in lines[:-1]] == keys
    result = json.loads(lines[-1])
    assert result["rounds"] == 1
    for key in keys:
        assert result[key]["change_won"] in ("0/1", "1/1")
        assert result[key]["parent"]["median"] > 0 and result[key]["change"]["median"] > 0


def test_oracle_pairs_times_both_oracle_commands():
    # the same tree on both sides, one counted round: a row per gradcheck
    # variant and verify group, the two totals, and identical stdout
    src = os.path.dirname(os.path.dirname(harness.__file__))
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "oracle_pairs.py"), src, src,
         "--rounds", "1"], capture_output=True, text=True, check=True, timeout=300).stdout
    lines = out.splitlines()
    rows = ([f"gradcheck:{v}" for v in blocks.VARIANTS]
            + [f"verify:{g}" for g, _ in verify.GROUPS] + ["gradcheck:total", "verify:total"])
    assert [line.split()[0] for line in lines[:-2]] == rows
    assert lines[-2] == "stdout identical on every call"
    result = json.loads(lines[-1])
    assert result["rounds"] == 1 and result["stdout_identical"] is True
    for row in rows:
        assert result[row]["change_won"] in ("0/1", "1/1")
        assert result[row]["parent_ms"] > 0 and result[row]["change_ms"] > 0
