import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import snl
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
    # variant, verify group and sweep size, the three totals, each with
    # train_pairs' quartiles, identical stdout and identical sweep outputs
    src = os.path.dirname(os.path.dirname(harness.__file__))
    out = subprocess.run(
        [sys.executable, ORACLE_PAIRS, src, src, "--rounds", "1"],
        capture_output=True, text=True, check=True, timeout=300).stdout
    lines = out.splitlines()
    rows = ([f"gradcheck:{v}" for v in blocks.VARIANTS]
            + [f"verify:{g}" for g, _ in verify.GROUPS]
            + [f"sweep:n{n}" for n in (8, 16, 32, 64)]
            + ["gradcheck:total", "verify:total", "sweep:total"])
    assert [line.split()[0] for line in lines[:-3]] == rows
    assert lines[-3] == "stdout identical on every call"
    assert lines[-2] == "sweep outputs identical on every case"
    result = json.loads(lines[-1])
    assert result["rounds"] == 1 and result["stdout_identical"] is True
    assert result["sweep_outputs_identical"] is True
    for row in rows:
        assert result[row]["change_won"] in ("0/1", "1/1")
        assert result[row]["parent"]["median"] > 0 and result[row]["change"]["median"] > 0
        assert result[row]["parent"]["q1"] <= result[row]["parent"]["q3"]


def load_script(path: str, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, os.path.dirname(path))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(os.path.dirname(path))
    return module


BLOCK_PAIRS = os.path.join(ROOT, "scripts", "block_pairs.py")
ORACLE_PAIRS = os.path.join(ROOT, "scripts", "oracle_pairs.py")
PHASES = os.path.join(ROOT, "perfbench", "phases.py")


def test_block_pairs_mix_is_perfbench_block_mix():
    # block_pairs writes the mix out rather than import a third snl
    pairs = load_script(BLOCK_PAIRS, "block_pairs")
    phases = load_script(PHASES, "perfbench_phases")
    assert pairs.MIX == phases.BLOCK_MIX
    assert (pairs.C_IN, pairs.C_S) == (phases.BLOCK_C_IN, phases.BLOCK_C_S)


def test_oracle_pairs_sweep_is_perfbench_sweep():
    # oracle_pairs writes the criterion-1 sweep out rather than import a
    # third snl; at the seed it names it draws perfbench's cases
    pairs = load_script(ORACLE_PAIRS, "oracle_pairs")
    phases = load_script(PHASES, "perfbench_phases")
    assert (pairs.SWEEP_CASES, pairs.SWEEP_SIZES) == (phases.SWEEP_CASES, phases.SWEEP_SIZES)
    want = phases.Sweep(None, pairs.SWEEP_SEED).cases
    got = pairs.sweep_cases(snl)
    assert len(got) == len(want)
    for (n, a, z, theta), (n_want, a_want, z_want, theta_want) in zip(got, want):
        assert n == n_want
        assert np.array_equal(a.values, a_want.values)
        assert np.array_equal(z, z_want) and np.array_equal(theta, theta_want)


@pytest.mark.parametrize("stacks", [False, True])
def test_block_pairs_times_the_block_mix_of_two_trees(stacks):
    # the same tree on both sides, one counted round: a row per
    # configuration (or stack) and one for the mix, and outputs that do
    # not differ
    src = os.path.dirname(os.path.dirname(blocks.__file__))
    out = subprocess.run(
        [sys.executable, BLOCK_PAIRS, src, src, "--rounds", "1", "--seed", "3"]
        + ["--stacks"] * stacks, capture_output=True, text=True, check=True,
        timeout=300).stdout
    lines = out.splitlines()
    pairs = load_script(BLOCK_PAIRS, "block_pairs")
    rows = [label for label, *_ in (pairs.STACKS if stacks else pairs.MIX)] + ["mix"]
    assert [line.split()[0] for line in lines[:-2]] == rows
    assert lines[-2].startswith("largest difference: forward 0 ")
    result = json.loads(lines[-1])
    assert result["rounds"] == 1 and result["seed"] == 3 and result["stacks"] is stacks
    assert result["max_forward_abs_diff"] == 0.0 and result["max_gradient_rel_diff"] == 0.0
    for row in rows:
        assert result[row]["change_won"] in ("0/1", "1/1")
        assert result[row]["parent"]["median"] > 0 and result[row]["change"]["median"] > 0


def test_block_pairs_times_each_stage_of_the_mix():
    # --stages wraps the kernel, the degrees, the products with A and the
    # affinity backward of both trees and reports each side's time in each
    # over the mix, after the mix row; the outputs still do not differ
    src = os.path.dirname(os.path.dirname(blocks.__file__))
    out = subprocess.run([sys.executable, BLOCK_PAIRS, src, src, "--rounds", "1", "--stages"],
                         capture_output=True, text=True, check=True, timeout=300).stdout
    lines = out.splitlines()
    pairs = load_script(BLOCK_PAIRS, "block_pairs")
    stages = [label for label, *_ in pairs.STAGES]
    rows = [label for label, *_ in pairs.MIX] + ["mix"] + stages
    assert [line.split()[0] for line in lines[:-2]] == rows
    result = json.loads(lines[-1])
    assert result["stages"] is True and result["max_forward_abs_diff"] == 0.0
    for side in ("parent", "change"):
        spent = sum(result[stage][side]["median"] for stage in stages)
        assert 0 < spent < result["mix"][side]["median"]
