import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import snl
from snl import blocks, verify

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = os.path.join(ROOT, "scripts", "pairs.py")
PHASES = os.path.join(ROOT, "perfbench", "phases.py")


def load_script(path: str, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, os.path.dirname(path))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(os.path.dirname(path))
    return module


pairs = load_script(PAIRS, "pairs")
STAGES = [label for label, *_ in pairs.STAGES]
# each workload's rows in order, and the output checks a run with the
# same tree on both sides must report
ROWS = {
    "train_snl": ["SNL_step", "SNL_evaluate", "NL_step", "NL_evaluate"],
    "blocks_n1024": [label for label, *_ in pairs.MIX] + ["mix"],
    "blocks_stacks": [label for label, *_ in pairs.STACKS] + ["mix"],
    "oracle_checks": ([f"gradcheck:{v}" for v in blocks.VARIANTS]
                      + [f"verify:{g}" for g, _ in verify.GROUPS]
                      + [f"sweep:n{n}" for n in (8, 16, 32, 64)]
                      + ["gradcheck:total", "verify:total", "sweep:total"]),
}
SAME = {
    "train_snl": {"max_parameter_abs_diff": 0.0, "max_evaluate_abs_diff": 0.0},
    "blocks_n1024": {"max_forward_abs_diff": 0.0, "max_gradient_rel_diff": 0.0},
    "blocks_stacks": {"max_forward_abs_diff": 0.0, "max_gradient_rel_diff": 0.0},
    "oracle_checks": {"stdout_identical": True, "stdout_differs": [],
                      "sweep_outputs_identical": True, "sweep_outputs_differ": []},
}
HEADER = {"train_snl": {"steps_per_block": 25, "eval_samples": 512},
          "blocks_n1024": {"stacks": False}, "blocks_stacks": {"stacks": True},
          "oracle_checks": {}}


def run_pairs(workload, *flags):
    # the same tree on both sides, one counted round: every row in order
    # (--stages: each stage after the mix), each with quartiles, one round
    # won or lost and the gain rule's inputs, and outputs that do not differ
    src = os.path.dirname(os.path.dirname(snl.__file__))
    out = subprocess.run([sys.executable, PAIRS, workload, src, src, "--rounds", "1", *flags],
                         capture_output=True, text=True, check=True, timeout=300).stdout
    lines = out.splitlines()
    stages = "--stages" in flags
    rows = ROWS[workload] + STAGES * stages
    assert [line.split()[0] for line in lines[:-2]] == rows
    assert lines[-2].startswith("outputs: ")
    result = json.loads(lines[-1])
    assert result["workload"] == workload and result["rounds"] == 1
    assert result["seed"] == (3 if "--seed" in flags else 0) and result["stages"] is stages
    assert "unit" in result
    assert {key: result[key] for key in HEADER[workload]} == HEADER[workload]
    assert {key: result[key] for key in SAME[workload]} == SAME[workload]
    for row in rows:
        s = result[row]
        assert s["change_won"] in ("0/1", "1/1")
        assert s["parent"]["median"] > 0 and s["change"]["median"] > 0
        assert s["parent"]["q1"] <= s["parent"]["q3"]
        assert s["parent_iqr"] == 0.0
        assert s["median_gap"] == pytest.approx(s["parent"]["median"] - s["change"]["median"],
                                                abs=2e-3)
    return result


@pytest.mark.parametrize("workload", ["train_snl", "oracle_checks"])
def test_pairs_runs_each_workload_on_one_tree(workload):
    run_pairs(workload)


@pytest.mark.parametrize("stacks", [False, True])
def test_block_pairs_times_the_block_mix_of_two_trees(stacks):
    # a row per configuration (or stack) and one for the mix, at --seed 3
    run_pairs("blocks_stacks" if stacks else "blocks_n1024", "--seed", "3")


def test_block_pairs_times_each_stage_of_the_mix():
    # --stages wraps the kernel, the degrees, the products with A and the
    # affinity backward of both trees and reports each side's time in each
    # over the mix, after the mix row
    result = run_pairs("blocks_n1024", "--stages")
    for side in ("parent", "change"):
        spent = sum(result[stage][side]["median"] for stage in STAGES)
        assert 0 < spent < result["mix"][side]["median"]


def test_block_pairs_mix_is_perfbench_block_mix():
    # pairs.py writes the mix out rather than import a third snl
    phases = load_script(PHASES, "perfbench_phases")
    assert pairs.MIX == phases.BLOCK_MIX
    assert (pairs.C_IN, pairs.C_S) == (phases.BLOCK_C_IN, phases.BLOCK_C_S)


def test_oracle_pairs_sweep_is_perfbench_sweep():
    # pairs.py writes the criterion-1 sweep out rather than import a third
    # snl; at each seed it draws perfbench's cases
    phases = load_script(PHASES, "perfbench_phases")
    assert (pairs.SWEEP_CASES, pairs.SWEEP_SIZES) == (phases.SWEEP_CASES, phases.SWEEP_SIZES)
    for seed in (0, 7):
        want = phases.Sweep(None, seed).cases
        got = pairs.sweep_cases(snl, seed)
        assert len(got) == len(want)
        for (n, a, z, theta), (n_want, a_want, z_want, theta_want) in zip(got, want):
            assert n == n_want
            assert np.array_equal(a.values, a_want.values)
            assert np.array_equal(z, z_want) and np.array_equal(theta, theta_want)
