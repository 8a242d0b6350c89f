"""End-to-end acceptance gate.

Each test prints a single PASS/FAIL line for its criterion (run with
``pytest -s tests/test_acceptance.py`` to see them all).
"""

import filecmp
import json
import time

import numpy as np
import pytest

from snl import blocks, cli, gradcheck, graph, harness, linalg, spectral
from snl.blocks import BlockConfig
from snl.graph import FeatureMap
from snl.spectral import FilterSpec

SEEDS = (0, 1, 2, 3, 4)
TRAIN_KW = dict(steps=2000, lr=0.03, batch_size=32, eval_every=2000)


def report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"CRITERION {num} [{name}]: {status}  {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def sym_norm_affinity(rng, n):
    phi = rng.normal(0.0, 0.4, size=(n, 3))
    psi = rng.normal(0.0, 0.4, size=(n, 3))
    raw = graph.compute_affinity(phi, psi, "exp_dot")
    return graph.normalize(graph.symmetrize(raw), "symmetric")


def test_criterion_1_spectral_equivalence():
    rng = np.random.default_rng(0)
    sizes = [8, 16, 32, 64]
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(50):
        n = sizes[i % 4]
        k = i % 6 + 1
        a = sym_norm_affinity(rng, n)
        z = rng.normal(size=(n, 2))
        theta = rng.normal(size=k)
        fast = spectral.poly_filter_apply(a, z, FilterSpec(order=k, theta=theta))
        exact = spectral.spectral_oracle(a, z, theta)
        worst = max(worst, linalg.rel_error(fast, exact))
    elapsed = time.perf_counter() - t0
    report(
        1, "spectral equivalence",
        worst <= 1e-8 and elapsed < 10.0,
        f"max rel error {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_laplacian_eigenvalue_bound():
    rng = np.random.default_rng(1)
    lo, hi = np.inf, -np.inf
    for i in range(100):
        n = (8, 12, 16)[i % 3]
        a = sym_norm_affinity(rng, n)
        lam = linalg.eigh(np.eye(n) - a.values).eigenvalues
        lo = min(lo, float(lam.min()))
        hi = max(hi, float(lam.max()))
    report(
        2, "eigenvalue bound",
        lo >= -1e-9 and hi <= 2.0 + 1e-9,
        f"eigenvalues of I - A in [{lo:.3e}, {hi:.6f}]",
    )


def test_criterion_3_snl_symmetry_guarantee():
    snl_cfg = BlockConfig(variant="SNL", c_in=4, c_s=2)
    rng = np.random.default_rng(2)
    failures = 0
    for _ in range(1000):
        params = blocks.random_params(snl_cfg, rng)
        x = FeatureMap(3, 3, 4, rng.normal(0.0, 0.5, size=(9, 4)))
        a = blocks.build_block_affinity(x, snl_cfg, params)
        if not np.array_equal(a.values, a.values.T):
            failures += 1
    # near-rank-deficient inputs: replicated rows, rank-1 maps, tiny scales
    base = rng.normal(0.0, 0.5, size=(1, 4))
    adversarial = [
        np.repeat(base, 9, axis=0),
        np.repeat(base, 9, axis=0) + rng.normal(0.0, 1e-12, size=(9, 4)),
        np.outer(rng.normal(size=9), rng.normal(size=4)),
        np.full((9, 4), 1e-150),
        np.zeros((9, 4)),
        rng.normal(0.0, 1e-8, size=(9, 4)),
        np.eye(9, 4),
        np.ones((9, 4)),
        rng.normal(0.0, 10.0, size=(9, 4)),
        np.tile(rng.normal(size=(3, 4)), (3, 1)),
    ]
    for vals in adversarial:
        params = blocks.random_params(snl_cfg, rng)
        a = blocks.build_block_affinity(FeatureMap(3, 3, 4, vals), snl_cfg, params)
        if not np.array_equal(a.values, a.values.T):
            failures += 1

    nl_cfg = BlockConfig(variant="NL", c_in=4, c_s=2, kernel="dot")
    asymmetric = 0
    for _ in range(100):
        params = blocks.random_params(nl_cfg, rng)
        # positive features keep the dot kernel in the normalization domain
        vals = np.abs(rng.normal(0.0, 0.5, size=(9, 4))) + 0.1
        p = blocks.BlockParams(
            np.abs(params.w_phi), np.abs(params.w_psi), params.w_z, params.filters
        )
        a = blocks.build_block_affinity(FeatureMap(3, 3, 4, vals), nl_cfg, p)
        if np.max(np.abs(a.values - a.values.T)) > 1e-12:
            asymmetric += 1
    report(
        3, "SNL symmetry guarantee",
        failures == 0 and asymmetric > 90,
        f"SNL symmetry failures {failures}/1010, NL asymmetric {asymmetric}/100",
    )


def test_criterion_4_unification_table():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = FeatureMap(3, 3, 4, np.abs(rng.normal(0.0, 0.5, size=(9, 4))) + 0.1)
        for variant in ("NL", "NS", "A2", "CGNL", "CC"):
            cfg = BlockConfig(variant=variant, c_in=4, c_s=2)
            params = blocks.random_params(cfg, np.random.default_rng(seed + 50))
            _, t = blocks.block_forward_batch(x.values[None], 3, 3, cfg, params)
            got = blocks._filter(cfg, params, t.a, t.z_node, 9)[0][0]
            a = blocks.build_block_affinity(x, cfg, params).values
            if variant == "CGNL":
                fv = blocks.generalized_forward(
                    a, t.v[0].T, [np.zeros((1, 1)), np.ones((1, 1))]
                )
                want = (
                    graph.unflatten_spatial_channel(fv, 9, cfg.c_s)
                    @ params.filters["w"]
                )
            else:
                w = params.filters["w"]
                ws = [-w, w] if variant == "NS" else [np.zeros_like(w), w]
                want = blocks.generalized_forward(a, t.z_node[0].T, ws)
            if not np.array_equal(got, want):
                worst = max(worst, linalg.rel_error(got, want))
    report(4, "unification table", worst <= 1e-12, f"max rel error {worst:.3e}")


def test_criterion_5_tied_weight_identities():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = FeatureMap(3, 3, 4, np.abs(rng.normal(0.0, 0.5, size=(9, 4))) + 0.1)
        params = blocks.random_params(
            BlockConfig(variant="NL", c_in=4, c_s=2), np.random.default_rng(seed + 70)
        )
        w = params.filters["w"]
        for variant, weights in (("NS", [-w, w]), ("NL", [np.zeros_like(w), w])):
            cfg = BlockConfig(variant=variant, c_in=4, c_s=2)
            out = blocks.block_forward(x, cfg, params).values
            a = blocks.build_block_affinity(x, cfg, params).values
            z = x.values @ params.w_z
            cheb = x.values + blocks.generalized_forward(a, z, weights)
            worst = max(worst, linalg.rel_error(out, cheb))
    report(5, "tied-weight identities", worst <= 1e-12, f"max rel error {worst:.3e}")


@pytest.mark.slow
def test_criterion_6_gradient_correctness():
    t0 = time.perf_counter()
    n_fail = 0
    worst = 0.0
    for variant in blocks.VARIANTS:
        for backprop in (False, True):
            for seed in range(3):
                cfg = BlockConfig(
                    variant=variant, c_in=4, c_s=2, order=3,
                    backprop_affinity=backprop,
                )
                for r in gradcheck.check_block_gradients(cfg, seed, tolerance=1e-4):
                    worst = max(worst, r.max_rel_error)
                    n_fail += not r.passed
    elapsed = time.perf_counter() - t0
    report(
        6, "gradient correctness",
        n_fail == 0 and elapsed < 60.0,
        f"54 runs, worst rel error {worst:.3e}, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def training_sweep():
    runs = {"base": {}, "snl": {}}
    c7_seconds = 0.0  # baseline + c_s=2 runs only (criterion 7's workload)
    for seed in SEEDS:
        data = harness.gen_dataset(seed=seed, n_samples=512, c=4, p=2, min_separation=5)
        t0 = time.perf_counter()
        net = harness.init_toynet(4, None, seed=seed)
        hist = harness.train(net, data, seed=seed, **TRAIN_KW)
        runs["base"][seed] = (hist[-1]["loss"], hist[-1]["accuracy"])
        c7_seconds += time.perf_counter() - t0
        for cs in (4, 2, 1):
            t1 = time.perf_counter()
            cfg = BlockConfig(variant="SNL", c_in=4, c_s=cs)
            net = harness.init_toynet(4, cfg, seed=seed)
            hist = harness.train(net, data, seed=seed, **TRAIN_KW)
            runs["snl"][(cs, seed)] = (hist[-1]["loss"], hist[-1]["accuracy"])
            if cs == 2:
                c7_seconds += time.perf_counter() - t1
    runs["c7_seconds"] = c7_seconds
    return runs


def gap_ok(runs, cs):
    details = []
    ok = True
    for seed in SEEDS:
        bl, ba = runs["base"][seed]
        sl, sa = runs["snl"][(cs, seed)]
        ok = ok and sl < bl and (sa - ba) >= 0.10
        details.append(f"seed {seed}: {sl:.4f}/{sa:.3f} vs {bl:.4f}/{ba:.3f}")
    return ok, "; ".join(details)


@pytest.mark.slow
def test_criterion_7_long_range_mechanism(training_sweep):
    ok, detail = gap_ok(training_sweep, cs=2)
    elapsed = training_sweep["c7_seconds"]
    report(
        7, "long-range mechanism",
        ok and elapsed < 300.0,
        f"{detail}; {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_8_reduction_ratio_robustness(training_sweep):
    all_ok = True
    summary = []
    for cs in (4, 2, 1):
        ok, _ = gap_ok(training_sweep, cs=cs)
        all_ok = all_ok and ok
        summary.append(f"c_s={cs}: {'ok' if ok else 'FAIL'}")
    report(8, "reduction-ratio robustness", all_ok, "; ".join(summary))


def test_criterion_9_cli_determinism(tmp_path):
    cfg = {
        "block": {"variant": "SNL", "c_in": 4, "c_s": 2},
        "dataset": {"n_samples": 64},
        "steps": 100,
        "eval_every": 50,
    }
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = {
        "verify": ["verify", "--filter", "unification"],
        "gradcheck": ["gradcheck", "--variant", "SNL", "--seed", "0"],
        "train": ["train", "--config", str(cfg_path), "--seed", "0"],
    }
    mismatches = []
    for name, argv in outputs.items():
        dirs = []
        for run in (1, 2):
            out = tmp_path / f"{name}{run}"
            code = cli.run(argv + ["--out", str(out)])
            assert code == 0, f"{name} run {run} exited {code}"
            dirs.append(out)
        files = sorted(p.name for p in dirs[0].iterdir())
        assert files, f"{name} produced no output files"
        for fname in files:
            if not filecmp.cmp(dirs[0] / fname, dirs[1] / fname, shallow=False):
                mismatches.append(f"{name}/{fname}")
    report(
        9, "determinism",
        not mismatches,
        "all output files byte-identical" if not mismatches else f"differ: {mismatches}",
    )
