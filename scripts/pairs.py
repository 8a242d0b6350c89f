"""Interleaved timing of one perfbench workload on two snl trees.

    python3 scripts/pairs.py WORKLOAD PARENT_SRC CHANGE_SRC [--rounds R] [--seed S] [--stages]

PARENT_SRC and CHANGE_SRC are source directories that each hold an
``snl`` package, such as the ``src`` of two checkouts. Both load into one
process under their own package names, so the host's drift over seconds
reaches both sides alike. Each round runs every row of the workload on
both sides, one row after the other; the side that runs first alternates
between rounds. Round 0 warms up and is not counted. Every round, each
row's outputs on the two sides are compared.

WORKLOAD is one of:

- ``train_snl``: for the SNL and then the NL block (B=32, N=64, c_s=2,
  lr 0.03, 512 samples), a block of 25 SGD steps (row ``V_step``, time
  per step) and one ``evaluate`` of the 512 samples (``V_evaluate``);
  compares the parameters after the steps and evaluate's (loss, accuracy).
  40 rounds by default.
- ``blocks_n1024``: perfbench's blocks_n1024 mix, twelve configurations
  at 1024 vertices (c_in = 8, c_s = 4), each one ``block_forward`` and
  then one ``block_forward`` + ``block_backward`` with upstream gradient
  2 Y, and the whole mix (``mix``); compares Y, dL/dX and the parameter
  gradients. 20 rounds by default.
- ``blocks_stacks``: ``STACKS``, batched stacks of 2-126 matrices of
  182-1024 vertices on both sides of the panel rule (``graph._panels``),
  each one ``block_forward_batch`` and one ``block_backward_batch``, as
  ``snl train`` calls the core; otherwise as ``blocks_n1024``.
- ``oracle_checks``: ``cli.run(["gradcheck", "--variant", V, "--seed",
  S])`` for every variant and ``cli.run(["verify", "--filter", G])`` for
  every group, then perfbench's criterion-1 sweep (``SWEEP_CASES`` cases
  drawn from the seed, N cycling through ``SWEEP_SIZES``, each one
  ``poly_filter_apply`` and one ``spectral_oracle``; one row per N), and
  the ``gradcheck:total``, ``verify:total`` and ``sweep:total`` of a
  round; compares stdout and the sweep outputs (``np.array_equal``).
  20 rounds by default.

The mix, the stacks and the sweep are written out here: importing
perfbench's phases would import a third ``snl``. Inputs are drawn from
``--seed`` as perfbench draws them.

With ``--stages`` each tree's ``STAGES``, the block core's functions for
the kernel, the degrees, the products with A and the affinity backward,
are wrapped in timers, and each side's time in each stage over a round
is a row of its own after the others. Without the flag nothing is wrapped.

For each row it prints each side's median and quartiles in ms, the ratio
of the medians (change over parent), the rounds the change won, and the
gain rule's inputs: the median gap (the parent's median less the
change's) and the parent's IQR. Then it prints the output comparison,
and last the same figures as one JSON line.
"""

import argparse
import contextlib
import functools
import importlib
import importlib.util
import io
import itertools
import json
import os
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

# train_snl: SGD steps per timed block, batch, samples, learning rate
STEPS, BATCH, SAMPLES, LR = 25, 32, 512, 0.03
VARIANTS = ("SNL", "NL")

C_IN, C_S = 8, 4
# (label, variant, kernel, order, grid side): perfbench's blocks_n1024 mix;
# CGNL's flattened 16x16 graph has 256 * c_s = 1024 vertices
MIX = [
    ("NL", "NL", "exp_dot", 2, 32),
    ("NS", "NS", "exp_dot", 2, 32),
    ("A2", "A2", "exp_dot", 2, 32),
    ("A2_dot", "A2", "dot", 2, 32),
    ("CGNL", "CGNL", "exp_dot", 2, 16),
    ("CC", "CC", "exp_dot", 2, 32),
    ("SNL", "SNL", "exp_dot", 2, 32),
    ("SNL_A1", "SNL_A1", "exp_dot", 2, 32),
    ("SNL_A2", "SNL_A2", "exp_dot", 2, 32),
    ("CHEB_K2", "CHEB_K", "exp_dot", 2, 32),
    ("CHEB_K4", "CHEB_K", "exp_dot", 4, 32),
    ("CHEB_K8", "CHEB_K", "exp_dot", 8, 32),
]
# (label, variant, c_s, grid height, grid width, batch): stacks whose
# matrices pass one graph.PANEL_BYTES, from a few N = 1024 maps to the
# B = 32 stacks of CGNL training at c_s = 3 and 4 and a B = 126 stack
STACKS = [
    ("NL_V1024_B2", "NL", 4, 32, 32, 2),
    ("NL_V1024_B4", "NL", 4, 32, 32, 4),
    ("SNL_V1024_B4", "SNL", 4, 32, 32, 4),
    ("NL_V484_B8", "NL", 2, 22, 22, 8),
    ("NL_V256_B16", "NL", 2, 16, 16, 16),
    ("CGNL_V256_B32", "CGNL", 4, 8, 8, 32),
    ("SNL_V256_B32", "SNL", 2, 16, 16, 32),
    ("CGNL_V192_B16", "CGNL", 3, 8, 8, 16),
    ("CGNL_V192_B32", "CGNL", 3, 8, 8, 32),
    ("NL_V196_B32", "NL", 2, 14, 14, 32),
    ("SNL_V256_B64", "SNL", 2, 16, 16, 64),
    ("NL_V182_B126", "NL", 2, 13, 14, 126),
]

# perfbench's criterion-1 sweep: 50 cases, N cycling through the sizes,
# order i % 6 + 1
SWEEP_CASES = 50
SWEEP_SIZES = (8, 16, 32, 64)

# (row label, module, attribute) of each stage --stages times; the module
# "blocks._Affinity" is the class whose products apply A and A^T
STAGES = [
    ("stage:kernel", "graph", "kernel_matrix"),
    ("stage:degrees", "blocks", "_degrees"),
    ("stage:products", "blocks._Affinity", "__matmul__"),
    ("stage:affinity_backward", "blocks", "_affinity_backward"),
]


def load_tree(src: str, name: str):
    """The ``snl`` package under ``src``, imported as ``name``."""
    root = os.path.join(src, "snl")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "__init__.py"), submodule_search_locations=[root])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for sub in ("blocks", "harness", "spectral", "cli"):  # cli imports verify, gradcheck
        importlib.import_module(f"{name}.{sub}")
    return pkg


def timed(fn, *args) -> tuple[float, object]:
    """Seconds of one call and what it returned."""
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def train_rows(pkg, seed: int) -> dict:
    """train_snl's rows of one tree. Both variants draw their batches in
    turn from one shuffled cycle of the dataset."""
    harness = pkg.harness
    data = harness.gen_dataset(seed=seed, n_samples=SAMPLES, c=4)
    order = np.random.default_rng(seed).permutation(SAMPLES)
    batches = itertools.cycle([order[i:i + BATCH] for i in range(0, SAMPLES - BATCH + 1, BATCH)])

    def steps(net, velocity) -> tuple[float, list]:
        """Seconds per SGD step over STEPS steps, and the net's parameter
        arrays, which are compared before the next step updates them."""
        picked = [(data.values[idx], data.labels[idx])
                  for idx in itertools.islice(batches, STEPS)]
        with np.errstate(**harness.DIVERGENCE_ERRSTATE):
            t0 = time.perf_counter()
            for step, (v, y) in enumerate(picked, 1):
                harness._sgd_step(net, velocity, v, y, LR, step)
            seconds = (time.perf_counter() - t0) / STEPS
        return seconds, [p for _, p in net.parameters()]

    rows = {}
    for variant in VARIANTS:
        cfg = pkg.blocks.BlockConfig(variant=variant, c_in=4, c_s=2)
        net = harness.init_toynet(4, cfg, seed=seed)
        velocity = {k: np.zeros_like(v) for k, v in net.parameters()}
        rows[f"{variant}_step"] = functools.partial(steps, net, velocity)
        rows[f"{variant}_evaluate"] = functools.partial(timed, harness.evaluate, net, data)
    return rows


def compare_train(name: str, parent, change) -> dict:
    """Largest difference of the parameters after a step row, or of
    evaluate's (loss, accuracy)."""
    key = "max_parameter_abs_diff" if name.endswith("_step") else "max_evaluate_abs_diff"
    return {key: max(float(np.max(np.abs(np.subtract(a, b)))) for a, b in zip(parent, change))}


def block_rows(pkg, seed: int, stacks: bool) -> dict:
    """The mix's (or the stacks') rows of one tree, drawn from the seed in
    perfbench's order (or in ``STACKS`` order)."""
    blocks, graph = pkg.blocks, pkg.graph
    rng = np.random.default_rng(seed)

    def run(cfg, x, p) -> tuple[float, tuple]:
        """Seconds for a forward and a forward + backward (a stack's
        batched forward and backward), and Y, dL/dX and the parameter
        gradients of the latter."""
        t0 = time.perf_counter()
        if isinstance(x, tuple):
            y, tape = blocks.block_forward_batch(*x, cfg, p)
            gx, grads = blocks.block_backward_batch(tape, cfg, p, 2.0 * y)
        else:
            blocks.block_forward(x, cfg, p)
            y = blocks.block_forward(x, cfg, p).values
            gx, grads = blocks.block_backward(x, cfg, p, 2.0 * y)
        return time.perf_counter() - t0, (y, gx, grads)

    rows = {}
    if stacks:
        for label, variant, c_s, height, width, batch in STACKS:
            cfg = blocks.BlockConfig(variant=variant, c_in=C_IN, c_s=c_s)
            x = (rng.normal(size=(batch, height * width, C_IN)), height, width)
            rows[label] = functools.partial(run, cfg, x, blocks.random_params(cfg, rng))
        return rows
    for label, variant, kernel, order, side in MIX:
        cfg = blocks.BlockConfig(variant=variant, c_in=C_IN, c_s=C_S, order=order,
                                 kernel=kernel)
        x = graph.FeatureMap(side, side, C_IN, rng.normal(size=(side * side, C_IN)))
        rows[label] = functools.partial(run, cfg, x, blocks.random_params(cfg, rng))
    return rows


def compare_blocks(name: str, parent: tuple, change: tuple) -> dict:
    """Largest |Y change - Y parent|, and the largest difference of any
    gradient relative to that gradient's largest entry."""
    (y0, gx0, g0), (y1, gx1, g1) = parent, change
    pairs = [(gx0, gx1)] + [(g0[k], g1[k]) for k in g0]
    rel = max(float(np.abs(b - a).max() / max(np.abs(a).max(), 1e-300)) for a, b in pairs)
    return {"max_forward_abs_diff": float(np.abs(y1 - y0).max()), "max_gradient_rel_diff": rel}


def sweep_cases(pkg, seed: int) -> list[tuple]:
    """(n, a, z, theta) of every sweep case, drawn with one tree's graph
    functions as perfbench's ``Sweep`` draws them."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(SWEEP_CASES):
        n = SWEEP_SIZES[i % len(SWEEP_SIZES)]
        raw = pkg.graph.compute_affinity(rng.normal(0.0, 0.4, size=(n, 3)),
                                         rng.normal(0.0, 0.4, size=(n, 3)), "exp_dot")
        a = pkg.graph.normalize(pkg.graph.symmetrize(raw), "symmetric")
        cases.append((n, a, rng.normal(size=(n, 2)), rng.normal(size=i % 6 + 1)))
    return cases


def oracle_rows(pkg, seed: int) -> dict:
    """oracle_checks' rows of one tree: each command, then the sweep by N."""
    def command(argv: list[str]) -> tuple[float, str]:
        """Seconds of one ``cli.run`` call and the stdout it printed."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            seconds, code = timed(pkg.cli.run, argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited with {code}:\n{out.getvalue()}")
        return seconds, out.getvalue()

    def sweep(cases) -> tuple[float, list]:
        """Seconds of one ``poly_filter_apply`` and one ``spectral_oracle``
        per case, and their outputs in order."""
        spectral, out = pkg.spectral, []
        t0 = time.perf_counter()
        for _, a, z, theta in cases:
            spec = spectral.FilterSpec(order=theta.size, theta=theta)
            out += [spectral.poly_filter_apply(a, z, spec), spectral.spectral_oracle(a, z, theta)]
        return time.perf_counter() - t0, out

    rows = {f"gradcheck:{v}": functools.partial(
        command, ["gradcheck", "--variant", v, "--seed", str(seed)])
        for v in pkg.blocks.VARIANTS}
    for g, _ in pkg.verify.GROUPS:
        rows[f"verify:{g}"] = functools.partial(command, ["verify", "--filter", g])
    cases = sweep_cases(pkg, seed)
    for n in SWEEP_SIZES:
        rows[f"sweep:n{n}"] = functools.partial(sweep, [c for c in cases if c[0] == n])
    return rows


def compare_oracle(name: str, parent, change) -> dict:
    """Whether a command printed the same stdout, or a sweep row's outputs
    are equal, and the row's name if not."""
    if name.startswith("sweep:"):
        same = all(map(np.array_equal, parent, change))
        return {"sweep_outputs_identical": same, "sweep_outputs_differ": [] if same else [name]}
    same = parent == change
    return {"stdout_identical": same, "stdout_differs": [] if same else [name]}


class Workload(NamedTuple):
    rows: Callable  # (pkg, seed) -> {row: call returning (seconds, output)}, in order
    totals: Callable  # row names -> {total: the rows it sums}
    compare: Callable  # (row, parent output, change output) -> JSON fields
    rounds: int  # default --rounds
    header: dict  # JSON fields of the run


def _oracle_totals(rows: list[str]) -> dict:
    return {f"{kind}:total": [r for r in rows if r.startswith(kind + ":")]
            for kind in ("gradcheck", "verify", "sweep")}


WORKLOADS = {
    "train_snl": Workload(
        train_rows, lambda rows: {}, compare_train, 40,
        {"steps_per_block": STEPS, "eval_samples": SAMPLES,
         "unit": {"step": "ms per SGD step", "evaluate": "ms per evaluate"}}),
    "blocks_n1024": Workload(
        functools.partial(block_rows, stacks=False), lambda rows: {"mix": rows},
        compare_blocks, 20,
        {"stacks": False, "unit": "ms per forward + forward-backward pair; "
                                  f"mix: ms per pass over all {len(MIX)}"}),
    "blocks_stacks": Workload(
        functools.partial(block_rows, stacks=True), lambda rows: {"mix": rows},
        compare_blocks, 20,
        {"stacks": True, "unit": "ms per batched forward + backward; "
                                 f"mix: ms per pass over all {len(STACKS)}"}),
    "oracle_checks": Workload(oracle_rows, _oracle_totals, compare_oracle, 20,
                              {"unit": "ms per command or sweep row"}),
}


def time_stages(pkg) -> dict[str, float]:
    """Wrap each of a loaded tree's ``STAGES`` in a timer; returns the
    seconds spent in each so far, by row label, updated as the tree runs."""
    spent = {}
    for label, owner, name in STAGES:
        target = pkg
        for part in owner.split("."):
            target = getattr(target, part)
        spent[label] = 0.0

        def stage(*args, _real=getattr(target, name), _label=label, **kwargs):
            t0 = time.perf_counter()
            try:
                return _real(*args, **kwargs)
            finally:
                spent[_label] += time.perf_counter() - t0
        setattr(target, name, stage)
    return spent


def fold(found: dict, fields: dict) -> None:
    """Fold one row's comparison into the run's: flags by ``and``, row
    lists by union, differences by their largest."""
    for key, value in fields.items():
        if key not in found:
            found[key] = value
        elif isinstance(value, bool):
            found[key] = found[key] and value
        elif isinstance(value, list):
            found[key] = sorted(set(found[key]) | set(value))
        else:
            found[key] = max(found[key], value)


def summary(parent: list[float], change: list[float]) -> dict:
    """Each side's quartiles of the timings in ms (3 decimals), the ratio
    of the medians (change over parent), the rounds the change won, the
    parent's IQR and the median gap (the parent's median less the
    change's: positive when the change is faster)."""
    p, c = np.asarray(parent) * 1e3, np.asarray(change) * 1e3
    qp, qc = np.percentile(p, [25, 50, 75]), np.percentile(c, [25, 50, 75])
    side = lambda q: dict(zip(("q1", "median", "q3"), np.round(q, 3)))
    return {"parent": side(qp), "change": side(qc),
            "change_over_parent": round(float(qc[1] / qp[1]), 3),
            "change_won": f"{int(np.sum(c < p))}/{len(p)}",
            "parent_iqr": round(float(qp[2] - qp[0]), 3),
            "median_gap": round(float(qp[1] - qc[1]), 3)}


def row(name: str, s: dict, width: int) -> str:
    """One printed line of a ``summary``."""
    p, c = s["parent"], s["change"]
    return (f"{name:<{width}} parent {p['median']:>9} [{p['q1']}, {p['q3']}]  "
            f"change {c['median']:>9} [{c['q1']}, {c['q3']}]  "
            f"ratio {s['change_over_parent']:.3f}  change won {s['change_won']}  "
            f"gap {s['median_gap']} over parent IQR {s['parent_iqr']}")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--rounds", type=int,
                    help="counted rounds (default 40 for train_snl, else 20)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--stages", action="store_true",
                    help="also time each side's STAGES over each round")
    args = ap.parse_args(argv)
    work = WORKLOADS[args.workload]
    rounds = work.rounds if args.rounds is None else args.rounds
    if rounds < 1:
        ap.error("--rounds must be at least 1")
    calls, spent = {}, {}
    for side, src in (("parent", args.parent_src), ("change", args.change_src)):
        pkg = load_tree(src, f"snl_{side}")
        spent[side] = time_stages(pkg) if args.stages else {}
        calls[side] = work.rows(pkg, args.seed)
    rows = list(calls["parent"])
    if list(calls["change"]) != rows:
        raise SystemExit("the two trees give different rows (variants or verify groups)")
    totals = work.totals(rows)
    timings = {name: {side: [] for side in calls} for name in [*rows, *totals, *spent["parent"]]}
    found = {}
    for rnd in range(rounds + 1):  # round 0 warms up
        order = list(calls) if rnd % 2 else list(calls)[::-1]
        before = {side: dict(spent[side]) for side in calls}
        seconds = {side: {} for side in calls}
        for name in rows:
            got = {}
            for side in order:
                seconds[side][name], got[side] = calls[side][name]()
            fold(found, work.compare(name, got["parent"], got["change"]))
        if not rnd:
            continue
        for side in calls:
            for name in rows:
                timings[name][side].append(seconds[side][name])
            for total, names in totals.items():
                timings[total][side].append(sum(seconds[side][name] for name in names))
            for stage, s in spent[side].items():
                timings[stage][side].append(s - before[side][stage])
    result = {"workload": args.workload, "rounds": rounds, "seed": args.seed,
              "stages": args.stages, **work.header}
    width = max(map(len, timings)) + 1
    for name, t in timings.items():
        result[name] = s = summary(t["parent"], t["change"])
        print(row(name, s, width))
    result.update(found)
    print("outputs: " + ", ".join(f"{key} {value}" for key, value in found.items()))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
