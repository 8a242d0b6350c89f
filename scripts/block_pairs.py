"""Interleaved timing of the N = 1024 block mix of two snl trees.

    python3 scripts/block_pairs.py PARENT_SRC CHANGE_SRC [--rounds 20] [--seed 0] [--stacks]
                                   [--stages]

PARENT_SRC and CHANGE_SRC are source directories that each hold an
``snl`` package, such as the ``src`` of two checkouts. Both load into one
process under their own package names (``train_pairs.load_tree``), so the
host's drift over seconds reaches both sides alike. The mix is perfbench's
blocks_n1024 one: twelve configurations at 1024 vertices (c_in = 8,
c_s = 4), each timed as one ``block_forward`` and then one
``block_forward`` + ``block_backward`` with upstream gradient 2 Y. It is
written out here: importing perfbench's phases would import a third
``snl``. Each round runs every configuration on both sides, and the side
that runs first alternates between rounds. A warm-up round is run and not
counted; its outputs give the largest difference between the two sides.

With ``--stacks`` it times ``STACKS`` instead: batched stacks of 2-126
matrices of 182-1024 vertices on both sides of the panel rule
(``graph._panels``), each as one ``block_forward_batch`` and one
``block_backward_batch``, which is how ``snl train`` calls the core.

With ``--stages`` each tree's ``STAGES``, the block core's functions for
the kernel, the degrees, the products with A and the affinity backward,
are wrapped in timers, and each side's time in each stage over the mix
(or over the stacks) is reported as a row of its own after the mix row.
Without the flag nothing is wrapped.

For each configuration and for the whole mix it prints each side's median
and quartiles in ms, the ratio of the medians (change over parent) and the
rounds the change won, then the largest differences of the outputs, then
the same figures as one JSON line.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from train_pairs import load_tree, row, summary  # noqa: E402

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
# (row label, module, attribute) of each stage --stages times; the module
# "blocks._Affinity" is the class whose products apply A and A^T
STAGES = [
    ("stage:kernel", "graph", "kernel_matrix"),
    ("stage:degrees", "blocks", "_degrees"),
    ("stage:products", "blocks._Affinity", "__matmul__"),
    ("stage:affinity_backward", "blocks", "_affinity_backward"),
]


def time_stages(pkg) -> dict[str, float]:
    """Wrap each of a loaded tree's ``STAGES`` in a timer; returns the
    seconds spent in each so far, by row label, updated as the tree runs."""
    spent = {}
    for label, owner, name in STAGES:
        target = pkg
        for part in owner.split("."):
            target = getattr(target, part)
        spent[label] = 0.0

        def timed(*args, _real=getattr(target, name), _label=label):
            t0 = time.perf_counter()
            try:
                return _real(*args)
            finally:
                spent[_label] += time.perf_counter() - t0
        setattr(target, name, timed)
    return spent


class Side:
    """One tree's configurations, inputs and parameters, drawn from the
    seed in perfbench's order (or in ``STACKS`` order), so both sides get
    the same arrays. With ``stages`` the tree's ``STAGES`` are wrapped in
    timers, whose running totals ``stage_s`` holds."""

    def __init__(self, pkg, seed: int, stacks: bool, stages: bool):
        blocks, graph = pkg.blocks, pkg.graph
        self.blocks = blocks
        self.stage_s = time_stages(pkg) if stages else {}
        rng = np.random.default_rng(seed)
        self.cases = []
        if stacks:
            for label, variant, c_s, height, width, batch in STACKS:
                cfg = blocks.BlockConfig(variant=variant, c_in=C_IN, c_s=c_s)
                x = (rng.normal(size=(batch, height * width, C_IN)), height, width)
                self.cases.append((label, cfg, x, blocks.random_params(cfg, rng)))
            return
        for label, variant, kernel, order, side in MIX:
            cfg = blocks.BlockConfig(variant=variant, c_in=C_IN, c_s=C_S, order=order,
                                     kernel=kernel)
            x = graph.FeatureMap(side, side, C_IN, rng.normal(size=(side * side, C_IN)))
            self.cases.append((label, cfg, x, blocks.random_params(cfg, rng)))

    def run(self, i: int) -> tuple[float, tuple]:
        """Seconds for configuration i's forward and forward + backward (a
        stack's batched forward and backward), and the outputs of the
        latter: Y, dL/dX and the parameter gradients."""
        _, cfg, x, p = self.cases[i]
        blocks = self.blocks
        t0 = time.perf_counter()
        if isinstance(x, tuple):
            y, tape = blocks.block_forward_batch(*x, cfg, p)
            gx, grads = blocks.block_backward_batch(tape, cfg, p, 2.0 * y)
        else:
            blocks.block_forward(x, cfg, p)
            y = blocks.block_forward(x, cfg, p).values
            gx, grads = blocks.block_backward(x, cfg, p, 2.0 * y)
        return time.perf_counter() - t0, (y, gx, grads)


def largest_differences(parent: tuple, change: tuple) -> tuple[float, float]:
    """Largest |Y change - Y parent|, and the largest difference of any
    gradient relative to that gradient's largest entry."""
    (y0, gx0, g0), (y1, gx1, g1) = parent, change
    pairs = [(gx0, gx1)] + [(g0[k], g1[k]) for k in g0]
    rel = max(float(np.abs(b - a).max() / max(np.abs(a).max(), 1e-300)) for a, b in pairs)
    return float(np.abs(y1 - y0).max()), rel


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--stacks", action="store_true", help="time STACKS, not the N = 1024 mix")
    ap.add_argument("--stages", action="store_true",
                    help="also time each side's STAGES over the mix")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    sides = {name: Side(load_tree(src, f"snl_{name}"), args.seed, args.stacks, args.stages)
             for name, src in (("parent", args.parent_src), ("change", args.change_src))}
    labels = [label for label, *_ in (STACKS if args.stacks else MIX)]
    stages = [label for label, *_ in STAGES] if args.stages else []
    timings = {key: {s: [] for s in sides} for key in labels + ["mix"] + stages}
    fwd_diff = grad_diff = 0.0
    for rnd in range(args.rounds + 1):  # round 0 warms up
        names = list(sides) if rnd % 2 else list(sides)[::-1]
        total = dict.fromkeys(sides, 0.0)
        before = {name: dict(side.stage_s) for name, side in sides.items()}
        for i, label in enumerate(labels):
            outputs = {}
            for name in names:
                t, outputs[name] = sides[name].run(i)
                total[name] += t
                if rnd:
                    timings[label][name].append(t)
            if not rnd:
                f, g = largest_differences(outputs["parent"], outputs["change"])
                fwd_diff, grad_diff = max(fwd_diff, f), max(grad_diff, g)
        if rnd:
            for name, side in sides.items():
                timings["mix"][name].append(total[name])
                for stage in stages:
                    timings[stage][name].append(side.stage_s[stage] - before[name][stage])
    unit = ("ms per batched forward + backward" if args.stacks
            else "ms per forward + forward-backward pair")
    result = {"rounds": args.rounds, "seed": args.seed, "stacks": args.stacks,
              "stages": args.stages,
              "unit": f"{unit}; mix: ms per pass over all {len(labels)}"}
    width = max(map(len, labels)) + 1
    for key, t in timings.items():
        result[key] = s = summary(t["parent"], t["change"], 1e3, digits=2)
        print(row(key, s, width))
    result["max_forward_abs_diff"] = fwd_diff
    result["max_gradient_rel_diff"] = grad_diff
    print(f"largest difference: forward {fwd_diff:.3g} (absolute), gradients {grad_diff:.3g} "
          f"(relative to each gradient's largest entry)")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
