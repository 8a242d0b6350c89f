"""Interleaved timing of the SGD step and ``evaluate`` of two snl trees.

    python3 scripts/train_pairs.py PARENT_SRC CHANGE_SRC [--rounds 40] [--seed 0]

PARENT_SRC and CHANGE_SRC are source directories that each hold an
``snl`` package, such as the ``src`` of two checkouts. Both load into one
process under their own package names, so the host's drift over seconds
reaches both sides alike. Each round runs, for the SNL and then the NL
block (B=32, N=64, c_s=2, lr 0.03, 512 samples), a block of 25 SGD steps
and one ``evaluate`` of the 512 samples on each side; the side that runs
first alternates between rounds. A warm-up round is run and not counted.

For each timing it prints each side's median and quartiles, the ratio of
the medians (change over parent) and the share of rounds the change won,
then the same figures as one JSON line.
"""

import argparse
import importlib.util
import json
import os
import sys
import time

import numpy as np

STEPS = 25  # SGD steps per timed block
BATCH = 32
SAMPLES = 512
LR = 0.03
VARIANTS = ("SNL", "NL")


def load_tree(src: str, name: str):
    """The ``snl`` package under ``src``, imported as ``name``."""
    root = os.path.join(src, "snl")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "__init__.py"), submodule_search_locations=[root])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for sub in ("blocks", "harness"):
        importlib.import_module(f"{name}.{sub}")
    return pkg


class Side:
    """One tree's nets, velocities and dataset, one per variant."""

    def __init__(self, pkg, seed: int):
        self.harness = pkg.harness
        self.data = self.harness.gen_dataset(seed=seed, n_samples=SAMPLES, c=4)
        self.order = np.random.default_rng(seed).permutation(SAMPLES)
        self.cursor = 0
        self.nets = {}
        for variant in VARIANTS:
            cfg = pkg.blocks.BlockConfig(variant=variant, c_in=4, c_s=2)
            net = self.harness.init_toynet(4, cfg, seed=seed)
            velocity = {k: np.zeros_like(v) for k, v in net.parameters()}
            self.nets[variant] = (net, velocity)

    def steps(self, variant: str) -> float:
        """Seconds per SGD step over one block of STEPS steps."""
        net, velocity = self.nets[variant]
        values, labels = self.data.values, self.data.labels
        batches = []
        for _ in range(STEPS):
            if self.cursor + BATCH > SAMPLES:
                self.cursor = 0
            idx = self.order[self.cursor:self.cursor + BATCH]
            self.cursor += BATCH
            batches.append((values[idx], labels[idx]))
        with np.errstate(**self.harness.DIVERGENCE_ERRSTATE):
            t0 = time.perf_counter()
            for step, (v, y) in enumerate(batches, 1):
                self.harness._sgd_step(net, velocity, v, y, LR, step)
            return (time.perf_counter() - t0) / STEPS

    def evaluate(self, variant: str) -> float:
        t0 = time.perf_counter()
        self.harness.evaluate(self.nets[variant][0], self.data)
        return time.perf_counter() - t0


def summary(parent: list[float], change: list[float], unit: float, digits: int = 1) -> dict:
    """Each side's quartiles of the timings, in seconds times ``unit`` and
    rounded to ``digits`` decimals, the ratio of the medians (change over
    parent) and the rounds the change won."""
    p, c = np.asarray(parent) * unit, np.asarray(change) * unit
    side = lambda a: dict(zip(("q1", "median", "q3"),
                              np.round(np.percentile(a, [25, 50, 75]), digits)))
    return {"parent": side(p), "change": side(c),
            "change_over_parent": round(float(np.median(c) / np.median(p)), 3),
            "change_won": f"{int(np.sum(c < p))}/{len(p)}"}


def row(key: str, s: dict, width: int) -> str:
    """One printed line of a ``summary``."""
    return (f"{key:<{width}} parent {s['parent']['median']:>8} [{s['parent']['q1']}, "
            f"{s['parent']['q3']}]  change {s['change']['median']:>8} [{s['change']['q1']}, "
            f"{s['change']['q3']}]  ratio {s['change_over_parent']:.3f}  "
            f"change won {s['change_won']}")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--rounds", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    sides = {"parent": Side(load_tree(args.parent_src, "snl_parent"), args.seed),
             "change": Side(load_tree(args.change_src, "snl_change"), args.seed)}
    timings = {f"{v}_{what}": {s: [] for s in sides} for v in VARIANTS
               for what in ("step", "evaluate")}
    for rnd in range(args.rounds + 1):  # round 0 warms up
        names = list(sides) if rnd % 2 else list(sides)[::-1]
        for variant in VARIANTS:
            for what in ("step", "evaluate"):
                for name in names:
                    side = sides[name]
                    t = side.steps(variant) if what == "step" else side.evaluate(variant)
                    if rnd:
                        timings[f"{variant}_{what}"][name].append(t)
    result = {"rounds": args.rounds, "steps_per_block": STEPS, "eval_samples": SAMPLES,
              "unit": {"step": "us per SGD step", "evaluate": "ms per evaluate"}}
    for key, t in timings.items():
        unit = 1e6 if key.endswith("step") else 1e3
        result[key] = s = summary(t["parent"], t["change"], unit)
        print(row(key, s, 13))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
