"""Interleaved timing of ``snl gradcheck``, ``snl verify`` and the criterion-1
sweep on two snl trees.

    python3 scripts/oracle_pairs.py PARENT_SRC CHANGE_SRC [--rounds 20]

PARENT_SRC and CHANGE_SRC are source directories that each hold an
``snl`` package, such as the ``src`` of two checkouts. Both load into one
process under their own package names (``train_pairs.load_tree``), so the
host's drift over seconds reaches both sides alike. Each round runs
``cli.run(["gradcheck", "--variant", V])`` for every variant and
``cli.run(["verify", "--filter", G])`` for every group, and then the
criterion-1 sweep, on each side, one row after the other; the side that
runs first alternates between rounds. A warm-up round is run and not
counted. The sweep is perfbench's (``Sweep`` in ``perfbench/phases.py``),
written out here as ``block_pairs`` writes its mix: ``SWEEP_CASES`` cases
drawn from seed ``SWEEP_SEED``, N cycling through ``SWEEP_SIZES``, each
one ``poly_filter_apply`` and one ``spectral_oracle``. Its row for each N
times that N's cases, and each side draws them with its own tree.

For each command and sweep row, and for the gradcheck, verify and sweep
totals of a round, it prints each side's median and quartiles in ms, the
ratio of the medians (change over parent) and the share of rounds the
change won, in ``train_pairs``' format. It then reports whether every call
printed the same stdout on both sides and whether every sweep output is
equal on both sides (``np.array_equal``), and ends with the same figures
as one JSON line.
"""

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from train_pairs import load_tree, row, summary  # noqa: E402


def commands(pkg) -> list[tuple[str, list[str]]]:
    """(row, argv) of every timed command of one tree."""
    gradcheck = [(f"gradcheck:{v}", ["gradcheck", "--variant", v]) for v in pkg.blocks.VARIANTS]
    verify = [(f"verify:{g}", ["verify", "--filter", g]) for g, _ in pkg.verify.GROUPS]
    return gradcheck + verify


# perfbench's criterion-1 sweep: 50 cases, N cycling through the sizes,
# order i % 6 + 1, drawn as a perfbench run with --seed 0 draws them
SWEEP_CASES = 50
SWEEP_SIZES = (8, 16, 32, 64)
SWEEP_SEED = 0


def sweep_cases(pkg) -> list[tuple]:
    """(n, a, z, theta) of every sweep case, drawn with one tree's graph
    functions as perfbench's ``Sweep`` draws them."""
    rng = np.random.default_rng(SWEEP_SEED)
    cases = []
    for i in range(SWEEP_CASES):
        n = SWEEP_SIZES[i % len(SWEEP_SIZES)]
        raw = pkg.graph.compute_affinity(rng.normal(0.0, 0.4, size=(n, 3)),
                                         rng.normal(0.0, 0.4, size=(n, 3)), "exp_dot")
        a = pkg.graph.normalize(pkg.graph.symmetrize(raw), "symmetric")
        cases.append((n, a, rng.normal(size=(n, 2)), rng.normal(size=i % 6 + 1)))
    return cases


def timed_sweep(spectral, cases) -> tuple[float, list]:
    """Seconds of one ``poly_filter_apply`` and one ``spectral_oracle`` per
    case, and their outputs in order."""
    out = []
    t0 = time.perf_counter()
    for _, a, z, theta in cases:
        spec = spectral.FilterSpec(order=theta.size, theta=theta)
        out += [spectral.poly_filter_apply(a, z, spec), spectral.spectral_oracle(a, z, theta)]
    return time.perf_counter() - t0, out


def rows_of(pkg) -> dict:
    """Every timed row of one tree, in order, as a call that returns its
    seconds and its output: each command, then the sweep by N."""
    calls = {name: functools.partial(timed, pkg.cli, argv) for name, argv in commands(pkg)}
    cases = sweep_cases(pkg)
    for n in SWEEP_SIZES:
        calls[f"sweep:n{n}"] = functools.partial(
            timed_sweep, pkg.spectral, [case for case in cases if case[0] == n])
    return calls


def timed(cli, argv: list[str]) -> tuple[float, str]:
    """Seconds of one ``cli.run`` call and the stdout it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        code = cli.run(argv)
        seconds = time.perf_counter() - t0
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {code}:\n{out.getvalue()}")
    return seconds, out.getvalue()


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--rounds", type=int, default=20)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    sides = {}
    for side, src in (("parent", args.parent_src), ("change", args.change_src)):
        pkg = load_tree(src, f"snl_{side}")
        importlib.import_module(f"{pkg.__name__}.cli")  # imports verify and gradcheck too
        sides[side] = pkg
    calls = {side: rows_of(pkg) for side, pkg in sides.items()}
    rows = list(calls["parent"])
    if list(calls["change"]) != rows:
        raise SystemExit("the two trees differ in variants or verify groups")
    totals = ("gradcheck:total", "verify:total", "sweep:total")
    timings = {name: {s: [] for s in sides} for name in rows + list(totals)}
    mismatched, sweep_mismatched = set(), set()
    for rnd in range(args.rounds + 1):  # round 0 warms up
        order = list(sides) if rnd % 2 else list(sides)[::-1]
        for name in rows:
            got = {}
            for side in order:
                seconds, got[side] = calls[side][name]()
                if rnd:
                    timings[name][side].append(seconds)
            if not name.startswith("sweep:"):
                if got["parent"] != got["change"]:
                    mismatched.add(name)
            elif not all(map(np.array_equal, got["parent"], got["change"])):
                sweep_mismatched.add(name)
        if rnd:
            for total in totals:
                kind = total.split(":")[0]
                for side in sides:
                    timings[total][side].append(sum(
                        timings[name][side][-1] for name in rows if name.startswith(kind + ":")))
    result = {"rounds": args.rounds, "unit": "ms per command or sweep row"}
    width = max(map(len, timings)) + 1
    for name, t in timings.items():
        result[name] = s = summary(t["parent"], t["change"], 1e3, digits=3)
        print(row(name, s, width))
    result["stdout_identical"] = not mismatched
    result["stdout_differs"] = sorted(mismatched)
    result["sweep_outputs_identical"] = not sweep_mismatched
    result["sweep_outputs_differ"] = sorted(sweep_mismatched)
    print("stdout identical on every call" if not mismatched
          else f"stdout differs on {len(mismatched)} commands: {', '.join(sorted(mismatched))}")
    print("sweep outputs identical on every case" if not sweep_mismatched
          else f"sweep outputs differ on {len(sweep_mismatched)} rows: "
               f"{', '.join(sorted(sweep_mismatched))}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
