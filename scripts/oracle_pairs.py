"""Interleaved timing of ``snl gradcheck`` and ``snl verify`` on two snl trees.

    python3 scripts/oracle_pairs.py PARENT_SRC CHANGE_SRC [--rounds 20]

PARENT_SRC and CHANGE_SRC are source directories that each hold an
``snl`` package, such as the ``src`` of two checkouts. Both load into one
process under their own package names (``train_pairs.load_tree``), so the
host's drift over seconds reaches both sides alike. Each round runs
``cli.run(["gradcheck", "--variant", V])`` for every variant and
``cli.run(["verify", "--filter", G])`` for every group on each side, one
command after the other; the side that runs first alternates between
rounds. A warm-up round is run and not counted.

For each command, and for the gradcheck and verify totals of a round, it
prints each side's median in ms, the ratio of the medians (change over
parent) and the share of rounds the change won. It then reports whether
every call printed the same stdout on both sides, and ends with the same
figures as one JSON line.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from train_pairs import load_tree  # noqa: E402


def commands(pkg) -> list[tuple[str, list[str]]]:
    """(row, argv) of every timed command of one tree."""
    gradcheck = [(f"gradcheck:{v}", ["gradcheck", "--variant", v]) for v in pkg.blocks.VARIANTS]
    verify = [(f"verify:{g}", ["verify", "--filter", g]) for g, _ in pkg.verify.GROUPS]
    return gradcheck + verify


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


def summary(parent: list[float], change: list[float]) -> dict:
    p, c = np.asarray(parent) * 1e3, np.asarray(change) * 1e3
    return {"parent_ms": round(float(np.median(p)), 3), "change_ms": round(float(np.median(c)), 3),
            "change_over_parent": round(float(np.median(c) / np.median(p)), 3),
            "change_won": f"{int(np.sum(c < p))}/{len(p)}"}


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
    rows = commands(sides["parent"])
    if [name for name, _ in commands(sides["change"])] != [name for name, _ in rows]:
        raise SystemExit("the two trees differ in variants or verify groups")
    totals = ("gradcheck:total", "verify:total")
    timings = {name: {s: [] for s in sides} for name in [n for n, _ in rows] + list(totals)}
    mismatched = set()
    for rnd in range(args.rounds + 1):  # round 0 warms up
        order = list(sides) if rnd % 2 else list(sides)[::-1]
        for name, cmd in rows:
            printed = {}
            for side in order:
                seconds, printed[side] = timed(sides[side].cli, cmd)
                if rnd:
                    timings[name][side].append(seconds)
            if printed["parent"] != printed["change"]:
                mismatched.add(name)
        if rnd:
            for total in totals:
                kind = total.split(":")[0]
                for side in sides:
                    timings[total][side].append(sum(
                        timings[name][side][-1] for name, _ in rows if name.startswith(kind + ":")))
    result = {"rounds": args.rounds, "unit": "ms per command"}
    for name, t in timings.items():
        result[name] = s = summary(t["parent"], t["change"])
        print(f"{name:<38} parent {s['parent_ms']:>8.3f}  change {s['change_ms']:>8.3f}  "
              f"ratio {s['change_over_parent']:.3f}  change won {s['change_won']}")
    result["stdout_identical"] = not mismatched
    result["stdout_differs"] = sorted(mismatched)
    print("stdout identical on every call" if not mismatched
          else f"stdout differs on {len(mismatched)} commands: {', '.join(sorted(mismatched))}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
