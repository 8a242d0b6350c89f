"""Benchmark entry point for the snl package.

    python3 perfbench/run.py --workload train_snl --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout: it imports ``snl`` from ``src/``.
One client runs a closed loop of operations (see ``phases.py``) and the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer ones
from a traced run, whose spans are written to ``perfbench/out/``.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The phases each workload times, with their shares of the run. The sweep
# gets most of oracle_checks because its N=64 cases take most of the task.
# A traced run also runs every other phase, for a smaller share, so that it
# reports every per-layer metric.
WORKLOADS = {
    "train_snl": {"train": 1.0},
    "blocks_n1024": {"blocks": 1.0},
    "oracle_checks": {"gradcheck": 0.2, "verify": 0.2, "sweep": 0.6},
}
TRACED_PRIMARY_SHARE = 0.5
SETUP_REPEATS = 3
ROUNDS = 12
TAIL_PERCENTILES = (99, 95, 90, 75)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_snl() -> float:
    """Import the package from ``src/``; returns the median time of
    SETUP_REPEATS imports of numpy and every snl module in fresh processes."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "snl", "__init__.py")):
        sys.exit(f"perfbench: no snl package under {src}; run from a source checkout")
    sys.path.insert(0, src)
    code = "import time; t = time.perf_counter(); import snl.cli; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": src}
    times = [
        float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout)
        for _ in range(SETUP_REPEATS)
    ]
    return statistics.median(times)


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # the N=1024 float64 affinity, the largest array any phase builds
        "largest_array_mib": 1024 * 1024 * 8 / 2**20,
    }


def tail(samples: dict, metric) -> str:
    """Median-based value next to the highest percentile with >= 10 samples
    beyond it in every operation class of the metric."""
    n = min(len(samples[label]) for label in metric.weights)
    q = next((q for q in TAIL_PERCENTILES if (100 - q) * n >= 1000), None)
    if q is None:
        return f"n={n} per class; no tail percentile (p75 needs n >= 40)"
    pct = {label: statistics.quantiles(samples[label], n=100)[q - 1] for label in metric.weights}
    return f"n={n} per class; p{q}={metric.value(pct):.6g}"


def main(argv) -> int:
    args = parse_args(argv)
    import_s = import_snl()

    import layers
    import phases
    from snl import blocks, cli, gradcheck, graph, harness, linalg, spectral, verify
    from spans import Recorder

    primary = WORKLOADS[args.workload]
    recorder = None
    if args.trace:
        recorder = Recorder([linalg, graph, spectral, blocks, harness, gradcheck, verify, cli,
                             sys.modules["snl"]])
    client = phases.Client(recorder)
    share = dict(primary)
    if args.trace:
        rest = [cls.name for cls in phases.PHASES if cls.name not in primary]
        share = {name: TRACED_PRIMARY_SHARE * v for name, v in share.items()}
        share.update({name: (1 - TRACED_PRIMARY_SHARE) / len(rest) for name in rest})

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        running = [cls(client, args.seed) for cls in phases.PHASES if cls.name in share]
        for ph in running:
            ph.warm()
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    # Phases take turns over ROUNDS rounds so that each one samples the
    # whole run, since the host's speed drifts over seconds. A phase runs
    # while its time used is below its share of the rounds so far.
    used = {ph.name: 0.0 for ph in running}
    t_start = time.perf_counter()
    for r in range(1, ROUNDS + 1):
        for ph in running:
            while used[ph.name] < share[ph.name] * args.seconds * r / ROUNDS:
                t0 = time.perf_counter()
                ph.step()
                used[ph.name] += time.perf_counter() - t0
    for ph in running:
        while ph.done < ph.min_steps:
            ph.step()
    measured_s = time.perf_counter() - t_start
    for ph in running:
        ph.final_check()

    medians = {label: statistics.median(v) for label, v in client.samples.items()}
    task = phases.Metric("s", 1.0, {})
    for ph in running:
        if ph.name in primary:
            task.weights.update(ph.task())
    e2e = {
        "setup_s": (setup_s, "s"),
        "task_s": (task.value(medians), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": ((client.attempted - client.failed) / client.attempted, "frac"),
    }

    print(f"workload {args.workload} seed {args.seed}: measured {measured_s:.1f}s "
          f"(closed loop, 1 client); " + ", ".join(f"{k}={v}" for k, v in machine().items()))
    for ph in running:
        for name, m in ph.metrics().items():
            print(f"  {name:<20} {m.value(medians):>12.6g} {m.unit:<4} {tail(client.samples, m)}")
    print(f"  {'task_s':<20} {e2e['task_s'][0]:>12.6g} s    {tail(client.samples, task)}")
    print(f"  {'setup_s':<20} {setup_s:>12.6g} s    import {import_s:.3f}s + median of "
          f"{SETUP_REPEATS} set-ups {[round(t, 3) for t in setup_times]}")
    print(f"  {'peak_rss_mb':<20} {e2e['peak_rss_mb'][0]:>12.6g} MB")
    print(f"  failed_frac {client.failed / client.attempted:.6g} "
          f"({client.failed} of {client.attempted} operations)")
    for p in client.problems:
        print(f"  FAILED {p}")

    if args.trace:
        traced = {**medians, **{label: statistics.median(v) for label, v in client.traced.items()}}
        overhead = {}
        for ph in running:
            m = phases.Metric("s", 1.0, ph.task())
            overhead[ph.name] = 100.0 * (m.value(traced) / m.value(medians) - 1)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        recorder.write(os.path.join(HERE, "out", f"spans_{args.workload}_seed{args.seed}.npz"))
        reported = layers.compute(recorder.table(), overhead)
        for name, (value, unit) in reported.items():
            print(f"  {name:<48} {value:>12.6g} {unit}")
    else:
        reported = e2e

    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
