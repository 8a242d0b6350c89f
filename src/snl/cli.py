"""Command-line entry point: verification, gradient checks, toy training,
attention export, and benchmarking.

Exit codes: 0 = success, 1 = a verification/gradcheck suite or the bench
K-scaling gate failed, 2 = usage or configuration error.
"""

import argparse
import functools
import json
import os
import resource
import sys
import time

import numpy as np

from . import blocks, gradcheck, graph, harness, linalg, verify
from .blocks import BlockConfig
from .errors import ConfigError, PreconditionError, SnlError
from .graph import FeatureMap


def _write_lines(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_verify(args) -> int:
    results = verify.run_verify(args.filter)
    if not results:
        print(f"no invariant group matches filter {args.filter!r}", file=sys.stderr)
        return 2
    width = max(len(r["name"]) for r in results)
    for r in results:
        status = "pass" if r["passed"] else "FAIL"
        print(f"{r['name']:<{width}}  {status}  {r['detail']}")
    n_pass = sum(r["passed"] for r in results)
    print(f"{n_pass}/{len(results)} invariant groups passed")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        rows = ["name,passed,detail"]
        rows += [f"{r['name']},{int(r['passed'])},\"{r['detail']}\"" for r in results]
        _write_lines(os.path.join(args.out, "verify.csv"), rows)
    return 0 if n_pass == len(results) else 1


GRADCHECK_TOL = 1e-4  # snl gradcheck's default --tol


def _gradcheck_cases(variants, seed: int, tol: float):
    """(variant, backprop_affinity, reports) of each gradcheck case, in
    order: every variant, with the affinity frozen, then backpropagated."""
    for variant in variants:
        for backprop in (False, True):
            cfg = BlockConfig(
                variant=variant, c_in=4, c_s=2, order=3, backprop_affinity=backprop
            )
            yield variant, backprop, gradcheck.check_block_gradients(cfg, seed, tol)


def _cmd_gradcheck(args) -> int:
    variants = [args.variant] if args.variant else list(blocks.VARIANTS)
    for v in variants:
        if v not in blocks.VARIANTS:
            raise ConfigError(f"unknown variant {v!r}")
    all_pass = True
    csv_rows = ["variant,backprop_affinity,parameter,max_abs_error,max_rel_error,checked_entries,passed"]
    for variant, backprop, reports in _gradcheck_cases(variants, args.seed, args.tol):
        ok = all(r.passed for r in reports)
        all_pass = all_pass and ok
        print(f"== {variant} backprop_affinity={backprop}: "
              f"{'pass' if ok else 'FAIL'}")
        print(gradcheck.format_report_table(reports))
        for r in reports:
            csv_rows.append(
                f"{variant},{int(backprop)},{r.parameter},"
                f"{r.max_abs_error:.17g},{r.max_rel_error:.17g},"
                f"{r.checked_entries},{int(r.passed)}"
            )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_lines(os.path.join(args.out, "gradcheck.csv"), csv_rows)
    return 0 if all_pass else 1


# Run keys pass to harness.train under their own names, dataset keys to
# harness.gen_dataset under the parameter names mapped here; the defaults of
# keys a config leaves out are those two functions' own.
_RUN_KEYS = ("steps", "lr", "batch_size", "eval_every")
_DATASET_ARGS = {"n_samples": "n_samples", "channels": "c", "patterns": "p",
                 "min_separation": "min_separation", "noise": "noise"}
_REAL_KEYS = {"lr", "noise"}  # finite numbers; the other run and dataset keys are integers


def _check_scalar(key: str, value) -> None:
    # type() rather than isinstance(): JSON true and false are not numbers here
    if key in _REAL_KEYS:
        ok, kind = type(value) in (int, float) and np.isfinite(value), "a finite number"
    else:
        ok, kind = type(value) is int, "an integer"
    if not ok:
        raise ConfigError(f"{key} must be {kind}, got {json.dumps(value)}")


def load_train_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("train config must be a JSON object")
    unknown = set(cfg) - {"block", "dataset", *_RUN_KEYS}
    if unknown:
        raise ConfigError(f"unknown train config keys: {sorted(unknown)}")
    if not isinstance(cfg.get("block"), (dict, type(None))):
        raise ConfigError("block must be a block config object or null")
    ds = cfg.get("dataset", {})
    if not isinstance(ds, dict):
        raise ConfigError("dataset must be an object")
    unknown = set(ds) - set(_DATASET_ARGS)
    if unknown:
        raise ConfigError(f"unknown dataset config keys: {sorted(unknown)}")
    run = {k: v for k, v in cfg.items() if k in _RUN_KEYS}
    for key, value in (run | ds).items():
        _check_scalar(key, value)
    return cfg


def _cmd_train(args) -> int:
    cfg = load_train_config(args.config)
    block_cfg = None
    if cfg.get("block") is not None:
        block_cfg = BlockConfig.from_dict(cfg["block"])
    ds_cfg = {_DATASET_ARGS[k]: v for k, v in cfg.get("dataset", {}).items()}
    data = harness.gen_dataset(seed=args.seed, **ds_cfg)
    net = harness.init_toynet(data.values.shape[-1], block_cfg, seed=args.seed)
    run_cfg = {k: cfg[k] for k in _RUN_KEYS if k in cfg}
    history = harness.train(net, data, seed=args.seed, **run_cfg)
    os.makedirs(args.out, exist_ok=True)
    _write_lines(os.path.join(args.out, "metrics.csv"), harness.history_to_csv_rows(history))
    final = history[-1]
    print(f"final step {final['step']}: loss {final['loss']:.6f}, "
          f"accuracy {final['accuracy']:.4f}")
    return 0


def _grid_dims(n: int, height: int | None) -> tuple[int, int]:
    if height is not None:
        if height < 1:
            raise ConfigError(f"height must be at least 1, got {height}")
        if n % height != 0:
            raise ConfigError(f"height {height} does not divide N = {n}")
        return height, n // height
    side = int(round(np.sqrt(n)))
    if side * side != n:
        raise ConfigError(f"N = {n} is not square; pass --height")
    return side, side


def _cmd_export_attention(args) -> int:
    try:
        positions = [int(p) for p in args.positions.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"--positions must be comma-separated integers, "
                          f"got {args.positions!r}") from None
    if not positions:
        raise ConfigError("no positions given")
    values = linalg.load_matrix(args.input)
    with open(args.block) as fh:
        cfg = BlockConfig.from_json(fh.read())
    n, c = values.shape
    if c != cfg.c_in:
        raise ConfigError(f"matrix has {c} channels, block config expects {cfg.c_in}")
    h, w = _grid_dims(n, args.height)
    x = FeatureMap(h, w, c, values)
    params = blocks.init_params(cfg, np.random.default_rng(args.seed))
    affinity = blocks.build_block_affinity(x, cfg, params)
    if affinity.values.shape[0] != n:
        raise ConfigError(
            f"variant {cfg.variant} attention rows are not positional "
            f"(graph has {affinity.values.shape[0]} vertices)"
        )
    os.makedirs(args.out, exist_ok=True)
    for pos in positions:
        if not 0 <= pos < n:
            raise ConfigError(f"position {pos} outside grid of {n} cells")
        image = graph.heatmap_image(affinity.values[pos], h, w)
        graph.write_pgm(image, os.path.join(args.out, f"attention_{pos:04d}.pgm"))
    print(f"wrote {len(positions)} heatmaps to {args.out}")
    return 0


BENCH_REPEATS = 5
# SGD steps before snl bench counts a step's page faults
BENCH_WARMUP_STEPS = 5


def _seconds(fn) -> list[float]:
    """Wall times of BENCH_REPEATS calls after one warm-up call."""
    fn()
    times = []
    for _ in range(BENCH_REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def _bench_once(variant: str, n: int, order: int, rng, backward: bool = False) -> list[float]:
    """Seconds of one block_forward, or of a block_forward plus the
    block_backward that reads its tape."""
    c_in, c_s = 8, 4
    cfg = BlockConfig(variant=variant, c_in=c_in, c_s=c_s, order=order)
    try:
        blocks._vertices(cfg, n)
    except PreconditionError:  # a graph past its vertex cap is not timed
        return [float("nan")]
    height, width = _grid_dims(n, None)
    x = FeatureMap(height, width, c_in, rng.normal(0, 0.2, size=(n, c_in)))
    params = blocks.random_params(cfg, rng)

    def call():
        y = blocks.block_forward(x, cfg, params)
        if backward:
            blocks.block_backward(x, cfg, params, y.values)

    return _seconds(call)


def _bench_train_step() -> tuple[list[float], float, blocks.Tape]:
    """Seconds of one SGD step of the toy net with an SNL block (B=32,
    N=64, c_s=2), the minor page faults per step once warm, and the tape
    of the step's block call."""
    data = harness.gen_dataset(seed=0, n_samples=32, c=4)
    net = harness.init_toynet(4, BlockConfig(variant="SNL", c_in=4, c_s=2), seed=0)
    velocity = {name: np.zeros_like(p) for name, p in net.parameters()}

    def step():  # lr 0 keeps the weights, so every repeat does the same work
        harness._sgd_step(net, velocity, data.values, data.labels, 0.0, step=1)

    # the first steps grow the heap; counted from the sixth, as the test
    # suite's probe counts, the faults are the steady state's
    for _ in range(BENCH_WARMUP_STEPS):
        step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    times = _seconds(step)  # a warm-up step and BENCH_REPEATS timed ones
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    # taken after the count: a tape held across the steps would grow the heap
    tape = harness._forward_batch(net, data.values)["tape"]
    return times, faults / (BENCH_REPEATS + 1), tape


def _bench_evaluate() -> list[float]:
    """Seconds of one ``harness.evaluate`` of 512 samples, EVAL_CHUNK per
    forward pass, on the toy net with an SNL block (N=64, c_s=2)."""
    data = harness.gen_dataset(seed=0, n_samples=512, c=4)
    net = harness.init_toynet(4, BlockConfig(variant="SNL", c_in=4, c_s=2), seed=0)
    return _seconds(lambda: harness.evaluate(net, data))


# perfbench's bound on the filter-only increment ratio; 1.0 is linear in K
CHEB_GROWTH_LIMIT = 1.5
# back-to-back K triplets of the filter-only timing
BENCH_TRIPLETS = 21


def _increment_ratio(times: dict, ks: list[int]) -> float:
    """(t(hi) - t(mid)) / ((hi - mid)/(mid - lo) (t(mid) - t(lo))) of the
    lowest, middle and highest order: 1.0 when the time is linear in K,
    above when it grows faster. Stages outside the filter cost the same at
    every K and cancel out of both increments."""
    lo, mid, hi = ks[0], ks[len(ks) // 2], ks[-1]
    step = (hi - mid) / (mid - lo) * (times[mid] - times[lo])
    return (times[hi] - times[mid]) / step if step > 0 else float("inf")


def _filter_scaling(n: int, ks: list[int], rng) -> tuple[dict, float | None]:
    """Seconds of ``generalized_forward`` alone per order on an N-vertex
    symmetric affinity, one per back-to-back triplet, and the median
    increment ratio over the triplets (None with fewer than three orders):
    a slow spell of the host cancels out of each triplet's ratio."""
    cfg = BlockConfig(variant="CHEB_K", c_in=8, c_s=4, order=ks[-1])
    height, width = _grid_dims(n, None)
    x = FeatureMap(height, width, 8, rng.normal(0, 0.2, size=(n, 8)))
    params = blocks.random_params(cfg, rng)
    a = blocks.build_block_affinity(x, cfg, params).values
    z = x.values @ params.w_z
    weights = [params.filters[f"w{k + 1}"] for k in range(ks[-1])]

    def triplet() -> dict:
        times = {}
        for k in ks:
            t0 = time.perf_counter()
            blocks.generalized_forward(a, z, weights[:k])
            times[k] = time.perf_counter() - t0
        return times

    triplet()  # warm-up
    runs = [triplet() for _ in range(BENCH_TRIPLETS)]
    per_order = {k: [t[k] for t in runs] for k in ks}
    if len(ks) < 3:
        return per_order, None
    return per_order, float(np.median([_increment_ratio(t, ks) for t in runs]))


def _counts(flag: str, text: str) -> list[int]:
    """The comma-separated integers of a flag, each at least 1."""
    try:
        values = [int(s) for s in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated integers, got {text!r}") from None
    if min(values) < 1:
        raise ConfigError(f"{flag} values must be at least 1, got {text!r}")
    return values


def _cmd_bench(args) -> int:
    sizes = _counts("--sizes", args.sizes)
    orders = _counts("--orders", args.orders)
    rng = np.random.default_rng(0)
    rows = ["variant,n,order,seconds"]

    def record(label, n, order, times, what) -> float:
        q1, t, q3 = np.percentile(times, [25, 50, 75])
        rows.append(f"{label},{n},{order},{t:.6f}")
        print(f"{label:<14} N={n:<6} {what}  {t:.4f}s  IQR {q3 - q1:.4f}s")
        return t

    # first, while the process is fresh: the step's faults would otherwise
    # depend on what the larger rows left in the allocator
    step_times, step_faults, tape = _bench_train_step()
    record("train_step", harness.GRID * harness.GRID, 2, step_times, "B=32")
    print(f"train_step minor page faults per step: {step_faults:.1f}, kernel MiB per step: "
          f"{tape.m.nbytes / 2**20:.2f}")
    record("evaluate", harness.GRID * harness.GRID, 2, _bench_evaluate(),
           f"512 samples, B={harness.EVAL_CHUNK}")
    for variant in blocks.VARIANTS:
        for n in sizes:
            order = 2 if variant != "CHEB_K" else orders[0]
            record(variant, n, order, _bench_once(variant, n, order, rng), f"K={order}")
    # at the largest N, each variant's forward + backward; CHEB_K's come
    # per order below
    n_fixed = max(sizes)
    for variant in blocks.VARIANTS:
        if variant != "CHEB_K":
            record(f"{variant}_fwd_bwd", n_fixed, 2,
                   _bench_once(variant, n_fixed, 2, rng, backward=True), "K=2")
    # cost growth in K at the largest N guards against materializing A^k:
    # the filter alone, which the gate reads, and the block forward +
    # backward, where the other stages hide most of the filter's growth
    ks = sorted(set(orders))
    filter_times, growth = _filter_scaling(n_fixed, ks, rng)
    for order in ks:
        record("CHEB_K_filter", n_fixed, order, filter_times[order], f"K={order}")
    times = {order: record("CHEB_K_fwd_bwd", n_fixed, order,
                           _bench_once("CHEB_K", n_fixed, order, rng, backward=True), f"K={order}")
             for order in ks}
    # the two oracle commands end to end: every gradcheck case (3x3 grid,
    # CHEB_K order 3) at seed 0, and every verify group, whose sizes vary
    # (n and order 0)
    record("gradcheck", 9, 3, _seconds(
        lambda: list(_gradcheck_cases(blocks.VARIANTS, 0, GRADCHECK_TOL))), "all cases")
    record("verify", 0, 0, _seconds(verify.run_verify), "all groups")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_lines(os.path.join(args.out, "bench.csv"), rows)
    if growth is None:
        print("K-scaling: the increment ratio needs three orders")
        return 0
    print(f"CHEB_K_fwd_bwd K-scaling: increment ratio {_increment_ratio(times, ks):.2f} "
          f"(1.0 is linear)")
    print(f"CHEB_K_filter K-scaling: median increment ratio over {BENCH_TRIPLETS} "
          f"triplets {growth:.2f} (1.0 is linear, limit {CHEB_GROWTH_LIMIT})")
    if growth > CHEB_GROWTH_LIMIT:
        print(f"error: CHEB_K filter time grows faster than linearly in K "
              f"({growth:.2f} > {CHEB_GROWTH_LIMIT})", file=sys.stderr)
        return 1
    return 0


def _seed(text: str) -> int:
    """A --seed value; NumPy's generators take non-negative integers only."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: building it takes about
    20 times as long as a parse, and ``parse_args`` keeps no state between
    calls, so every ``run`` shares it."""
    parser = argparse.ArgumentParser(
        prog="snl",
        description="Spectral-view nonlocal blocks: verification, training, export",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--filter", default=None, help="only groups containing this substring")
    p.add_argument("--out", default=None, help="directory for verify.csv")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("--variant", default=None, help="check a single variant")
    p.add_argument("--tol", type=float, default=GRADCHECK_TOL)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None, help="directory for gradcheck.csv")
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("train", help="train the toy network")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("export-attention", help="write attention rows as PGM heatmaps")
    p.add_argument("--input", required=True, help="feature matrix file (CSV or binary)")
    p.add_argument("--block", required=True, help="block config JSON file")
    p.add_argument("--positions", required=True, help="comma-separated cell indices")
    p.add_argument("--out", required=True)
    p.add_argument("--height", type=int, default=None, help="grid height (default: square)")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(fn=_cmd_export_attention)

    p = sub.add_parser(
        "bench", help="time block_forward and its backward per variant, one SNL "
                      "training step and one evaluate"
    )
    p.add_argument("--sizes", default="64,256,1024")
    p.add_argument("--orders", default="2,4,8")
    p.add_argument("--out", default=None, help="directory for bench.csv")
    p.set_defaults(fn=_cmd_bench)
    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SnlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
