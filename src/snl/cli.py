"""Command-line entry point: verification, gradient checks, toy training,
attention export, and benchmarking.

Exit codes: 0 = success, 1 = a verification/gradcheck suite failed,
2 = usage or configuration error.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from . import blocks, gradcheck, graph, harness, linalg, verify
from .blocks import BlockConfig
from .errors import ConfigError, SnlError
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


def _cmd_gradcheck(args) -> int:
    variants = [args.variant] if args.variant else list(blocks.VARIANTS)
    for v in variants:
        if v not in blocks.VARIANTS:
            raise ConfigError(f"unknown variant {v!r}")
    all_pass = True
    csv_rows = ["variant,backprop_affinity,parameter,max_abs_error,max_rel_error,checked_entries,passed"]
    for variant in variants:
        for backprop in (False, True):
            cfg = BlockConfig(
                variant=variant, c_in=4, c_s=2, order=3, backprop_affinity=backprop
            )
            reports = gradcheck.check_block_gradients(cfg, args.seed, args.tol)
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


_TRAIN_KEYS = {"block", "dataset", "steps", "lr", "batch_size", "eval_every"}
_DATASET_KEYS = {"n_samples", "channels", "patterns", "min_separation", "noise"}


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
    unknown = set(cfg) - _TRAIN_KEYS
    if unknown:
        raise ConfigError(f"unknown train config keys: {sorted(unknown)}")
    ds = cfg.get("dataset", {})
    unknown = set(ds) - _DATASET_KEYS
    if unknown:
        raise ConfigError(f"unknown dataset config keys: {sorted(unknown)}")
    return cfg


def _cmd_train(args) -> int:
    cfg = load_train_config(args.config)
    ds_cfg = cfg.get("dataset", {})
    block_cfg = None
    if cfg.get("block") is not None:
        block_cfg = BlockConfig.from_dict(cfg["block"])
    channels = ds_cfg.get("channels", 4)
    data = harness.gen_dataset(
        seed=args.seed,
        n_samples=ds_cfg.get("n_samples", 512),
        c=channels,
        p=ds_cfg.get("patterns", 2),
        min_separation=ds_cfg.get("min_separation", 5),
        noise=ds_cfg.get("noise", 0.01),
    )
    net = harness.init_toynet(channels, block_cfg, seed=args.seed)
    history = harness.train(
        net,
        data,
        steps=cfg.get("steps", 2000),
        lr=cfg.get("lr", 0.03),
        seed=args.seed,
        batch_size=cfg.get("batch_size", 32),
        eval_every=cfg.get("eval_every", 100),
    )
    os.makedirs(args.out, exist_ok=True)
    _write_lines(os.path.join(args.out, "metrics.csv"), harness.history_to_csv_rows(history))
    final = history[-1]
    print(f"final step {final['step']}: loss {final['loss']:.6f}, "
          f"accuracy {final['accuracy']:.4f}")
    return 0


def _grid_dims(n: int, height: int | None) -> tuple[int, int]:
    if height is not None:
        if n % height != 0:
            raise ConfigError(f"height {height} does not divide N = {n}")
        return height, n // height
    side = int(round(np.sqrt(n)))
    if side * side != n:
        raise ConfigError(f"N = {n} is not square; pass --height")
    return side, side


def _cmd_export_attention(args) -> int:
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
    positions = [int(p) for p in args.positions.split(",") if p.strip()]
    if not positions:
        raise ConfigError("no positions given")
    os.makedirs(args.out, exist_ok=True)
    for pos in positions:
        if not 0 <= pos < n:
            raise ConfigError(f"position {pos} outside grid of {n} cells")
        image = graph.heatmap_image(affinity.values[pos], h, w)
        graph.write_pgm(image, os.path.join(args.out, f"attention_{pos:04d}.pgm"))
    print(f"wrote {len(positions)} heatmaps to {args.out}")
    return 0


BENCH_REPEATS = 5


def _median_seconds(fn) -> float:
    """Median wall time of BENCH_REPEATS calls after one warm-up call."""
    fn()
    times = []
    for _ in range(BENCH_REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def _bench_once(variant: str, n: int, order: int, rng) -> float:
    c_in, c_s = 8, 4
    if variant == "CGNL" and n * c_s > blocks.CGNL_MAX_VERTICES:
        return float("nan")
    height, width = _grid_dims(n, None)
    cfg = BlockConfig(variant=variant, c_in=c_in, c_s=c_s, order=order)
    x = FeatureMap(height, width, c_in, rng.normal(0, 0.2, size=(n, c_in)))
    params = blocks.random_params(cfg, rng)
    return _median_seconds(lambda: blocks.block_forward(x, cfg, params))


def _bench_train_step() -> float:
    """One SGD step of the toy net with an SNL block: B=32, N=64, c_s=2."""
    data = harness.gen_dataset(seed=0, n_samples=32, c=4)
    net = harness.init_toynet(4, BlockConfig(variant="SNL", c_in=4, c_s=2), seed=0)
    values = np.stack([fm.values for fm, _ in data.samples])
    labels = np.array([label for _, label in data.samples])
    velocity = {name: np.zeros_like(p) for name, p in net.parameters()}
    # lr 0 keeps the weights, so every repeat does the same work
    return _median_seconds(
        lambda: harness._sgd_step(net, velocity, values, labels, 0.0, 0.9, step=1)
    )


def _cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    orders = [int(k) for k in args.orders.split(",")]
    rng = np.random.default_rng(0)
    rows = ["variant,n,order,seconds"]
    for variant in blocks.VARIANTS:
        for n in sizes:
            order = 2 if variant != "CHEB_K" else orders[0]
            t = _bench_once(variant, n, order, rng)
            rows.append(f"{variant},{n},{order},{t:.6f}")
            print(f"{variant:<8} N={n:<6} K={order}  {t:.4f}s")
    t = _bench_train_step()
    rows.append(f"train_step,{harness.GRID * harness.GRID},2,{t:.6f}")
    print(f"train_step N={harness.GRID * harness.GRID:<6} B=32  {t:.4f}s")
    # cost growth in K at fixed N guards against materializing A^k
    n_fixed = sizes[0]
    times = {}
    for order in orders:
        t = _bench_once("CHEB_K", n_fixed, order, rng)
        times[order] = t
        rows.append(f"CHEB_K,{n_fixed},{order},{t:.6f}")
        print(f"CHEB_K   N={n_fixed:<6} K={order}  {t:.4f}s")
    lo, hi = min(orders), max(orders)
    if times[lo] > 0:
        print(f"CHEB_K K-scaling: t(K={hi})/t(K={lo}) = {times[hi] / times[lo]:.2f} "
              f"(linear would be ~{hi / lo:.1f})")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_lines(os.path.join(args.out, "bench.csv"), rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="directory for gradcheck.csv")
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("train", help="train the toy network")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("export-attention", help="write attention rows as PGM heatmaps")
    p.add_argument("--input", required=True, help="feature matrix file (CSV or binary)")
    p.add_argument("--block", required=True, help="block config JSON file")
    p.add_argument("--positions", required=True, help="comma-separated cell indices")
    p.add_argument("--out", required=True)
    p.add_argument("--height", type=int, default=None, help="grid height (default: square)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_export_attention)

    p = sub.add_parser(
        "bench", help="time block_forward per variant and one SNL training step"
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
