"""Finite-difference oracle for the analytic block gradients.

``finite_diff`` builds every probe of one array, x + eps e_i and then
x - eps e_i for each entry i, as one stack and hands it to a batched loss
in one call. ``check_block_gradients`` validates its input and parameters
once, in a base ``block_forward_batch``, and then runs each array's probes
through the block core as (b, ...) stacks: an input probe stack shares the
parameters, and a parameter probe stack is set into a shallow copy of them
and broadcast against the shared input. A stack is split into chunks
whose (b, V, V) kernels hold at most 1 MiB, and never more than
``blocks.TILE_BYTES``; each probe's loss is summed over that probe's
output alone, so the differences are the ones a one-probe call per entry
gives, bit for bit.
"""

import copy
from dataclasses import dataclass
import functools

import numpy as np

from . import blocks
from .blocks import BlockConfig
from .errors import ConfigError, NumericError, ShapeError

# central-difference step of every gradient check
_EPS = 1e-5

# Most bytes of (b, V, V) kernels in one probe call. A full TILE_BYTES
# (32 MiB) call maps fresh pages each time, since it passes glibc's largest
# dynamic mmap threshold, which the probe path leaves unpinned: an SNL
# check on a 16x16 grid took 22,000 minor faults and 1.1-1.3 s, against
# 1,800 faults and 0.65 s with 1 MiB calls (0.73 s one probe per call).
_PROBE_CALL_BYTES = 1024 * 1024


@dataclass
class GradReport:
    """Per-parameter comparison of analytic vs finite-difference gradients."""

    parameter: str
    max_abs_error: float
    max_rel_error: float
    checked_entries: int
    passed: bool


def finite_diff(loss_fn, point: np.ndarray, eps: float) -> np.ndarray:
    """Central differences (f(x + eps e_i) - f(x - eps e_i)) / 2 eps of
    every entry i of ``point``.

    ``loss_fn`` takes the (2P, *point.shape) stack of probes of the P
    entries, x + eps e_i for each i in index order and then x - eps e_i in
    the same order, and returns their 2P losses. It is called once, and
    the stack holds 2P copies of the point. A non-finite loss raises
    ``NumericError`` naming the first entry whose probes gave one.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    point = np.asarray(point, dtype=np.float64)
    flat = point.ravel()
    n = flat.size
    probes = np.tile(flat, (2, n, 1))
    i = np.arange(n)
    probes[0, i, i] = flat + eps
    probes[1, i, i] = flat - eps
    losses = np.asarray(loss_fn(probes.reshape((2 * n,) + point.shape)), dtype=np.float64)
    if losses.shape != (2 * n,):
        raise ShapeError(f"loss of {2 * n} probes returned shape {losses.shape}")
    hi, lo = losses[:n], losses[n:]
    bad = np.flatnonzero(~(np.isfinite(hi) & np.isfinite(lo)))
    if bad.size:
        raise NumericError(f"loss is non-finite at perturbed entry {bad[0]}")
    return ((hi - lo) / (2.0 * eps)).reshape(point.shape)


# A central difference of a loss L carries round-off near u |L| / eps, with
# u the float64 machine epsilon. Nine seeds below 1000 failed under a fixed
# 1e-8 floor with errors of 0.5-1.0 times that estimate, on entries near
# 1e-7. Entries smaller than ROUNDOFF_MARGIN times the noise, over the
# tolerance, are judged against that floor rather than their own size, so
# an entry the differences cannot resolve does not fail the check.
ROUNDOFF_MARGIN = 10.0


def error_floor(loss_value: float, eps: float, tolerance: float) -> float:
    """Smallest denominator of the relative error for one gradient check."""
    noise = ROUNDOFF_MARGIN * np.finfo(np.float64).eps * abs(loss_value) / eps
    return max(1e-8, noise / tolerance)


def _rel_errors(analytic: np.ndarray, numeric: np.ndarray, floor: float) -> tuple[float, float]:
    abs_err = np.abs(analytic - numeric)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(abs_err)), float(np.max(abs_err / denom))


def check_block_gradients(
    cfg: BlockConfig,
    seed: int,
    tolerance: float = 1e-4,
    height: int = 3,
    width: int = 3,
) -> list[GradReport]:
    """Compare ``block_backward_batch``, reading the base forward's tapes,
    against central differences.

    Input and parameters are drawn from ``seed``; the scalar loss is the
    sum of squared block outputs. When the config freezes the affinity
    (backprop_affinity=False) the finite-difference loss holds A at its
    base-point value so both sides differentiate the same function. The
    relative error of each entry divides by at least ``error_floor`` of
    the base-point loss. ``tolerance`` must be finite and positive.
    """
    if not 0.0 < tolerance < np.inf:
        raise ConfigError(f"tolerance must be finite and positive, got {tolerance}")
    rng = np.random.default_rng(seed)
    n = height * width
    x = rng.normal(0.0, 0.7, size=(n, cfg.c_in))
    params = blocks.random_params(cfg, rng)

    y, tapes = blocks.block_forward_batch(x[None], height, width, cfg, params)
    frozen_a = None if cfg.backprop_affinity else blocks._affinity(tapes[0], cfg)
    budget = min(blocks.TILE_BYTES, _PROBE_CALL_BYTES)
    per_call = max(1, budget // (8 * blocks._vertices(cfg, n) ** 2))

    def losses(name: str, probes: np.ndarray) -> np.ndarray:
        """The loss of each probe of the input ("x") or of one parameter."""
        out = []
        for start in range(0, len(probes), per_call):
            chunk = probes[start:start + per_call]
            xv, p = x, copy.copy(params)  # shallow: only the probed array is replaced
            if name == "x":
                xv = chunk
            elif name in p.filters:
                p.filters = {**p.filters, name: chunk}
            else:
                setattr(p, name, chunk)
            xv = np.broadcast_to(xv, (len(chunk),) + x.shape)  # a view, no copy
            t = blocks._build_affinity(xv, height, width, cfg, p)
            a = blocks._affinity(t, cfg) if frozen_a is None else frozen_a
            ys = xv + blocks._filter(cfg, p, a, t.z_node, n)[0]
            # one row per probe: the row sums round as np.sum of each probe's
            # output alone does, and take one call for the chunk
            out.append(np.sum((ys ** 2).reshape(len(ys), -1), axis=1))
        return np.concatenate(out)

    grad_x, grad_params = blocks.block_backward_batch(tapes, cfg, params, 2.0 * y)
    analytic = {"x": grad_x[0], **grad_params}
    floor = error_floor(float(np.sum(y[0] ** 2)), _EPS, tolerance)
    reports = []
    for name, point in [("x", x), *params.items()]:
        numeric = finite_diff(functools.partial(losses, name), point, _EPS)
        abs_err, rel_err = _rel_errors(analytic[name], numeric, floor)
        reports.append(GradReport(name, abs_err, rel_err, point.size, rel_err <= tolerance))
    return reports


def format_report_table(reports: list[GradReport]) -> str:
    """Aligned text table, one row per parameter."""
    header = f"{'parameter':<10} {'max_abs':>12} {'max_rel':>12} {'entries':>8} {'status':>6}"
    lines = [header, "-" * len(header)]
    for r in reports:
        lines.append(
            f"{r.parameter:<10} {r.max_abs_error:>12.3e} {r.max_rel_error:>12.3e} "
            f"{r.checked_entries:>8d} {'pass' if r.passed else 'FAIL':>6}"
        )
    return "\n".join(lines)

