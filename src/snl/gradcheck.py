"""Finite-difference oracle for the analytic block gradients.

Every probe is one forward on the batched core, ``block_forward_batch``,
which checks its own input; a parameter probe swaps one array into a
shallow copy of the parameters, which are validated once per check.
``finite_diff`` probes one entry at a time in a plain loop: each probe is
two small block forwards, too short for threads to pay for their start-up
and hand-off under the interpreter lock.
"""

import copy
from dataclasses import dataclass
import functools

import numpy as np

from . import blocks
from .blocks import BlockConfig
from .errors import ConfigError, NumericError

# central-difference step of every gradient check
_EPS = 1e-5


@dataclass
class GradReport:
    """Per-parameter comparison of analytic vs finite-difference gradients."""

    parameter: str
    max_abs_error: float
    max_rel_error: float
    checked_entries: int
    passed: bool


def finite_diff(scalar_loss_fn, point: np.ndarray, eps: float) -> np.ndarray:
    """Central differences (f(x+eps e) - f(x-eps e)) / 2 eps, entrywise,
    probing the entries one after another in index order."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    point = np.asarray(point, dtype=np.float64)
    flat = point.ravel()
    out = np.zeros_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + eps
        hi = scalar_loss_fn(bumped.reshape(point.shape))
        bumped[i] = flat[i] - eps
        lo = scalar_loss_fn(bumped.reshape(point.shape))
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NumericError(f"loss is non-finite at perturbed entry {i}")
        out[i] = (hi - lo) / (2.0 * eps)
    return out.reshape(point.shape)


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

    def loss(name: str, value: np.ndarray) -> float:
        """The loss with the input ("x") or one parameter set to ``value``."""
        xv, p = x, copy.copy(params)  # shallow: no array is checked again
        if name == "x":
            xv = value
        elif name in p.filters:
            p.filters = {**p.filters, name: value}
        else:
            setattr(p, name, value)
        out, ts = blocks.block_forward_batch(xv[None], height, width, cfg, p)
        if frozen_a is not None:
            out = xv + blocks._filter(cfg, p, frozen_a, ts[0].z_node, n)[0]
        return float(np.sum(out[0] ** 2))

    grad_x, grad_params = blocks.block_backward_batch(tapes, cfg, params, 2.0 * y)
    analytic = {"x": grad_x[0], **grad_params}
    floor = error_floor(float(np.sum(y[0] ** 2)), _EPS, tolerance)
    reports = []
    for name, point in [("x", x), *params.items()]:
        numeric = finite_diff(functools.partial(loss, name), point, _EPS)
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

