"""Finite-difference oracle for the analytic block gradients.

``finite_diff`` probes one entry at a time in a plain loop: each probe is
two small block forwards, too short for threads to pay for their start-up
and hand-off under the interpreter lock.
"""

from dataclasses import dataclass

import numpy as np

from . import blocks
from .blocks import BlockConfig, BlockParams
from .errors import NumericError
from .graph import FeatureMap


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
    eps: float = 1e-5,
    height: int = 3,
    width: int = 3,
) -> list[GradReport]:
    """Compare ``block_backward`` against central differences.

    Input and parameters are drawn from ``seed``; the scalar loss is the
    sum of squared block outputs. When the config freezes the affinity
    (backprop_affinity=False) the finite-difference loss holds A at its
    base-point value so both sides differentiate the same function. The
    relative error of each entry divides by at least ``error_floor`` of
    the base-point loss.
    """
    rng = np.random.default_rng(seed)
    n = height * width
    x = FeatureMap(height, width, cfg.c_in, rng.normal(0.0, 0.7, size=(n, cfg.c_in)))
    params = blocks.random_params(cfg, rng)

    frozen_a = None
    if not cfg.backprop_affinity:
        frozen_a = blocks.build_block_affinity(x, cfg, params)

    def forward(x_values: np.ndarray, p: BlockParams) -> np.ndarray:
        fm = FeatureMap(height, width, cfg.c_in, x_values)
        if frozen_a is None:
            return blocks.block_forward(fm, cfg, p).values
        st = blocks._affinity_state(fm, cfg, p)
        st.a = frozen_a
        f = blocks._operator_forward(fm, cfg, p, st)
        return x_values + f

    def loss(x_values: np.ndarray, p: BlockParams) -> float:
        return float(np.sum(forward(x_values, p) ** 2))

    y = forward(x.values, params)
    grad_x, grad_params = blocks.block_backward(x, cfg, params, 2.0 * y)
    floor = error_floor(float(np.sum(y**2)), eps, tolerance)

    reports = []

    def add(name: str, analytic: np.ndarray, loss_fn) -> None:
        numeric = finite_diff(loss_fn, _current[name], eps)
        abs_err, rel_err = _rel_errors(analytic, numeric, floor)
        reports.append(
            GradReport(name, abs_err, rel_err, analytic.size, rel_err <= tolerance)
        )

    _current = {"x": x.values}
    add("x", grad_x, lambda v: loss(v, params))

    for name, mat in params.items():
        _current[name] = mat

        def loss_at(v, _name=name):
            filters = dict(params.filters)
            proj = {"w_phi": params.w_phi, "w_psi": params.w_psi, "w_z": params.w_z}
            if _name in proj:
                proj[_name] = v
            else:
                filters[_name] = v
            p = BlockParams(proj["w_phi"], proj["w_psi"], proj["w_z"], filters)
            return loss(x.values, p)

        add(name, grad_params[name], loss_at)
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


def reports_to_csv_rows(reports: list[GradReport]) -> list[str]:
    rows = ["parameter,max_abs_error,max_rel_error,checked_entries,passed"]
    for r in reports:
        rows.append(
            f"{r.parameter},{r.max_abs_error:.17g},{r.max_rel_error:.17g},"
            f"{r.checked_entries},{int(r.passed)}"
        )
    return rows
