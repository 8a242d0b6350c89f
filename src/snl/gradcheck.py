"""Finite-difference oracle for the analytic block gradients.

``finite_diff`` builds the probes of one array, x + eps e_i and then
x - eps e_i for each entry i, as stacks of at most ``_PROBE_PART_BYTES``
and hands each to a batched loss. ``check_block_gradients`` validates its
input and parameters once, in a base ``block_forward_batch``, and then
takes the differences of the input and every parameter in one
``finite_diff`` call on them laid end to end: its loss cuts each probe
row back into the arrays and runs the probes through the block core's
stacked entry ``blocks._forward_stack`` with one set of parameters per
probe. The core builds each call's kernels as one stack, so a probe
stack is split into chunks whose (b, V, V) kernels hold at most
``_PROBE_CALL_BYTES`` (1 MiB): one core call per check on the CLI's 3x3
grid. Each probe's loss is summed over that probe's output alone, so the
differences are the ones a one-probe call per entry gives, bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from . import blocks
from .blocks import BlockConfig
from .errors import ConfigError, NumericError, ShapeError

# central-difference step of every gradient check
_EPS = 1e-5

# Most bytes of (b, V, V) kernels in one probe call; the block core
# builds a call's kernels as one stack, so this bound is the probe path's.
# A 32 MiB call maps fresh pages each time, since it passes glibc's
# largest dynamic mmap threshold, which the probe path leaves unpinned: an
# SNL check on a 16x16 grid took 22,000 minor faults and 1.1-1.3 s,
# against 1,800 faults and 0.65 s with 1 MiB calls (0.73 s one probe per
# call).
_PROBE_CALL_BYTES = 1024 * 1024


# Most bytes of one probe stack handed to the loss. The 2P probes of a
# P-entry array hold 16 P^2 bytes, so one stack of them all would grow as
# P^2: 16 MiB for a 16x16 grid's input (P = 1,024). Any array of at most
# 256 entries (an 8x8 grid of 4 channels) still goes in one part.
_PROBE_PART_BYTES = 1024 * 1024


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

    ``loss_fn`` takes a (b, *point.shape) stack of probes and returns
    their b losses. The 2P probes of the P entries, x + eps e_i for each i
    in index order and then x - eps e_i in the same order, go to it in
    that order in consecutive parts of at most ``_PROBE_PART_BYTES`` (at
    least one probe each). A non-finite loss raises ``NumericError``
    naming the first entry whose probes gave one, and a point with no
    entries ``ShapeError``.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    point = np.asarray(point, dtype=np.float64)
    flat = point.ravel()
    n = flat.size
    if n == 0:
        raise ShapeError(f"point of shape {point.shape} has no entries to perturb")
    per_part = max(1, _PROBE_PART_BYTES // (8 * n))
    # probe k bumps entry k mod n, by +eps for k < n and by -eps after
    bumped = np.concatenate([flat + eps, flat - eps])
    losses = []
    for start in range(0, 2 * n, per_part):
        k = np.arange(start, min(start + per_part, 2 * n))
        probes = np.tile(flat, (len(k), 1))
        probes[np.arange(len(k)), k % n] = bumped[k]
        part = np.asarray(loss_fn(probes.reshape((len(k),) + point.shape)), dtype=np.float64)
        if part.shape != (len(k),):
            raise ShapeError(f"loss of {len(k)} probes returned shape {part.shape}")
        losses.append(part)
    losses = np.concatenate(losses)
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
    """Compare ``block_backward_batch``, reading the base forward's tape,
    against central differences.

    Input and parameters are drawn from ``seed``; the scalar loss is the
    sum of squared block outputs. When the config freezes the affinity
    (backprop_affinity=False) the finite-difference loss holds A at its
    base-point value so both sides differentiate the same function, and
    the probes are only embedded and filtered: no probe builds a kernel. The
    relative error of each entry divides by at least ``error_floor`` of
    the base-point loss. ``tolerance`` must be finite and positive. A
    non-finite probe loss raises ``finite_diff``'s ``NumericError``, whose
    entry counts through x and then each array of ``params.items()``.
    """
    if not 0.0 < tolerance < np.inf:
        raise ConfigError(f"tolerance must be finite and positive, got {tolerance}")
    rng = np.random.default_rng(seed)
    n = height * width
    x = rng.normal(0.0, 0.7, size=(n, cfg.c_in))
    params = blocks.random_params(cfg, rng)

    y, tape = blocks.block_forward_batch(x[None], height, width, cfg, params)
    frozen_a = None if cfg.backprop_affinity else tape.a
    per_call = max(1, _PROBE_CALL_BYTES // (8 * blocks._vertices(cfg, n) ** 2))
    points = [("x", x), *params.items()]
    ends = np.cumsum([point.size for _, point in points])
    roles = list(params.filters)

    def losses(probes: np.ndarray) -> np.ndarray:
        """The loss of each probe, a row of the input and every parameter
        laid end to end in ``points`` order."""
        out = []
        for start in range(0, len(probes), per_call):
            chunk = probes[start:start + per_call]
            xv, w_phi, w_psi, w_z, *filters = (
                chunk[:, stop - point.size:stop].reshape((len(chunk),) + point.shape)
                for (_, point), stop in zip(points, ends))
            p = blocks._ParamStack(w_phi, w_psi, w_z, dict(zip(roles, filters)))
            ys, _ = blocks._forward_stack(xv, height, width, cfg, p, frozen_a)
            # one row per probe: the row sums round as np.sum of each probe's
            # output alone does, and take one call for the chunk
            out.append(np.sum((ys ** 2).reshape(len(ys), -1), axis=1))
        return np.concatenate(out)

    grad_x, grad_params = blocks.block_backward_batch(tape, cfg, params, 2.0 * y)
    analytic = {"x": grad_x[0], **grad_params}
    floor = error_floor(float(np.sum(y[0] ** 2)), _EPS, tolerance)
    numeric = finite_diff(losses, np.concatenate([point.ravel() for _, point in points]), _EPS)
    reports = []
    for (name, point), diffs in zip(points, np.split(numeric, ends[:-1])):
        abs_err, rel_err = _rel_errors(analytic[name], diffs.reshape(point.shape), floor)
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

