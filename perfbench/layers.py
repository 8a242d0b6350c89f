"""Per-layer metrics computed from a traced run's spans.

Times are in ms. Each metric is reduced the way its end-to-end metric is:
the median over the operations of one label, then summed over the
labels that make up one unit (a pass over the block mix, an oracle sweep,
a gradcheck over all variants). Counts are exact: the same code makes the
same calls on every run.
"""

import numpy as np

from phases import (
    BLOCK_MIX, CHEB_ORDERS, GRADCHECK_VARIANTS, TRAIN_STEPS, VERIFY_GROUPS, cheb_growth,
    sweep_weights,
)

# stages each block-mix entry runs, in the order the forward pass runs them
_STAGE_FUNCS = {
    "embed": ("blocks.embed",),
    "kernel": ("graph.kernel_matrix",),
    "symmetrize_mask": ("graph.symmetrize", "graph.crisscross_mask"),
    "normalize": ("graph.degrees", "graph.normalize"),
}
_STAGES = {
    "NL": ("embed", "kernel", "normalize"),
    "NS": ("embed", "kernel", "normalize"),
    "A2": ("embed", "kernel"),
    "A2_dot": ("embed", "kernel"),
    "CGNL": ("embed", "kernel", "normalize"),
    "CC": ("embed", "kernel", "symmetrize_mask", "normalize"),
    "SNL": ("embed", "kernel", "symmetrize_mask", "normalize"),
    "SNL_A1": ("embed", "kernel", "symmetrize_mask", "normalize"),
    "SNL_A2": ("embed", "kernel", "normalize"),
    "CHEB_K2": ("embed", "kernel", "symmetrize_mask", "normalize"),
    "CHEB_K4": ("embed", "kernel", "symmetrize_mask", "normalize"),
    "CHEB_K8": ("embed", "kernel", "symmetrize_mask", "normalize"),
}
TRACED_PHASES = ("train", "blocks", "gradcheck", "verify", "sweep")


def _metric_names() -> list:
    names = [
        ("harness.train.self_ms_per_step", "ms"),
        ("blocks.block_forward.calls_per_step", "count"),
        ("blocks.block_backward.calls_per_step", "count"),
        ("linalg.as_matrix.calls_per_step", "count"),
        ("linalg.matmul.calls_per_step", "count"),
        ("harness.evaluate.self_ms", "ms"),
        ("blocks.block_forward.calls_per_eval", "count"),
        ("blocks.block_forward.self_ms", "ms"),
        ("blocks.block_backward.self_ms", "ms"),
        ("blocks.embed.ms", "ms"),
        ("graph.kernel_matrix.calls_per_pass", "count"),
        ("graph.kernel_matrix.ms", "ms"),
        ("graph.symmetrize.ms", "ms"),
        ("graph.degrees.ms", "ms"),
        ("graph.normalize.ms", "ms"),
        ("graph.crisscross_mask.ms", "ms"),
        ("linalg.as_matrix.calls_per_pass", "count"),
        ("linalg.matmul.calls", "count"),
        ("linalg.matmul.ms", "ms"),
        ("linalg.matmul.ms_per_sweep", "ms"),
        ("linalg.jacobi_eigh.ms", "ms"),
        ("spectral.spectral_oracle.self_ms", "ms"),
        ("spectral.poly_filter_apply.ms", "ms"),
        ("gradcheck.finite_diff.self_ms", "ms"),
        ("gradcheck.finite_diff.loss_evals", "count"),
        ("cli.run.self_ms", "ms"),
    ]
    for label, stages in _STAGES.items():
        for stage in stages + ("filter", "backward"):
            names.append((f"stage.{label}.{stage}_ms", "ms"))
    names += [(f"cheb.filter_ms.k{k}", "ms") for k in CHEB_ORDERS]
    names.append(("cheb.filter_growth", "ratio"))
    names += [(f"verify.{g}.ms", "ms") for g in VERIFY_GROUPS]
    names += [(f"trace.overhead_pct.{p}", "%") for p in TRACED_PHASES]
    return names


METRICS = _metric_names()


def _count(x: float):
    """Exact counts as integers, so that they compare equal across runs."""
    return int(round(x)) if abs(x - round(x)) < 1e-9 else x


def _median(v: np.ndarray) -> float:
    return float(np.median(v)) if v.size else 0.0


def compute(t, overhead: dict) -> dict:
    """Every per-layer metric from span table ``t``; ``overhead`` holds, per
    phase, how much longer its task takes traced than untraced, in %."""
    ms = 1e3

    def med(label, name, field="dur", mask=None) -> float:
        return _median(t.per_op(label, name, field, mask))

    def mix(prefix, name, field="dur") -> float:
        """Per pass over the block mix: ms, or a count for field="calls"."""
        total = sum(med(f"{prefix}:{c[0]}", name, field) for c in BLOCK_MIX)
        return _count(total) if field == "calls" else total * ms

    def per_pass(name) -> float:
        return _count(np.mean([med(f"fwd_bwd:{c[0]}", name, "calls") for c in BLOCK_MIX]))

    def sweep(name, field="dur") -> float:
        return sum(w * med(label, name, field) for label, w in sweep_weights().items()) * ms

    # SGD steps: inside harness.train but not its closing evaluate
    steps = t.under("harness.train") & ~t.under("harness.evaluate")

    def per_step(name):
        return _count(med("train", name, "calls", steps) / TRAIN_STEPS)

    out = {
        "harness.train.self_ms_per_step": med("train", "harness.train", "self") / TRAIN_STEPS * ms,
        "blocks.block_forward.calls_per_step": per_step("blocks.block_forward"),
        "blocks.block_backward.calls_per_step": per_step("blocks.block_backward"),
        "linalg.as_matrix.calls_per_step": per_step("linalg.as_matrix"),
        "linalg.matmul.calls_per_step": per_step("linalg.matmul"),
        "harness.evaluate.self_ms": med("eval", "harness.evaluate", "self") * ms,
        "blocks.block_forward.calls_per_eval": _count(med("eval", "blocks.block_forward", "calls")),
        "blocks.block_forward.self_ms": mix("fwd", "blocks.block_forward", "self"),
        "blocks.block_backward.self_ms": mix("fwd_bwd", "blocks.block_backward", "self"),
        "blocks.embed.ms": mix("fwd_bwd", "blocks.embed"),
        "graph.kernel_matrix.calls_per_pass": per_pass("graph.kernel_matrix"),
        "linalg.as_matrix.calls_per_pass": per_pass("linalg.as_matrix"),
        "linalg.matmul.calls": mix("fwd_bwd", "linalg.matmul", "calls"),
        "linalg.matmul.ms": mix("fwd_bwd", "linalg.matmul"),
        "linalg.matmul.ms_per_sweep": sweep("linalg.matmul"),
        "linalg.jacobi_eigh.ms": sweep("linalg.jacobi_eigh"),
        "spectral.spectral_oracle.self_ms": sweep("spectral.spectral_oracle", "self"),
        "spectral.poly_filter_apply.ms": sweep("spectral.poly_filter_apply"),
        "gradcheck.finite_diff.self_ms": sum(
            med(f"gradcheck:{v}", "gradcheck.finite_diff", "self") for v in GRADCHECK_VARIANTS
        ) * ms,
        "gradcheck.finite_diff.loss_evals": _count(sum(
            med(f"gradcheck:{v}", "gradcheck.finite_diff.loss_eval", "calls")
            for v in GRADCHECK_VARIANTS
        )),
    }
    for name in ("kernel_matrix", "symmetrize", "degrees", "normalize", "crisscross_mask"):
        out[f"graph.{name}.ms"] = mix("fwd_bwd", f"graph.{name}")

    out["cli.run.self_ms"] = _median(np.concatenate(
        [t.per_op(f"gradcheck:{v}", "cli.run", "self") for v in GRADCHECK_VARIANTS]
        + [t.per_op(f"verify:{g}", "cli.run", "self") for g in VERIFY_GROUPS]
    )) * ms

    for label, stages in _STAGES.items():
        # the filter stage is what the forward spends outside the other
        # stages, taken per operation so that it cannot go negative
        rest = t.per_op(f"fwd:{label}", "blocks.block_forward")
        for stage in stages:
            v = sum(t.per_op(f"fwd:{label}", f) for f in _STAGE_FUNCS[stage])
            out[f"stage.{label}.{stage}_ms"] = _median(v) * ms
            rest = rest - v
        out[f"stage.{label}.filter_ms"] = _median(rest) * ms
        out[f"stage.{label}.backward_ms"] = med(f"fwd_bwd:{label}", "blocks.block_backward") * ms

    cheb = {f"cheb_filter:k{k}": t.per_op(f"cheb_filter:k{k}", "blocks.generalized_forward")
            for k in CHEB_ORDERS}
    for k in CHEB_ORDERS:
        out[f"cheb.filter_ms.k{k}"] = _median(cheb[f"cheb_filter:k{k}"]) * ms
    out["cheb.filter_growth"] = cheb_growth({k: list(v) for k, v in cheb.items()}) or 0.0

    for g in VERIFY_GROUPS:
        out[f"verify.{g}.ms"] = med(f"verify:{g}", "verify.run_verify") * ms
    for p in TRACED_PHASES:
        out[f"trace.overhead_pct.{p}"] = overhead[p]
    return {name: (out[name], unit) for name, unit in METRICS}
