"""The five measured phases and the client that times their operations.

One client runs a closed loop: the next operation starts when the previous
one returns. A phase is a fixed cycle of operations; ``run.py`` steps the
phases of a workload in turns. Each operation's output is checked; a
raised ``SnlError`` or a failed check counts as a failed operation.
"""

from collections import defaultdict
import contextlib
from dataclasses import dataclass
import io
import time

import numpy as np

from snl import blocks, cli, graph, harness, spectral
from snl.blocks import BlockConfig
from snl.errors import SnlError
from snl.graph import FeatureMap

import closed_form

# --- train --------------------------------------------------------------------

# criterion-7 config: SNL, c_in=4, c_s=2, B=32, N=64 (8x8), lr 0.03, 512 samples
TRAIN_STEPS = 25
TRAIN_SAMPLES = 512
TASK_STEPS, TASK_EVAL_EVERY = 2000, 100
# final loss after 20 steps on the seed-0 dataset, recorded at the commit
# that added this benchmark
REFERENCE_SEED = 0
REFERENCE_STEPS = 20
REFERENCE_LOSS = 0.6947283614664882
REFERENCE_RTOL = 1e-9

# --- blocks -------------------------------------------------------------------

BLOCK_C_IN, BLOCK_C_S = 8, 4
# (label, variant, kernel, order, grid side); CGNL's flattened graph on a
# 16x16 grid has 256 * c_s = 1024 vertices, the same as the others
BLOCK_MIX = [
    ("NL", "NL", "exp_dot", 2, 32),
    ("NS", "NS", "exp_dot", 2, 32),
    ("A2", "A2", "exp_dot", 2, 32),
    ("A2_dot", "A2", "dot", 2, 32),
    ("CGNL", "CGNL", "exp_dot", 2, 16),
    ("CC", "CC", "exp_dot", 2, 32),
    ("SNL", "SNL", "exp_dot", 2, 32),
    ("SNL_A1", "SNL_A1", "exp_dot", 2, 32),
    ("SNL_A2", "SNL_A2", "exp_dot", 2, 32),
    ("CHEB_K2", "CHEB_K", "exp_dot", 2, 32),
    ("CHEB_K4", "CHEB_K", "exp_dot", 4, 32),
    ("CHEB_K8", "CHEB_K", "exp_dot", 8, 32),
]
CHEB_ORDERS = (2, 4, 8)
BLOCK_RTOL = 1e-9
# Filter time is linear in K when A^k is never formed: t(8) - t(4) equals
# 2 (t(4) - t(2)). The gate fails when the later increment is this much
# larger than linear growth predicts.
CHEB_GROWTH_LIMIT = 1.5

# --- oracle checks ------------------------------------------------------------

GRADCHECK_VARIANTS = blocks.VARIANTS
VERIFY_GROUPS = (
    "matmul-associativity", "jacobi-reconstruction", "affinity-row-stochastic",
    "expdot-positivity", "rw-sym-spectrum-match", "crisscross-rowsums",
    "laplacian-eigenvalue-bound", "gft-roundtrip", "spectral-equivalence",
    "chebyshev-basis-change", "filter-automorphism", "unification-table",
    "tied-weight-identities", "snl-symmetry", "block-equivariance",
    "block-output-shape",
)
# criterion 1: 50 cases, N cycling through SWEEP_SIZES, order k = i % 6 + 1
SWEEP_CASES = 50
SWEEP_SIZES = (8, 16, 32, 64)
SWEEP_RTOL = 1e-8


@dataclass
class Metric:
    """A timing built from per-operation median times.

    ``weights`` maps operation labels to how many of them one unit of the
    metric holds (one pass over the block mix is one of each variant; one
    oracle sweep is 13 cases at N=8, ...). A time metric is ``scale`` times
    the weighted sum of medians; a rate is ``scale`` divided by it.
    """

    unit: str
    scale: float
    weights: dict
    rate: bool = False

    def value(self, medians: dict) -> float:
        t = sum(w * medians[label] for label, w in self.weights.items())
        return self.scale / t if self.rate else self.scale * t


class Client:
    """Times operations and counts attempted and failed ones.

    In a traced run each operation runs twice, untraced and then traced,
    so the trace's cost shows as the difference between the two.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.samples = defaultdict(list)
        self.traced = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def attempt(self, label: str, fn, check, units: int = 1):
        """Run ``fn`` as operation ``label``; ``check(out)`` lists failures.

        A failed operation still leaves its time, so every metric can be
        computed and the run reports the failure instead of stopping.
        """
        t0 = time.perf_counter()
        try:
            out = fn()
            dt = time.perf_counter() - t0
            if self.recorder is not None:
                self.recorder.install()
                try:
                    t1 = time.perf_counter()
                    out = self.recorder.operation(label, fn)
                    self.traced[label].append(time.perf_counter() - t1)
                finally:
                    self.recorder.uninstall()
            problems = check(out)
        except SnlError as exc:
            dt = time.perf_counter() - t0
            out, problems = None, [f"{type(exc).__name__}: {exc}"] * units
        self.samples[label].append(dt)
        self.record(label, problems, units)
        return out

    def record(self, label: str, problems: list, units: int = 1) -> None:
        self.attempted += units
        self.failed += min(len(problems), units)
        self.problems.extend(f"{label}: {p}" for p in problems)


def _quiet_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


class Phase:
    """A fixed cycle of operations, run one operation per ``step``.

    ``min_steps`` operations cover every operation class the phase's
    metrics need, so a phase with a short time box still reports them.
    """

    name = ""

    def __init__(self, client: Client):
        self.client = client
        self.schedule = []
        self.done = 0

    @property
    def min_steps(self) -> int:
        return len(self.schedule)

    def step(self) -> None:
        self.schedule[self.done % len(self.schedule)]()
        self.done += 1

    def metrics(self) -> dict:
        """The phase's named metrics, by name."""
        raise NotImplementedError

    def task(self) -> dict:
        """Operations per unit of the phase's task, by label."""
        (metric,) = self.metrics().values()
        return metric.weights

    def warm(self) -> None:
        pass

    def final_check(self) -> None:
        pass


def _dataset(seed: int):
    return harness.gen_dataset(seed=seed, n_samples=TRAIN_SAMPLES, c=4, p=2, min_separation=5)


class Train(Phase):
    name = "train"

    def __init__(self, client: Client, seed: int):
        super().__init__(client)
        self.seed = seed
        self.data = _dataset(seed)
        self.first_history = None
        self.net = self.want = None
        self.schedule = [self._train_op, self._eval_op]

    def _train(self, data, seed, steps):
        net = harness.init_toynet(4, BlockConfig(variant="SNL", c_in=4, c_s=2), seed=seed)
        history = harness.train(net, data, steps=steps, lr=0.03, seed=seed,
                                batch_size=32, eval_every=steps)
        return net, history

    def warm(self) -> None:
        self._train(self.data, self.seed, 2)

    def _check_train(self, out) -> list:
        _, history = out
        if self.first_history is None:
            self.first_history = history
        if not all(np.isfinite(h["loss"]) for h in history):
            return ["non-finite loss"]
        if history != self.first_history:
            return ["history differs from the first run with the same seed"]
        return []

    def _train_op(self) -> None:
        out = self.client.attempt(
            "train", lambda: self._train(self.data, self.seed, TRAIN_STEPS), self._check_train
        )
        if out is not None:
            self.net, history = out
            self.want = (history[-1]["loss"], history[-1]["accuracy"])

    def _eval_op(self) -> None:
        if self.net is None:
            return
        net, want = self.net, self.want
        self.client.attempt(
            "eval", lambda: harness.evaluate(net, self.data),
            lambda got: [] if got == want else [f"evaluate {got} != train's {want}"],
        )

    def final_check(self) -> None:
        """Two runs on the reference seed: bit-identical and as recorded."""
        data = _dataset(REFERENCE_SEED)
        problems = []
        try:
            runs = [self._train(data, REFERENCE_SEED, REFERENCE_STEPS)[1] for _ in range(2)]
        except SnlError as exc:
            problems.append(f"{type(exc).__name__}: {exc}")
        else:
            loss = runs[0][-1]["loss"]
            if runs[0] != runs[1]:
                problems.append("two runs with one seed differ")
            if not abs(loss - REFERENCE_LOSS) <= REFERENCE_RTOL * REFERENCE_LOSS:
                problems.append(f"final loss {loss!r} != recorded {REFERENCE_LOSS!r}")
        self.client.record("train_reference", problems)

    def metrics(self) -> dict:
        # a train operation ends with one evaluate, the same call an eval
        # operation times; subtracting it leaves the SGD steps
        return {
            "train_steps_per_s": Metric("1/s", TRAIN_STEPS, {"train": 1, "eval": -1}, rate=True),
            "eval_samples_per_s": Metric("1/s", TRAIN_SAMPLES, {"eval": 1}, rate=True),
        }

    def task(self) -> dict:
        """The default ``snl train`` run: 2000 steps, an evaluation every 100."""
        runs = TASK_STEPS / TRAIN_STEPS
        return {"train": runs, "eval": TASK_STEPS / TASK_EVAL_EVERY - runs}


class Blocks(Phase):
    name = "blocks"

    def __init__(self, client: Client, seed: int):
        super().__init__(client)
        rng = np.random.default_rng(seed)
        self.cases = []
        for label, variant, kernel, order, side in BLOCK_MIX:
            cfg = BlockConfig(variant=variant, c_in=BLOCK_C_IN, c_s=BLOCK_C_S,
                              order=order, kernel=kernel)
            x = FeatureMap(side, side, BLOCK_C_IN,
                           rng.normal(size=(side * side, BLOCK_C_IN)))
            self.cases.append((label, cfg, x, blocks.random_params(cfg, rng)))
        self._want = {}
        self.cheb = {}
        for label, cfg, x, p in self.cases:
            if cfg.variant == "CHEB_K":
                a = closed_form.symmetric_normalized(
                    closed_form.affinity(x.values @ p.w_phi, x.values @ p.w_psi, cfg.kernel)
                )
                ws = [p.filters[f"w{k + 1}"] for k in range(cfg.order)]
                self.cheb[cfg.order] = (a, x.values @ p.w_z, ws)
        # the filter probes are short, so a K = 2, 4, 8 triplet follows
        # every variant
        for case in self.cases:
            self.schedule += [lambda c=case: self._fwd_op(*c), lambda c=case: self._fwd_bwd_op(*c),
                              self._cheb_triplet]

    def _reference(self, label, cfg, x, p) -> np.ndarray:
        if label not in self._want:
            self._want[label] = closed_form.block_output(
                cfg.variant, cfg.kernel, x.height, x.width, x.values,
                p.w_phi, p.w_psi, p.w_z, p.filters,
            )
        return self._want[label]

    def _check_output(self, label, cfg, x, p, y) -> list:
        err = closed_form.rel_error(y, self._reference(label, cfg, x, p))
        return [] if err <= BLOCK_RTOL else [f"rel error {err:.3e} vs closed form"]

    def warm(self) -> None:
        _, cfg, x, p = self.cases[6]
        y = blocks.block_forward(x, cfg, p)
        blocks.block_backward(x, cfg, p, y.values)

    def _fwd_op(self, label, cfg, x, p) -> None:
        self.client.attempt(
            f"fwd:{label}", lambda: blocks.block_forward(x, cfg, p),
            lambda y: self._check_output(label, cfg, x, p, y.values),
        )

    def _fwd_bwd_op(self, label, cfg, x, p) -> None:
        def fwd_bwd():
            y = blocks.block_forward(x, cfg, p)
            return y, blocks.block_backward(x, cfg, p, 2.0 * y.values)

        def check(out):
            y, (gx, grads) = out
            finite = np.all(np.isfinite(gx)) and all(np.all(np.isfinite(g)) for g in grads.values())
            return ([] if finite else ["non-finite gradient"]) + self._check_output(
                label, cfg, x, p, y.values
            )

        self.client.attempt(f"fwd_bwd:{label}", fwd_bwd, check)

    def _cheb_triplet(self) -> None:
        for k in CHEB_ORDERS:
            self._cheb_op(k)

    def _cheb_op(self, k: int) -> None:
        a, z, ws = self.cheb[k]
        key = f"cheb:k{k}"
        if key not in self._want:
            self._want[key] = closed_form.chebyshev_filter(
                a, z, {f"w{i + 1}": w for i, w in enumerate(ws)}
            )
        want = self._want[key]
        self.client.attempt(
            f"cheb_filter:k{k}", lambda: blocks.generalized_forward(a, z, ws),
            lambda f: [] if closed_form.rel_error(f, want) <= BLOCK_RTOL
            else ["CHEB_K filter differs from sum_k A^k Z W"],
        )

    def final_check(self) -> None:
        growth = cheb_growth(self.client.samples)
        problems = []
        if growth is None:
            problems.append("no CHEB_K filter timings")
        elif growth > CHEB_GROWTH_LIMIT:
            problems.append(f"CHEB_K filter time grows superlinearly in K (increment ratio "
                            f"{growth:.2f} > {CHEB_GROWTH_LIMIT})")
        self.client.record("cheb_k_scaling", problems)

    def metrics(self) -> dict:
        return {
            "block_fwd_ms": Metric("ms", 1e3, {f"fwd:{c[0]}": 1 for c in BLOCK_MIX}),
            "block_fwd_bwd_ms": Metric("ms", 1e3, {f"fwd_bwd:{c[0]}": 1 for c in BLOCK_MIX}),
        }

    def task(self) -> dict:
        """One forward pass and one forward+backward pass over the mix."""
        return {**self.metrics()["block_fwd_ms"].weights,
                **self.metrics()["block_fwd_bwd_ms"].weights}


def cheb_growth(samples) -> float | None:
    """Median over back-to-back K = 2, 4, 8 probes of (t8 - t4) / (2 (t4 - t2)).

    1.0 is linear growth. Each ratio compares three probes run one after
    another, so a slow spell of the host cancels out of it.
    """
    runs = [samples.get(f"cheb_filter:k{k}", []) for k in CHEB_ORDERS]
    ratios = [(t8 - t4) / (2.0 * (t4 - t2)) if t4 > t2 else float("inf")
              for t2, t4, t8 in zip(*runs)]
    return float(np.median(ratios)) if ratios else None


class Gradcheck(Phase):
    name = "gradcheck"

    def __init__(self, client: Client, seed: int):
        super().__init__(client)
        self.seed = seed
        self.schedule = [lambda v=v: self._op(v) for v in GRADCHECK_VARIANTS]

    def _run(self, variant):
        return _quiet_cli(["gradcheck", "--variant", variant, "--seed", str(self.seed)])

    def warm(self) -> None:
        self._run("A2")

    def _op(self, variant) -> None:
        def check(out):
            code, text = out
            lines = [ln for ln in text.splitlines() if ln.startswith(f"== {variant} ")]
            problems = [f"case failed ({ln})" for ln in lines if not ln.endswith(": pass")]
            if len(lines) != 2:
                problems.append(f"{len(lines)} case reports, want 2")
            if code != 0 and not problems:
                problems.append(f"exit code {code}")
            return problems

        self.client.attempt(f"gradcheck:{variant}", lambda: self._run(variant), check, units=2)

    def metrics(self) -> dict:
        return {"gradcheck_s": Metric("s", 1.0, {f"gradcheck:{v}": 1 for v in GRADCHECK_VARIANTS})}


class Verify(Phase):
    name = "verify"

    def __init__(self, client: Client, seed: int):
        super().__init__(client)
        self.schedule = [lambda g=g: self._op(g) for g in VERIFY_GROUPS]

    def warm(self) -> None:
        _quiet_cli(["verify", "--filter", "crisscross-rowsums"])

    def _op(self, group) -> None:
        def check(out):
            code, text = out
            if code != 0 or "1/1 invariant groups passed" not in text:
                return [f"exit code {code}: {text.strip()}"]
            return []

        self.client.attempt(f"verify:{group}", lambda: _quiet_cli(["verify", "--filter", group]),
                            check)

    def metrics(self) -> dict:
        return {"verify_s": Metric("s", 1.0, {f"verify:{g}": 1 for g in VERIFY_GROUPS})}


def sweep_weights() -> dict:
    """Cases per graph size in one criterion-1 sweep."""
    counts = {}
    for i in range(SWEEP_CASES):
        key = f"sweep:n{SWEEP_SIZES[i % len(SWEEP_SIZES)]}"
        counts[key] = counts.get(key, 0) + 1
    return counts


class Sweep(Phase):
    """Criterion 1: poly_filter_apply against spectral_oracle."""

    name = "sweep"
    # consecutive cases cycle through the sizes, so any four cover them all
    min_steps = len(SWEEP_SIZES)

    def __init__(self, client: Client, seed: int):
        super().__init__(client)
        rng = np.random.default_rng(seed)
        self.cases = []
        for i in range(SWEEP_CASES):
            n = SWEEP_SIZES[i % len(SWEEP_SIZES)]
            raw = graph.compute_affinity(rng.normal(0.0, 0.4, size=(n, 3)),
                                         rng.normal(0.0, 0.4, size=(n, 3)), "exp_dot")
            a = graph.normalize(graph.symmetrize(raw), "symmetric")
            self.cases.append((n, a, rng.normal(size=(n, 2)), rng.normal(size=i % 6 + 1)))
        self.schedule = [lambda c=c: self._op(*c) for c in self.cases]

    def _case(self, a, z, theta):
        fast = spectral.poly_filter_apply(a, z, spectral.FilterSpec(order=theta.size, theta=theta))
        return fast, spectral.spectral_oracle(a, z, theta)

    def warm(self) -> None:
        self._case(*self.cases[0][1:])

    def _op(self, n, a, z, theta) -> None:
        def check(out):
            err = closed_form.rel_error(*out)
            return [] if err <= SWEEP_RTOL else [f"rel error {err:.3e} > {SWEEP_RTOL:g}"]

        self.client.attempt(f"sweep:n{n}", lambda: self._case(a, z, theta), check)

    def metrics(self) -> dict:
        return {"oracle_sweep_s": Metric("s", 1.0, sweep_weights())}


PHASES = (Train, Blocks, Gradcheck, Verify, Sweep)
