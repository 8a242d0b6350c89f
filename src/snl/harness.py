"""Desk-scale demonstration that nonlocal aggregation captures long-range
dependencies.

The task: an 8x8 grid carries two marked cells at Chebyshev distance >= 5,
each holding one of P orthogonal unit patterns; the label says whether the
patterns match. A 3x3-conv baseline cannot relate the two cells, a net
with a nonlocal block inserted after the conv can.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import blocks
from .blocks import BlockConfig, BlockParams
from .errors import ConfigError, DivergenceError

GRID = 8  # fixed 8x8 grid, N = 64


@dataclass
class PairedPatchDataset:
    values: np.ndarray  # (S, N, C) samples on the GRID x GRID grid
    labels: np.ndarray  # (S,) 1 where the two marked patterns match, else 0


def _cheb_distance(i: int, j: int) -> int:
    r1, c1 = divmod(i, GRID)
    r2, c2 = divmod(j, GRID)
    return max(abs(r1 - r2), abs(c1 - c2))


def gen_dataset(
    seed: int,
    n_samples: int = 512,
    c: int = 4,
    p: int = 2,
    min_separation: int = 5,
    noise: float = 0.01,
) -> PairedPatchDataset:
    """Balanced paired-patch samples on the fixed 8x8 grid.

    Patterns are the first ``p`` standard basis vectors of R^c (orthogonal,
    unit norm); background cells carry small Gaussian noise.
    """
    if n_samples < 1:
        raise ConfigError(f"need at least 1 sample, got {n_samples}")
    if not noise >= 0:
        raise ConfigError(f"noise must be >= 0, got {noise}")
    if p < 2:
        raise ConfigError(f"need at least 2 patterns, got {p}")
    if p > c:
        raise ConfigError(f"cannot fit {p} orthogonal patterns in {c} channels")
    if min_separation > GRID - 1:
        raise ConfigError(
            f"min_separation {min_separation} impossible on an {GRID}x{GRID} grid"
        )
    rng = np.random.default_rng(seed)
    patterns = np.eye(c)[:p]
    n = GRID * GRID
    labels = np.zeros(n_samples, dtype=int)
    labels[: n_samples // 2] = 1
    rng.shuffle(labels)

    values = np.empty((n_samples, n, c))
    for sample, label in zip(values, labels):
        sample[:] = rng.normal(0.0, noise, size=(n, c))
        while True:
            i, j = rng.integers(0, n, size=2)
            if _cheb_distance(int(i), int(j)) >= min_separation:
                break
        if label == 1:
            k1 = k2 = int(rng.integers(0, p))
        else:
            k1, k2 = rng.choice(p, size=2, replace=False)
        sample[i] = patterns[k1]
        sample[j] = patterns[k2]
    return PairedPatchDataset(values, labels)


# --- tiny network -------------------------------------------------------------


@dataclass
class ToyNet:
    """3x3 conv front, optional nonlocal block, GAP + linear head."""

    conv_w: np.ndarray  # (9*C, C)
    conv_b: np.ndarray  # (C,)
    head_w: np.ndarray  # (C, 2)
    head_b: np.ndarray  # (2,)
    block_cfg: BlockConfig | None = None
    block_params: BlockParams | None = None

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        out = [
            ("conv_w", self.conv_w),
            ("conv_b", self.conv_b),
            ("head_w", self.head_w),
            ("head_b", self.head_b),
        ]
        if self.block_params is not None:
            out.extend((f"block.{n}", m) for n, m in self.block_params.items())
        return out


def init_toynet(c: int, block_cfg: BlockConfig | None, seed: int) -> ToyNet:
    # High-gain conv init: pairwise scores between marked cells must be O(1)
    # at initialization or the attention starts uniform and the block cannot
    # bootstrap within a few thousand SGD steps.
    rng = np.random.default_rng(seed)
    conv_bound = 24.0 / np.sqrt(9 * c)
    head_bound = 2.0 / np.sqrt(c)
    net = ToyNet(
        conv_w=rng.uniform(-conv_bound, conv_bound, size=(9 * c, c)),
        conv_b=np.zeros(c),
        head_w=rng.uniform(-head_bound, head_bound, size=(c, 2)),
        head_b=np.zeros(2),
        block_cfg=block_cfg,
    )
    if block_cfg is not None:
        if block_cfg.c_in != c:
            raise ConfigError(f"block c_in {block_cfg.c_in} != net channels {c}")
        net.block_params = blocks.init_params(block_cfg, rng)
    return net


def _forward_batch(net: ToyNet, batch_values: np.ndarray) -> dict:
    """Forward pass on stacked samples (B, N, C); returns intermediates.

    The block runs once on the whole stack; its tapes stay in the returned
    dict for ``_backward_batch``.
    """
    b, n, c = batch_values.shape
    padded = np.pad(batch_values.reshape(b, GRID, GRID, c), ((0, 0), (1, 1), (1, 1), (0, 0)))
    # (b, row, col, c, 3, 3) windows, laid out as conv_w's rows: (dy, dx, channel)
    windows = sliding_window_view(padded, (3, 3), axis=(1, 2))
    patches = windows.transpose(0, 1, 2, 4, 5, 3).reshape(b, n, 9 * c)
    act = patches @ net.conv_w + net.conv_b
    tapes = None
    if net.block_cfg is not None:
        blocked, tapes = blocks.block_forward_batch(act, GRID, GRID, net.block_cfg, net.block_params)
    else:
        blocked = act
    pooled = blocked.mean(axis=1)
    logits = pooled @ net.head_w + net.head_b
    return {
        "patches": patches,
        "act": act,
        "tapes": tapes,
        "pooled": pooled,
        "logits": logits,
    }


def _softmax_ce(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    b = logits.shape[0]
    nll = -np.log(probs[np.arange(b), labels] + 1e-300)
    dlogits = probs.copy()
    dlogits[np.arange(b), labels] -= 1.0
    return float(nll.mean()), dlogits / b


def _backward_batch(net: ToyNet, state: dict, dlogits: np.ndarray) -> dict:
    """Gradients of the mean batch loss for every parameter, by name.

    The batch reductions happen here and in the block: head and conv
    gradients are single products over the stacked batch, and
    ``blocks.block_backward_batch`` sums the block's per-sample gradients
    in sample order. Every reduction runs in a fixed order, so a training
    run is bit-identical across repeats.
    """
    b, n, c = state["act"].shape
    grads = {
        "head_w": state["pooled"].T @ dlogits,
        "head_b": dlogits.sum(axis=0),
    }
    g_pooled = dlogits @ net.head_w.T
    g_blocked = np.repeat(g_pooled[:, None, :], n, axis=1) / n
    if net.block_cfg is not None:
        g_act, block_grads = blocks.block_backward_batch(
            state["tapes"], net.block_cfg, net.block_params, g_blocked
        )
        grads.update((f"block.{name}", mat) for name, mat in block_grads.items())
    else:
        g_act = g_blocked
    grads["conv_w"] = state["patches"].reshape(b * n, -1).T @ g_act.reshape(b * n, c)
    grads["conv_b"] = g_act.sum(axis=(0, 1))
    return grads


MOMENTUM = 0.9


def _sgd_step(net: ToyNet, velocity: dict, values: np.ndarray, labels: np.ndarray,
              lr: float, step: int) -> None:
    """One momentum-SGD step on a batch (one block call forward, one back)."""
    state = _forward_batch(net, values)
    loss, dlogits = _softmax_ce(state["logits"], labels)
    if not np.isfinite(loss):
        raise DivergenceError(step)
    grads = _backward_batch(net, state, dlogits)
    for name, param in net.parameters():
        v = velocity[name]
        v *= MOMENTUM
        v += grads[name]
        param -= lr * v


# A diverging run overflows to inf and then NaN inside the forward pass;
# the finite-loss checks turn that into DivergenceError, so NumPy's own
# overflow and invalid-value warnings are silenced for train and evaluate.
DIVERGENCE_ERRSTATE = {"over": "ignore", "invalid": "ignore"}

# Evaluation runs in chunks of the default training batch, so the kernels
# one forward pass keeps (32 x 64 x 64 float64 at N = 64) stay near 1 MiB,
# as in a training step.
EVAL_CHUNK = 32


def evaluate(net: ToyNet, data: PairedPatchDataset) -> tuple[float, float]:
    """Mean cross-entropy and accuracy over the full dataset, EVAL_CHUNK
    samples per forward pass."""
    values, labels = data.values, data.labels
    total_nll = 0.0
    correct = 0
    with np.errstate(**DIVERGENCE_ERRSTATE):
        for start in range(0, len(labels), EVAL_CHUNK):
            sl = slice(start, start + EVAL_CHUNK)
            state = _forward_batch(net, values[sl])
            loss, _ = _softmax_ce(state["logits"], labels[sl])
            total_nll += loss * len(labels[sl])
            correct += int(np.sum(np.argmax(state["logits"], axis=1) == labels[sl]))
    return total_nll / len(labels), correct / len(labels)


def train(
    net: ToyNet,
    data: PairedPatchDataset,
    *,
    seed: int,
    steps: int = 2000,
    lr: float = 0.03,
    batch_size: int = 32,
    eval_every: int = 100,
) -> list[dict]:
    """Plain minibatch SGD with momentum on cross-entropy.

    Deterministic given (net, data, seed): each step is one batched block
    forward and backward, and every sum over the batch runs in a fixed
    order (see ``_backward_batch``). Returns the metrics history as a
    list of {"step", "loss", "accuracy"} rows evaluated on the full
    training set every ``eval_every`` steps and at the final step. The
    defaults are those of ``snl train`` for keys its config leaves out.
    """
    if not lr >= 0:
        raise ConfigError(f"learning rate must be >= 0, got {lr}")
    for name, count in (("steps", steps), ("batch_size", batch_size), ("eval_every", eval_every)):
        if count < 1:
            raise ConfigError(f"{name} must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    values, labels = data.values, data.labels
    n_samples = len(labels)
    batch_size = min(batch_size, n_samples)

    velocity = {k: np.zeros_like(v) for k, v in net.parameters()}

    order = rng.permutation(n_samples)
    cursor = 0
    history = []
    with np.errstate(**DIVERGENCE_ERRSTATE):
        for step in range(1, steps + 1):
            if cursor + batch_size > n_samples:
                order = rng.permutation(n_samples)
                cursor = 0
            idx = order[cursor : cursor + batch_size]
            cursor += batch_size

            _sgd_step(net, velocity, values[idx], labels[idx], lr, step)

            if step % eval_every == 0 or step == steps:
                full_loss, acc = evaluate(net, data)
                if not np.isfinite(full_loss):
                    raise DivergenceError(step)
                history.append({"step": step, "loss": full_loss, "accuracy": acc})
    return history


def history_to_csv_rows(history: list[dict]) -> list[str]:
    rows = ["step,loss,accuracy"]
    for h in history:
        rows.append(f"{h['step']},{h['loss']:.17g},{h['accuracy']:.17g}")
    return rows
