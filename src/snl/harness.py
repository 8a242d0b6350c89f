"""Desk-scale demonstration that nonlocal aggregation captures long-range
dependencies.

The task: an 8x8 grid carries two marked cells at Chebyshev distance >= 5,
each holding one of P orthogonal unit patterns; the label says whether the
patterns match. A 3x3-conv baseline cannot relate the two cells, a net
with a nonlocal block inserted after the conv can.
"""

from dataclasses import dataclass, field
import json
import os

import numpy as np

from . import blocks, linalg
from .blocks import BlockConfig, BlockParams
from .errors import ConfigError, DivergenceError
from .graph import FeatureMap

GRID = 8  # fixed 8x8 grid, N = 64


@dataclass
class PairedPatchDataset:
    samples: list  # (FeatureMap, label) pairs
    pattern_count: int
    min_separation: int


def _cheb_distance(i: int, j: int) -> int:
    r1, c1 = divmod(i, GRID)
    r2, c2 = divmod(j, GRID)
    return max(abs(r1 - r2), abs(c1 - c2))


def gen_dataset(
    seed: int,
    n_samples: int,
    c: int = 4,
    p: int = 2,
    min_separation: int = 5,
    noise: float = 0.01,
) -> PairedPatchDataset:
    """Balanced paired-patch samples on the fixed 8x8 grid.

    Patterns are the first ``p`` standard basis vectors of R^c (orthogonal,
    unit norm); background cells carry small Gaussian noise.
    """
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

    samples = []
    for label in labels:
        values = rng.normal(0.0, noise, size=(n, c))
        while True:
            i, j = rng.integers(0, n, size=2)
            if _cheb_distance(int(i), int(j)) >= min_separation:
                break
        if label == 1:
            k1 = k2 = int(rng.integers(0, p))
        else:
            k1, k2 = rng.choice(p, size=2, replace=False)
        values[i] = patterns[k1]
        values[j] = patterns[k2]
        samples.append((FeatureMap(GRID, GRID, c, values), int(label)))
    return PairedPatchDataset(samples, p, min_separation)


def save_dataset(ds: PairedPatchDataset, out_dir: str) -> None:
    """Binary matrix files plus a JSON manifest."""
    os.makedirs(out_dir, exist_ok=True)
    values = np.concatenate([fm.values for fm, _ in ds.samples], axis=0)
    labels = np.array([[float(label)] for _, label in ds.samples])
    linalg.save_binary(values, os.path.join(out_dir, "features.mat"))
    linalg.save_binary(labels, os.path.join(out_dir, "labels.mat"))
    fm0 = ds.samples[0][0]
    manifest = {
        "n_samples": len(ds.samples),
        "height": fm0.height,
        "width": fm0.width,
        "channels": fm0.channels,
        "pattern_count": ds.pattern_count,
        "min_separation": ds.min_separation,
        "features": "features.mat",
        "labels": "labels.mat",
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def load_dataset(in_dir: str) -> PairedPatchDataset:
    with open(os.path.join(in_dir, "manifest.json")) as fh:
        man = json.load(fh)
    values = linalg.load_binary(os.path.join(in_dir, man["features"]))
    labels = linalg.load_binary(os.path.join(in_dir, man["labels"]))
    h, w, c = man["height"], man["width"], man["channels"]
    n = h * w
    samples = [
        (FeatureMap(h, w, c, values[k * n : (k + 1) * n]), int(labels[k, 0]))
        for k in range(man["n_samples"])
    ]
    return PairedPatchDataset(samples, man["pattern_count"], man["min_separation"])


# --- tiny network -------------------------------------------------------------


def _patch_indices(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """(N, 9) row/col indices into the zero-padded (h+2, w+2) grid."""
    rows = np.arange(h)[:, None, None, None] + np.arange(3)[None, None, :, None]
    cols = np.arange(w)[None, :, None, None] + np.arange(3)[None, None, None, :]
    rows = np.broadcast_to(rows, (h, w, 3, 3)).reshape(h * w, 9)
    cols = np.broadcast_to(cols, (h, w, 3, 3)).reshape(h * w, 9)
    return rows, cols


@dataclass
class ToyNet:
    """3x3 conv front, optional nonlocal block, GAP + linear head."""

    conv_w: np.ndarray  # (9*C, C)
    conv_b: np.ndarray  # (C,)
    head_w: np.ndarray  # (C, 2)
    head_b: np.ndarray  # (2,)
    block_cfg: BlockConfig | None = None
    block_params: BlockParams | None = None
    height: int = GRID
    width: int = GRID

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
    h, w = net.height, net.width
    grids = batch_values.reshape(b, h, w, c)
    padded = np.pad(grids, ((0, 0), (1, 1), (1, 1), (0, 0)))
    rows, cols = _patch_indices(h, w)
    patches = padded[:, rows, cols, :].reshape(b, n, 9 * c)
    act = patches @ net.conv_w + net.conv_b
    tapes = None
    if net.block_cfg is not None:
        blocked, tapes = blocks.block_forward_batch(act, h, w, net.block_cfg, net.block_params)
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


def _sgd_step(net: ToyNet, velocity: dict, values: np.ndarray, labels: np.ndarray,
              lr: float, momentum: float, step: int) -> None:
    """One momentum-SGD step on a batch (one block call forward, one back)."""
    state = _forward_batch(net, values)
    loss, dlogits = _softmax_ce(state["logits"], labels)
    if not np.isfinite(loss):
        raise DivergenceError(step)
    grads = _backward_batch(net, state, dlogits)
    for name, param in net.parameters():
        v = velocity[name]
        v *= momentum
        v += grads[name]
        param -= lr * v


# A diverging run overflows to inf and then NaN inside the forward pass;
# the finite-loss checks turn that into DivergenceError, so NumPy's own
# overflow and invalid-value warnings are silenced for train and evaluate.
DIVERGENCE_ERRSTATE = {"over": "ignore", "invalid": "ignore"}

# Evaluation runs in chunks of the default training batch, so the raw and
# normalized affinities one forward pass keeps (32 x 64 x 64 float64 at
# N = 64) stay near 1 MiB each, as in a training step.
EVAL_CHUNK = 32


def evaluate(net: ToyNet, data: PairedPatchDataset, chunk: int = EVAL_CHUNK) -> tuple[float, float]:
    """Mean cross-entropy and accuracy over the full dataset, ``chunk``
    samples per forward pass."""
    values = np.stack([fm.values for fm, _ in data.samples])
    labels = np.array([label for _, label in data.samples])
    total_nll = 0.0
    correct = 0
    with np.errstate(**DIVERGENCE_ERRSTATE):
        for start in range(0, len(labels), chunk):
            sl = slice(start, start + chunk)
            state = _forward_batch(net, values[sl])
            loss, _ = _softmax_ce(state["logits"], labels[sl])
            total_nll += loss * len(labels[sl])
            correct += int(np.sum(np.argmax(state["logits"], axis=1) == labels[sl]))
    return total_nll / len(labels), correct / len(labels)


def train(
    net: ToyNet,
    data: PairedPatchDataset,
    steps: int,
    lr: float,
    seed: int,
    batch_size: int = 32,
    momentum: float = 0.9,
    eval_every: int = 100,
) -> list[dict]:
    """Plain minibatch SGD with momentum on cross-entropy.

    Deterministic given (net, data, seed): each step is one batched block
    forward and backward, and every sum over the batch runs in a fixed
    order (see ``_backward_batch``). Returns the metrics history as a
    list of {"step", "loss", "accuracy"} rows evaluated on the full
    training set every ``eval_every`` steps and at the final step.
    """
    if lr < 0:
        raise ConfigError(f"learning rate must be >= 0, got {lr}")
    rng = np.random.default_rng(seed)
    values = np.stack([fm.values for fm, _ in data.samples])
    labels = np.array([label for _, label in data.samples])
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

            _sgd_step(net, velocity, values[idx], labels[idx], lr, momentum, step)

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
