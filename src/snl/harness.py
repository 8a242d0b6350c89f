"""Desk-scale demonstration that nonlocal aggregation captures long-range
dependencies.

The task: an 8x8 grid carries two marked cells at Chebyshev distance >= 5,
each holding one of P orthogonal unit patterns; the label says whether the
patterns match. A 3x3-conv baseline cannot relate the two cells, a net
with a nonlocal block inserted after the conv can.

The net's own work outside the block is on thin (B, N, C) arrays, where
the cost of a NumPy call, not its arithmetic, sets the time. So a step
makes few and cheap calls: the conv patches are one ``np.take`` of
precomputed window indices, and every sum over a short or non-trailing
axis (pooling, the bias gradients) is a product with a ones vector, one
BLAS call where the axis sum took several times as long. Inside the
block the same rule goes one step further: a thin stack keeps its long
axis last, so the block core holds its thin arrays channel-first,
(B, c, N), and its input, output and gradients stay (B, N, C). At B = 32,
N = 64, c_s = 2 a last-axis concatenate took 27-33 us against 4.6 us
channel-first, a (B, N, 1) column scaling 14 us against 5.8 us for a
row, and an L R^T product 103 us against 62 us for L^T taken as a
transposed operand.
"""

from dataclasses import dataclass

import numpy as np

from . import blocks
from .blocks import BlockConfig, BlockParams
from .errors import ConfigError, DivergenceError

GRID = 8  # fixed 8x8 grid, N = 64


def _conv_index(height: int, width: int) -> np.ndarray:
    """Row of each 3x3 conv tap in a (B, N+1, C) stack whose row N is zero:
    the (N*9,) window indices of every position in row-major order, each
    window in conv_w's (dy, dx) order, with taps off the grid at row N."""
    n = height * width
    row, col = np.divmod(np.arange(n), width)
    dy, dx = np.divmod(np.arange(9), 3)
    rr, cc = row[:, None] + dy - 1, col[:, None] + dx - 1
    inside = (rr >= 0) & (rr < height) & (cc >= 0) & (cc < width)
    return np.where(inside, rr * width + cc, n).ravel()


_CONV_INDEX = _conv_index(GRID, GRID)


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

    The block runs once on the whole stack; its tape stays in the returned
    dict for ``_backward_batch``.
    """
    b, n, c = batch_values.shape
    # one gather of the 9 taps per position, (dy, dx, channel) as conv_w's
    # rows: 33 us at B = 32, where np.pad and a window view took 129 us and
    # fancy indexing ext[:, index] 766 us
    ext = np.concatenate([batch_values, np.zeros((b, 1, c))], axis=1)
    patches = np.take(ext, _CONV_INDEX, axis=1).reshape(b, n, 9 * c)
    act = patches @ net.conv_w + net.conv_b
    tape = None
    if net.block_cfg is not None:
        blocked, tape = blocks.block_forward_batch(act, GRID, GRID, net.block_cfg, net.block_params)
    else:
        blocked = act
    pooled = np.ones(n) @ blocked / n  # 12 us against 49 us for mean(axis=1)
    logits = pooled @ net.head_w + net.head_b
    return {
        "patches": patches,
        "act": act,
        "tape": tape,
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

    The batch reductions happen here and in the block, by the module's
    thin-array rule: head and conv weight gradients are single products
    over the stacked batch, the biases' sums over it are products with a
    ones vector (``conv_b`` 6 us against 41 us for ``sum(axis=(0, 1))``
    at B = 32), and ``blocks.block_backward_batch`` sums the block's
    gradients over the stack. Every reduction runs in a fixed
    order, so a training run is bit-identical across repeats.
    """
    b, n, c = state["act"].shape
    grads = {
        "head_w": state["pooled"].T @ dlogits,
        "head_b": np.ones(b) @ dlogits,
    }
    # the mean's 1/n taken on the (B, C) gradient before the repeat
    g_blocked = np.repeat((dlogits @ net.head_w.T / n)[:, None, :], n, axis=1)
    if net.block_cfg is not None:
        g_act, block_grads = blocks.block_backward_batch(
            state["tape"], net.block_cfg, net.block_params, g_blocked
        )
        grads.update((f"block.{name}", mat) for name, mat in block_grads.items())
    else:
        g_act = g_blocked
    g_rows = g_act.reshape(b * n, c)
    grads["conv_w"] = state["patches"].reshape(b * n, -1).T @ g_rows
    grads["conv_b"] = np.ones(b * n) @ g_rows
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
