import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from snl import blocks, harness
from snl.blocks import BlockConfig
from snl.errors import ConfigError, DivergenceError


def test_dataset_balance():
    data = harness.gen_dataset(seed=0, n_samples=100, c=4, p=2)
    assert data.values.shape == (100, 64, 4)
    assert data.labels.shape == (100,)
    assert abs(int(data.labels.sum()) - 50) <= 1


def test_dataset_marked_cells_respect_separation():
    data = harness.gen_dataset(seed=1, n_samples=64, c=4, p=2, min_separation=5)
    for values in data.values:
        marks = [i for i in range(64) if np.max(np.abs(values[i])) == 1.0]
        assert len(marks) == 2
        assert harness._cheb_distance(marks[0], marks[1]) >= 5


def test_dataset_label_matches_patterns():
    data = harness.gen_dataset(seed=2, n_samples=64, c=4, p=2, noise=0.0)
    for values, label in zip(data.values, data.labels):
        marks = [i for i in range(64) if np.linalg.norm(values[i]) > 0.5]
        k1, k2 = (int(np.argmax(values[i])) for i in marks)
        assert label == int(k1 == k2)


def test_dataset_determinism():
    d1 = harness.gen_dataset(seed=3, n_samples=16, c=4, p=2)
    d2 = harness.gen_dataset(seed=3, n_samples=16, c=4, p=2)
    assert np.array_equal(d1.labels, d2.labels)
    assert np.array_equal(d1.values, d2.values)


def test_dataset_config_errors():
    with pytest.raises(ConfigError):
        harness.gen_dataset(seed=0, n_samples=4, c=4, p=1)
    with pytest.raises(ConfigError):
        harness.gen_dataset(seed=0, n_samples=4, c=2, p=3)
    with pytest.raises(ConfigError):
        harness.gen_dataset(seed=0, n_samples=4, c=4, p=2, min_separation=8)
    with pytest.raises(ConfigError):
        harness.gen_dataset(seed=0, n_samples=0)
    with pytest.raises(ConfigError):
        harness.gen_dataset(seed=0, n_samples=4, noise=-0.1)


def test_toynet_channel_mismatch():
    cfg = BlockConfig(variant="SNL", c_in=8, c_s=2)
    with pytest.raises(ConfigError):
        harness.init_toynet(4, cfg, seed=0)


def logits_of(net, values):
    return harness._forward_batch(net, values[None])["logits"][0]


def test_receptive_field_separation():
    # Perturbations of two far-apart cells interact in the block net's
    # logits but are exactly additive for the 3x3-conv baseline.
    data = harness.gen_dataset(seed=5, n_samples=2, c=4, p=2)
    base = data.values[0]
    marks = [i for i in range(64) if np.max(np.abs(base[i])) == 1.0]
    i, j = marks
    pert_i = base.copy()
    pert_i[i] += 0.5
    pert_j = base.copy()
    pert_j[j] += 0.5
    pert_ij = base.copy()
    pert_ij[i] += 0.5
    pert_ij[j] += 0.5

    plain = harness.init_toynet(4, None, seed=0)
    cross = (
        logits_of(plain, pert_ij)
        - logits_of(plain, pert_i)
        - logits_of(plain, pert_j)
        + logits_of(plain, base)
    )
    assert np.max(np.abs(cross)) < 1e-10

    cfg = BlockConfig(variant="SNL", c_in=4, c_s=2)
    net = harness.init_toynet(4, cfg, seed=0)
    # give the block a nonzero filter so attention reaches the logits
    net.block_params.filters["w2"][:] = 0.3
    cross = (
        logits_of(net, pert_ij)
        - logits_of(net, pert_i)
        - logits_of(net, pert_j)
        + logits_of(net, base)
    )
    assert np.max(np.abs(cross)) > 1e-6


def test_conv_patches_are_the_padded_3x3_windows():
    values = np.random.default_rng(4).normal(size=(3, 64, 4))
    patches = harness._forward_batch(harness.init_toynet(4, None, seed=0), values)["patches"]
    padded = np.pad(values.reshape(3, 8, 8, 4), ((0, 0), (1, 1), (1, 1), (0, 0)))
    for r in range(8):
        for c in range(8):
            # rows of conv_w are ordered (dy, dx, channel)
            want = padded[:, r : r + 3, c : c + 3, :].reshape(3, 36)
            assert np.array_equal(patches[:, 8 * r + c], want)


def rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("b", [1, 3, 32])
@pytest.mark.parametrize("variant", [None, "SNL"])
def test_batch_reductions_match_axis_sums(variant, b):
    # pooling and the head_b and conv_b gradients are products with a ones
    # vector: within 1e-13 relative of mean and sum over the axis
    rng = np.random.default_rng(11)
    cfg = None if variant is None else BlockConfig(variant=variant, c_in=4, c_s=2)
    net = harness.init_toynet(4, cfg, seed=3)
    if cfg is not None:
        net.block_params.filters["w2"][:] = 0.3
    values = rng.normal(size=(b, 64, 4))
    state = harness._forward_batch(net, values)
    blocked = state["act"]
    if cfg is not None:
        blocked, _ = blocks.block_forward_batch(blocked, 8, 8, cfg, net.block_params)
    assert rel(state["pooled"], blocked.mean(axis=1)) <= 1e-13
    dlogits = rng.normal(size=(b, 2))
    grads = harness._backward_batch(net, state, dlogits)
    g_blocked = np.repeat((dlogits @ net.head_w.T)[:, None, :], 64, axis=1) / 64
    g_act = g_blocked
    if cfg is not None:
        g_act, _ = blocks.block_backward_batch(state["tape"], cfg, net.block_params, g_blocked)
    assert rel(grads["head_b"], dlogits.sum(axis=0)) <= 1e-13
    assert rel(grads["conv_b"], g_act.sum(axis=(0, 1))) <= 1e-13


def test_baseline_act_changes_only_locally():
    data = harness.gen_dataset(seed=6, n_samples=1, c=4, p=2)
    net = harness.init_toynet(4, None, seed=1)
    pert = data.values[0].copy()
    cell = 27  # row 3, col 3
    pert[cell] += 1.0
    a0 = harness._forward_batch(net, data.values[:1])["act"][0]
    a1 = harness._forward_batch(net, pert[None])["act"][0]
    changed = np.where(np.max(np.abs(a1 - a0), axis=1) > 0)[0]
    r0, c0 = divmod(cell, 8)
    for pos in changed:
        r, c = divmod(int(pos), 8)
        assert max(abs(r - r0), abs(c - c0)) <= 1


def test_train_lr_zero_keeps_loss_constant():
    data = harness.gen_dataset(seed=7, n_samples=16, c=4, p=2)
    net = harness.init_toynet(4, None, seed=0)
    hist = harness.train(net, data, steps=30, lr=0.0, seed=0, eval_every=10)
    losses = [h["loss"] for h in hist]
    assert max(losses) - min(losses) < 1e-12


def test_train_negative_lr_rejected():
    data = harness.gen_dataset(seed=7, n_samples=16, c=4, p=2)
    net = harness.init_toynet(4, None, seed=0)
    with pytest.raises(ConfigError):
        harness.train(net, data, steps=1, lr=-0.1, seed=0)
    with pytest.raises(ConfigError):
        harness.train(net, data, steps=1, lr=float("nan"), seed=0)


@pytest.mark.parametrize("count", ["steps", "batch_size", "eval_every"])
def test_train_nonpositive_count_rejected(count):
    data = harness.gen_dataset(seed=7, n_samples=16, c=4, p=2)
    net = harness.init_toynet(4, None, seed=0)
    with pytest.raises(ConfigError):
        harness.train(net, data, seed=0, **{"steps": 1, count: 0})


def test_overfit_single_sample():
    data = harness.gen_dataset(seed=8, n_samples=1, c=4, p=2)
    net = harness.init_toynet(4, None, seed=0)
    hist = harness.train(net, data, steps=500, lr=0.1, seed=0, batch_size=1)
    assert hist[-1]["loss"] <= 1e-2


def test_train_determinism_bitwise():
    data = harness.gen_dataset(seed=9, n_samples=32, c=4, p=2)
    cfg = BlockConfig(variant="SNL", c_in=4, c_s=2)
    runs = []
    for _ in range(2):
        net = harness.init_toynet(4, cfg, seed=2)
        runs.append(harness.train(net, data, steps=40, lr=0.03, seed=2, eval_every=20))
    for h1, h2 in zip(*runs):
        assert h1["loss"] == h2["loss"]
        assert h1["accuracy"] == h2["accuracy"]


def test_train_divergence_reports_step():
    data = harness.gen_dataset(seed=10, n_samples=32, c=4, p=2)
    net = harness.init_toynet(4, None, seed=0)
    net.conv_w[:] = 1e308  # overflow in the forward pass -> NaN logits
    with pytest.raises(DivergenceError):
        harness.train(net, data, steps=5, lr=0.1, seed=0)


def test_history_csv_rows():
    rows = harness.history_to_csv_rows([{"step": 10, "loss": 0.5, "accuracy": 0.75}])
    assert rows[0] == "step,loss,accuracy"
    assert rows[1].startswith("10,0.5")


# Final loss of 20 SNL steps on the seed-0 dataset, recorded from the
# per-sample implementation the batched block replaced.
REFERENCE_LOSS = 0.6947283614664882


def test_batched_training_reproduces_reference_loss(monkeypatch):
    data = harness.gen_dataset(seed=0, n_samples=512, c=4, p=2, min_separation=5)
    cfg = BlockConfig(variant="SNL", c_in=4, c_s=2)
    runs = []
    for _ in range(2):
        net = harness.init_toynet(4, cfg, seed=0)
        hist = harness.train(net, data, steps=20, lr=0.03, seed=0, batch_size=32, eval_every=20)
        runs.append(hist)
    assert runs[0] == runs[1]  # bit-identical
    assert runs[0][-1]["loss"] == pytest.approx(REFERENCE_LOSS, rel=1e-9, abs=0.0)
    monkeypatch.setattr(harness, "EVAL_CHUNK", 32)
    small = harness.evaluate(net, data)
    monkeypatch.setattr(harness, "EVAL_CHUNK", 512)
    whole = harness.evaluate(net, data)
    assert small == (runs[0][-1]["loss"], runs[0][-1]["accuracy"])
    assert small[0] == pytest.approx(whole[0], rel=1e-12, abs=0.0)
    assert small[1] == whole[1]


# Five warm-up SGD steps of an SNL block (B=32, N=64), then the minor page
# faults of the next twenty, in a fresh process: an earlier N = 1024 run in
# this process could have raised glibc's dynamic mmap threshold past the
# step's 1 MiB (32, 64, 64) stacks and hidden faults that a fresh process
# takes.
FAULT_PROBE = """
import resource
import numpy as np
from snl import harness
from snl.blocks import BlockConfig

data = harness.gen_dataset(seed=0, n_samples=32, c=4)
net = harness.init_toynet(4, BlockConfig(variant="SNL", c_in=4, c_s=2), seed=0)
velocity = {name: np.zeros_like(p) for name, p in net.parameters()}
for step in range(25):
    if step == 5:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    harness._sgd_step(net, velocity, data.values, data.labels, 0.03, step)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
def test_sgd_step_takes_no_page_faults_once_warm():
    # the step's (32, 64, 64) arrays are 1 MiB each, over glibc's default
    # 128 KiB mmap threshold: unless the block module pins the thresholds,
    # every such array maps fresh pages, about 570 faults per step
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert float(out) <= 20.0
