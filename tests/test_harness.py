import numpy as np
import pytest

from snl import harness
from snl.blocks import BlockConfig
from snl.errors import ConfigError, DivergenceError
from snl.graph import FeatureMap


def test_dataset_balance():
    data = harness.gen_dataset(seed=0, n_samples=100, c=4, p=2)
    pos = sum(label for _, label in data.samples)
    assert abs(pos - 50) <= 1


def test_dataset_marked_cells_respect_separation():
    data = harness.gen_dataset(seed=1, n_samples=64, c=4, p=2, min_separation=5)
    for fm, _ in data.samples:
        marks = [i for i in range(64) if np.max(np.abs(fm.values[i])) == 1.0]
        assert len(marks) == 2
        assert harness._cheb_distance(marks[0], marks[1]) >= 5


def test_dataset_label_matches_patterns():
    data = harness.gen_dataset(seed=2, n_samples=64, c=4, p=2, noise=0.0)
    for fm, label in data.samples:
        marks = [i for i in range(64) if np.linalg.norm(fm.values[i]) > 0.5]
        k1, k2 = (int(np.argmax(fm.values[i])) for i in marks)
        assert label == int(k1 == k2)


def test_dataset_determinism():
    d1 = harness.gen_dataset(seed=3, n_samples=16, c=4, p=2)
    d2 = harness.gen_dataset(seed=3, n_samples=16, c=4, p=2)
    for (f1, l1), (f2, l2) in zip(d1.samples, d2.samples):
        assert l1 == l2
        assert np.array_equal(f1.values, f2.values)


def test_dataset_config_errors():
    with pytest.raises(ConfigError):
        harness.gen_dataset(seed=0, n_samples=4, c=4, p=1)
    with pytest.raises(ConfigError):
        harness.gen_dataset(seed=0, n_samples=4, c=2, p=3)
    with pytest.raises(ConfigError):
        harness.gen_dataset(seed=0, n_samples=4, c=4, p=2, min_separation=8)


def test_dataset_save_load_roundtrip(tmp_path):
    data = harness.gen_dataset(seed=4, n_samples=8, c=4, p=2)
    harness.save_dataset(data, tmp_path)
    back = harness.load_dataset(tmp_path)
    assert back.pattern_count == data.pattern_count
    assert back.min_separation == data.min_separation
    for (f1, l1), (f2, l2) in zip(data.samples, back.samples):
        assert l1 == l2
        assert np.array_equal(f1.values, f2.values)


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
    fm, _ = data.samples[0]
    marks = [i for i in range(64) if np.max(np.abs(fm.values[i])) == 1.0]
    i, j = marks
    base = fm.values
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


def test_baseline_act_changes_only_locally():
    data = harness.gen_dataset(seed=6, n_samples=1, c=4, p=2)
    fm, _ = data.samples[0]
    net = harness.init_toynet(4, None, seed=1)
    pert = fm.values.copy()
    cell = 27  # row 3, col 3
    pert[cell] += 1.0
    a0 = harness._forward_batch(net, fm.values[None])["act"][0]
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


def test_batched_training_reproduces_reference_loss():
    data = harness.gen_dataset(seed=0, n_samples=512, c=4, p=2, min_separation=5)
    cfg = BlockConfig(variant="SNL", c_in=4, c_s=2)
    runs = []
    for _ in range(2):
        net = harness.init_toynet(4, cfg, seed=0)
        hist = harness.train(net, data, steps=20, lr=0.03, seed=0, batch_size=32, eval_every=20)
        runs.append(hist)
    assert runs[0] == runs[1]  # bit-identical
    assert runs[0][-1]["loss"] == pytest.approx(REFERENCE_LOSS, rel=1e-9, abs=0.0)
    small = harness.evaluate(net, data, chunk=32)
    whole = harness.evaluate(net, data, chunk=512)
    assert small == (runs[0][-1]["loss"], runs[0][-1]["accuracy"])
    assert small[0] == pytest.approx(whole[0], rel=1e-12, abs=0.0)
    assert small[1] == whole[1]
