import numpy as np
import pytest

from snl import blocks, gradcheck
from snl.blocks import BlockConfig
from snl.errors import NumericError


def test_finite_diff_quadratic_exact():
    a = np.array([[2.0, -1.0], [0.5, 3.0]])
    point = np.array([[1.0, 2.0], [3.0, 4.0]])
    loss = lambda x: float(np.sum(a * x * x))
    got = gradcheck.finite_diff(loss, point, 1e-5)
    assert np.max(np.abs(got - 2.0 * a * point)) < 1e-8


def test_finite_diff_rejects_bad_eps():
    with pytest.raises(ValueError):
        gradcheck.finite_diff(lambda x: 0.0, np.zeros(2), 0.0)


def test_finite_diff_nonfinite_loss():
    with pytest.raises(NumericError):
        gradcheck.finite_diff(lambda x: float("nan"), np.zeros(2), 1e-5)


@pytest.mark.parametrize("variant", ["NL", "SNL", "CGNL", "CC"])
@pytest.mark.parametrize("backprop", [False, True])
def test_block_gradients_spot_checks(variant, backprop):
    cfg = BlockConfig(variant=variant, c_in=4, c_s=2, order=3, backprop_affinity=backprop)
    reports = gradcheck.check_block_gradients(cfg, seed=0)
    assert reports, "no parameters checked"
    for r in reports:
        assert r.passed, f"{variant} {r.parameter}: rel {r.max_rel_error:.3e}"


def test_report_table_and_csv():
    cfg = BlockConfig(variant="NL", c_in=4, c_s=2)
    reports = gradcheck.check_block_gradients(cfg, seed=1)
    table = gradcheck.format_report_table(reports)
    assert "parameter" in table and "pass" in table
    rows = gradcheck.reports_to_csv_rows(reports)
    assert rows[0].startswith("parameter,")
    assert len(rows) == len(reports) + 1


# Seeds below 1000 whose round-off-level errors on entries near 1e-7 failed
# under a fixed 1e-8 floor, with the configuration that failed.
ROUNDOFF_SEEDS = [
    (131, "SNL", True), (197, "SNL", False), (532, "CHEB_K", True),
    (541, "SNL", True), (551, "SNL_A1", True), (662, "NL", True),
    (759, "CHEB_K", False), (839, "CHEB_K", True), (998, "SNL_A1", True),
]


@pytest.mark.parametrize("seed,variant,backprop", ROUNDOFF_SEEDS)
def test_roundoff_seeds_pass(seed, variant, backprop):
    cfg = BlockConfig(variant=variant, c_in=4, c_s=2, order=3, backprop_affinity=backprop)
    for r in gradcheck.check_block_gradients(cfg, seed):
        assert r.passed, f"seed {seed} {variant} {r.parameter}: rel {r.max_rel_error:.3e}"


def test_wrong_entry_still_fails(monkeypatch):
    # one entry of each gradient off by 1e-3 relative must fail the check
    cfg = BlockConfig(variant="SNL", c_in=4, c_s=2, order=3)
    honest = blocks.block_backward

    def skewed(x, cfg, params, upstream):
        gx, grads = honest(x, cfg, params, upstream)
        for g in [gx, *grads.values()]:
            i = np.unravel_index(np.argmax(np.abs(g)), g.shape)
            g[i] *= 1.0 + 1e-3
        return gx, grads

    monkeypatch.setattr(blocks, "block_backward", skewed)
    reports = gradcheck.check_block_gradients(cfg, seed=541)
    assert all(not r.passed for r in reports), [(r.parameter, r.passed) for r in reports]
