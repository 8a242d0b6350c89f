"""Block gradients against the complex-step derivative of the Table-1
closed forms.

dL/dθ_j = Im L(θ + ih e_j) / h takes no difference of two losses, so with
h = 1e-200 it is exact to round-off (Squire & Trapp, SIAM Review 40(1),
1998). ``verify._table1_forward`` is dense NumPy built from analytic
operations only and reads nothing from the blocks variant table, so it
checks ``block_backward_batch`` at 1e-12, where finite differences at
their best resolve about 1e-7. With a frozen affinity the closed form's
filter part runs on the real base-point A.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from snl import blocks, verify
from snl.blocks import BlockConfig

H = 1e-200


def closed_form_args(cfg, height, width, arrays):
    """The closed form's input and parameters from ``arrays``, which holds
    the input x and every parameter by name, real or complex."""
    x = SimpleNamespace(values=arrays["x"], n_positions=height * width, width=width)
    params = SimpleNamespace(
        w_phi=arrays["w_phi"], w_psi=arrays["w_psi"], w_z=arrays["w_z"],
        filters={name: arrays[name] for name in blocks.filter_roles(cfg)},
    )
    return x, params


def closed_form_loss(cfg, height, width, arrays, g, frozen=None):
    """L = sum(G * Y) of the Table-1 closed form. With ``frozen``, a fixed
    real A, the closed form filters with it and differentiates only the
    filter, as a block with backprop_affinity=False does."""
    x, params = closed_form_args(cfg, height, width, arrays)
    if frozen is None:
        return np.sum(g * verify._table1_forward(cfg, x, params))
    return np.sum(g * verify._table1_filter(cfg, frozen, x, params))


def complex_step(cfg, height, width, arrays, g, frozen=None) -> dict:
    """dL/d(each entry of each array), one complex probe per entry."""
    base = {name: a.astype(complex) for name, a in arrays.items()}
    out = {}
    for name, a in arrays.items():
        grad = np.empty_like(a)
        for idx in np.ndindex(a.shape):
            probe = dict(base, **{name: base[name].copy()})
            probe[name][idx] += 1j * H
            grad[idx] = closed_form_loss(cfg, height, width, probe, g, frozen).imag / H
        out[name] = grad
    return out


def assert_matches(got, want):
    """Every gradient within 1e-12 of the largest complex-step entry."""
    scale = max(np.abs(ref).max() for ref in want.values())
    assert scale > 0.0
    for name, ref in want.items():
        assert np.abs(got[name] - ref).max() <= 1e-12 * scale, name


CASES = (
    [(v, "exp_dot", 3, 4, 3) for v in blocks.VARIANTS]
    + [(v, "exp_dot", 1, 5, 3) for v in blocks.VARIANTS]
    + [(v, "exp_dot", 5, 1, 3) for v in blocks.VARIANTS]
    + [("A2", "dot", 3, 4, 3), ("A2", "dot", 1, 5, 3), ("A2", "dot", 5, 1, 3)]
    + [("CHEB_K", "exp_dot", 3, 4, k) for k in (2, 5, 8)]
)


@pytest.mark.parametrize("variant,kernel,h,w,order", CASES)
def test_backward_matches_the_complex_step(variant, kernel, h, w, order):
    cfg = BlockConfig(variant=variant, c_in=4, c_s=2, order=order, kernel=kernel)
    rng = np.random.default_rng(50)
    params = blocks.random_params(cfg, rng)
    x = rng.normal(0.0, 0.5, size=(h * w, 4))
    g = rng.normal(size=x.shape)
    _, tapes = blocks.block_forward_batch(x[None], h, w, cfg, params)
    gx, grads = blocks.block_backward_batch(tapes, cfg, params, g[None])
    got = dict(grads, x=gx[0])
    assert_matches(got, complex_step(cfg, h, w, dict(params.items(), x=x), g))


@pytest.mark.parametrize("variant,kernel", [(v, "exp_dot") for v in blocks.VARIANTS]
                         + [("A2", "dot")])
def test_frozen_affinity_backward_matches_the_complex_step(variant, kernel):
    # backprop_affinity=False: the closed form filters a complex Z with the
    # real base-point A, so only the products with A^T carry the gradient
    cfg = BlockConfig(variant=variant, c_in=4, c_s=2, order=3, kernel=kernel,
                      backprop_affinity=False)
    rng = np.random.default_rng(51)
    params = blocks.random_params(cfg, rng)
    x = rng.normal(0.0, 0.5, size=(12, 4))
    g = rng.normal(size=x.shape)
    _, tapes = blocks.block_forward_batch(x[None], 3, 4, cfg, params)
    gx, grads = blocks.block_backward_batch(tapes, cfg, params, g[None])
    arrays = dict(params.items(), x=x)
    frozen = verify._table1_affinity(cfg, *closed_form_args(cfg, 3, 4, arrays))
    assert_matches(dict(grads, x=gx[0]), complex_step(cfg, 3, 4, arrays, g, frozen))


def test_complex_step_pins_a_known_derivative():
    # A2 on one position with one channel: Y = x + exp(ab x^2) c w x, so
    # dY/dx = 1 + exp(ab x^2) c w (1 + 2 ab x^2). The derivative runs through
    # the kernel's exp; a closed form that drops the imaginary part reads
    # 0 or 1 here instead.
    cfg = BlockConfig(variant="A2", c_in=1, c_s=1)
    x, a, b, c, w = 0.7, 0.9, -1.3, 0.6, 1.1
    arrays = {"x": np.array([[x]]), "w_phi": np.array([[a]]), "w_psi": np.array([[b]]),
              "w_z": np.array([[c]]), "w": np.array([[w]])}
    got = complex_step(cfg, 1, 1, arrays, np.ones((1, 1)))["x"][0, 0]
    e = a * b * x * x
    assert got == pytest.approx(1.0 + np.exp(e) * c * w * (1.0 + 2.0 * e), rel=1e-15)
