"""Property tests of the block gradients: any variant, kernel, grid shape
(1xN and Nx1 included), reduced channel count, affinity-gradient mode and,
for CHEB_K, polynomial order must pass the finite-difference check, or fail
with the typed error its kernel documents, and must match the complex-step
derivative of the Table-1 closed forms at 1e-12."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snl import blocks, gradcheck, verify
from snl.blocks import BlockConfig
from snl.errors import DegenerateVertexError, KernelDomainError
from test_complex_step import assert_matches, closed_form_args, complex_step

C_IN = 4


@pytest.mark.parametrize("variant", blocks.VARIANTS)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(
    kernel=st.sampled_from(["exp_dot", "dot"]),
    height=st.integers(1, 4),
    width=st.integers(1, 4),
    c_s=st.integers(1, C_IN),
    backprop_affinity=st.booleans(),
    order=st.integers(2, 5),  # read by CHEB_K only: powers up to A^4 in the backward
    seed=st.integers(0, 2**32 - 1),
)
def test_block_gradients_match_finite_differences(
    variant, kernel, height, width, c_s, backprop_affinity, order, seed
):
    cfg = BlockConfig(variant=variant, c_in=C_IN, c_s=c_s, kernel=kernel,
                      backprop_affinity=backprop_affinity, order=order)
    try:
        reports = gradcheck.check_block_gradients(cfg, seed, height=height, width=width)
    except (KernelDomainError, DegenerateVertexError):
        # the dot kernel's negative affinities have no degree normalization
        assert kernel == "dot" and blocks._RECIPES[variant].normalization != "none"
        return
    assert all(r.passed for r in reports), gradcheck.format_report_table(reports)


@pytest.mark.parametrize("variant,kernel", [(v, "exp_dot") for v in blocks.VARIANTS]
                         + [("A2", "dot")])
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(
    height=st.integers(1, 4),
    width=st.integers(1, 4),
    c_s=st.integers(1, C_IN),
    backprop_affinity=st.booleans(),
    order=st.integers(2, 5),  # read by CHEB_K only
    seed=st.integers(0, 2**32 - 1),
)
def test_block_gradients_match_the_complex_step(
    variant, kernel, height, width, c_s, backprop_affinity, order, seed
):
    # A2 normalizes nothing, so the dot kernel's negative entries are valid
    cfg = BlockConfig(variant=variant, c_in=C_IN, c_s=c_s, order=order, kernel=kernel,
                      backprop_affinity=backprop_affinity)
    rng = np.random.default_rng(seed)
    params = blocks.random_params(cfg, rng)
    x = rng.normal(0.0, 0.5, size=(height * width, C_IN))
    g = rng.normal(size=x.shape)
    _, tape = blocks.block_forward_batch(x[None], height, width, cfg, params)
    gx, grads = blocks.block_backward_batch(tape, cfg, params, g[None])
    arrays = dict(params.items(), x=x)
    frozen = None
    if not backprop_affinity:
        frozen = verify._table1_affinity(cfg, *closed_form_args(cfg, height, width, arrays))
    assert_matches(dict(grads, x=gx[0]), complex_step(cfg, height, width, arrays, g, frozen))
