"""Property test of the block gradients: any variant, kernel, grid shape
(1xN and Nx1 included), reduced channel count, affinity-gradient mode and,
for CHEB_K, polynomial order must pass the finite-difference check, or fail
with the typed error its kernel documents."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snl import blocks, gradcheck
from snl.blocks import BlockConfig
from snl.errors import DegenerateVertexError, KernelDomainError

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
