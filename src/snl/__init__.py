"""Spectral view of nonlocal blocks: graphs from feature maps, polynomial
graph filters, unified block variants, and gradient verification."""

from .blocks import BlockConfig, BlockParams, block_backward, block_forward
from .graph import AffinityMatrix, FeatureMap
from .linalg import SpectralDecomposition, eigh, rel_error
from .spectral import FilterSpec, poly_filter_apply, spectral_oracle

__all__ = [
    "AffinityMatrix",
    "BlockConfig",
    "BlockParams",
    "FeatureMap",
    "FilterSpec",
    "SpectralDecomposition",
    "block_backward",
    "block_forward",
    "eigh",
    "poly_filter_apply",
    "rel_error",
    "spectral_oracle",
]
