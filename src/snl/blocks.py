"""Unified nonlocal block variants: forward and analytic backward passes.

Every variant builds an affinity matrix over embedded features and applies
a low-order polynomial of it to a node signal, plus a residual connection.
One table, ``_RECIPES``, gives each variant's normalization, node signal,
kernel inputs, mask and polynomial terms; the forward and the backward read
it and branch on no variant name. ``block_forward_batch`` takes a (B, N, C)
stack and returns the output with a ``Tape`` of intermediates, which
``block_backward_batch`` reads, so the affinity is built once per pair.
The core carries plain arrays: it validates the input stack and the
upstream gradient where they enter and checks that the output is finite,
and wraps an affinity in ``AffinityMatrix`` only in ``build_block_affinity``.
A batched call's samples are one (B, V, V) stack of kernels and one tape:
the forward is one call of ``_forward_stack``, which the oracles
(``gradcheck``, ``verify``) also call directly with a ``_ParamStack``,
one set of parameters per sample, and no validation. Callers bound their
own batches (``harness.EVAL_CHUNK``, ``gradcheck._PROBE_CALL_BYTES``).
``block_forward`` and ``block_backward`` are B=1 calls on a ``FeatureMap``;
``block_forward`` holds its tape for a ``block_backward`` whose arguments
match byte for byte. The forward and ``generalized_forward`` evaluate the
polynomial with ``spectral._polynomial``, one product with A per power;
the backward takes one product with A^T per power: both are linear in K.
The core never forms A: a tape keeps the masked kernel M, its one (V, V)
array, and the degrees d, and ``_Affinity`` applies A and A^T to thin
operands as diagonal scalings around products with M. The backward takes
the kernel's gradient as a product of thin factors
(``_affinity_factors``) and never forms it past one panel: where one
(V, V) matrix holds at least two ``graph.PANEL_BYTES`` (256 KiB, so
V >= 256) and the stack at most ``graph.PANEL_MATRICES`` (32) of them, it
runs in row panels, each multiplied by M's rows and by both embeddings
while it is in cache (``_affinity_backward``), as the exp_dot kernel is
built (``graph.kernel_matrix``). At V = 1024 that ran the blocks_n1024
mix (one forward and one forward + backward of each of its 12
configurations, B = 1) at 0.891-0.924x of whole (V, V) passes on a
2-core x86-64 VM (three runs, 58 of 60 rounds won, BENCH_19.json),
forward outputs bitwise equal. Smaller matrices, a training stack
(B = 32, V = 64) and every oracle case, are one panel, and so is a stack
of more than 32 matrices.

A thin stack keeps its long axis last. Every thin array the core makes
(phi, psi, z, the node signal and its powers, their gradients, the degree
rows and the affinity-gradient factors) is a channel-first (b, c, V)
stack, the transpose of its (V, c) map, so NumPy's inner loops run over V
and not over c_s = 2. Degree scalings broadcast a (b, 1, V) row,
concatenations stack rows, and sums over c are products with a ones
vector. At B = 32, N = 64, c_s = 2 on a 2-core x86-64 VM a last-axis
concatenate took 27-33 us against 4.6 us channel-first, a (B, V, 1)
column scaling 14 us against 5.8 us for a row, and the kernel gradient's
product L R^T 103 us against 62 us for ``_t(L) @ R``. The input, the
output and dL/dX stay (B, N, C) stacks: the projections enter as W^T X^T
(``embed`` returns their transposed views), and the filter terms and
dL/dX leave through BLAS's transposed-operand path, with no transpose
copies.
"""

import ctypes
from dataclasses import dataclass, field
import functools
import json
import os
from typing import NamedTuple

import numpy as np

from . import graph, linalg, spectral
from .errors import ConfigError, FilterSpecError, NumericError, PreconditionError, ShapeError
from .graph import AffinityMatrix, FeatureMap

VARIANTS = ("NL", "NS", "A2", "CGNL", "CC", "SNL", "SNL_A1", "SNL_A2", "CHEB_K")

# desk-scale guard for the flattened (position, channel) graph
CGNL_MAX_VERTICES = 4096

_CONFIG_KEYS = ("variant", "c_in", "c_s", "order", "kernel", "backprop_affinity")


@dataclass
class BlockConfig:
    """Variant tag plus channel sizes, polynomial order, and affinity options.

    ``kernel="dot"`` can give negative affinities. Every variant but A2
    degree-normalizes its affinity, so with "dot" it raises
    ``KernelDomainError`` at the first block call that meets a negative
    entry; nonnegative features and embeddings keep the kernel valid.
    """

    variant: str
    c_in: int
    c_s: int
    order: int = 2
    kernel: str = "exp_dot"
    backprop_affinity: bool = True

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        for name in ("c_in", "c_s", "order"):
            value = getattr(self, name)
            # bool is an int subclass; JSON true and false are not counts here
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.kernel, str):
            raise ConfigError(f"kernel must be a string, got {self.kernel!r}")
        if not isinstance(self.backprop_affinity, bool):
            raise ConfigError(f"backprop_affinity must be true or false, got "
                              f"{self.backprop_affinity!r}")
        if not (1 <= self.c_s <= self.c_in):
            raise ConfigError(f"need 1 <= c_s <= c_in, got c_s={self.c_s}, c_in={self.c_in}")
        if self.kernel not in graph.KERNELS:
            raise ConfigError(f"unknown kernel {self.kernel!r}")
        if self.variant == "CHEB_K" and self.order < 2:
            raise ConfigError(f"CHEB_K needs order >= 2, got {self.order}")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in _CONFIG_KEYS}

    @classmethod
    def from_dict(cls, d: dict) -> "BlockConfig":
        unknown = set(d) - set(_CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown block config keys: {sorted(unknown)}")
        missing = {"variant", "c_in", "c_s"} - set(d)
        if missing:
            raise ConfigError(f"missing block config keys: {sorted(missing)}")
        return cls(**d)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "BlockConfig":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid block config JSON: {exc}") from exc
        if not isinstance(d, dict):
            raise ConfigError("block config JSON must be an object")
        return cls.from_dict(d)


def filter_roles(cfg: BlockConfig) -> list[str]:
    """Names of the filter weight matrices a variant owns."""
    return list(dict.fromkeys(role for _, role, _ in _variant_terms(cfg)))


def filter_shape(cfg: BlockConfig) -> tuple[int, int]:
    """Shape of each of a variant's filter weight matrices: a filter on the
    raw input (node signal X) maps C1 -> C1, any other C_s -> C1."""
    return (cfg.c_in if _RECIPES[cfg.variant].node == "x" else cfg.c_s, cfg.c_in)


@dataclass
class BlockParams:
    """Projection embeddings plus the variant's filter weights."""

    w_phi: np.ndarray
    w_psi: np.ndarray
    w_z: np.ndarray
    filters: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.w_phi = linalg.as_matrix(self.w_phi)
        self.w_psi = linalg.as_matrix(self.w_psi)
        self.w_z = linalg.as_matrix(self.w_z)
        self.filters = {k: linalg.as_matrix(v) for k, v in self.filters.items()}

    def items(self) -> list[tuple[str, np.ndarray]]:
        """Fixed parameter order (projections first, then filter weights)."""
        out = [("w_phi", self.w_phi), ("w_psi", self.w_psi), ("w_z", self.w_z)]
        out.extend(self.filters.items())
        return out


class _ParamStack(NamedTuple):
    """A block's parameter arrays as (b, rows, cols) stacks, one set per
    sample, or as one sample's matrices, read where ``BlockParams`` is
    read; unlike ``BlockParams`` they are not validated."""

    w_phi: np.ndarray
    w_psi: np.ndarray
    w_z: np.ndarray
    filters: dict[str, np.ndarray]


def check_params(cfg: BlockConfig, params: BlockParams) -> None:
    proj = (cfg.c_in, cfg.c_s)
    for name in ("w_phi", "w_psi", "w_z"):
        if getattr(params, name).shape != proj:
            raise ShapeError(f"{name} has shape {getattr(params, name).shape}, want {proj}")
    roles = filter_roles(cfg)
    if sorted(params.filters) != sorted(roles):
        raise ConfigError(f"filter roles {sorted(params.filters)} != {sorted(roles)}")
    want = filter_shape(cfg)
    for role in roles:
        if params.filters[role].shape != want:
            raise ShapeError(f"{role} has shape {params.filters[role].shape}, want {want}")


def init_params(cfg: BlockConfig, rng: np.random.Generator) -> BlockParams:
    """Projections uniform in [-1/sqrt(C1), 1/sqrt(C1)]; filter weights zero.

    Zero filter weights make every block start as the identity, the usual
    stable initialization for residual insertion.
    """
    bound = 1.0 / np.sqrt(cfg.c_in)
    proj = lambda: rng.uniform(-bound, bound, size=(cfg.c_in, cfg.c_s))
    filters = {r: np.zeros(filter_shape(cfg)) for r in filter_roles(cfg)}
    return BlockParams(proj(), proj(), proj(), filters)


def random_params(cfg: BlockConfig, rng: np.random.Generator) -> BlockParams:
    """All parameter matrices drawn uniform in [-0.5/sqrt(C1), 0.5/sqrt(C1)];
    used by gradient checks."""
    return BlockParams(*_random_arrays(cfg, rng))


def _random_arrays(cfg: BlockConfig, rng: np.random.Generator) -> tuple:
    """The raw arrays of ``random_params``, (w_phi, w_psi, w_z, filters), in
    its draw order: the filters first, then the three projections."""
    bound = 0.5 / np.sqrt(cfg.c_in)
    draw = lambda shape: rng.uniform(-bound, bound, size=shape)
    filters = {r: draw(filter_shape(cfg)) for r in filter_roles(cfg)}
    proj = (cfg.c_in, cfg.c_s)
    return draw(proj), draw(proj), draw(proj), filters


def save_params(params: BlockParams, out_dir: str) -> None:
    """Binary matrices plus a JSON manifest listing matrix roles."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = {}
    for name, mat in params.items():
        fname = f"{name}.mat"
        linalg.save_binary(mat, os.path.join(out_dir, fname))
        manifest[name] = fname
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump({"matrices": manifest}, fh, indent=2, sort_keys=True)


def load_params(in_dir: str) -> BlockParams:
    with open(os.path.join(in_dir, "manifest.json")) as fh:
        manifest = json.load(fh)["matrices"]
    mats = {name: linalg.load_binary(os.path.join(in_dir, f)) for name, f in manifest.items()}
    try:
        w_phi = mats.pop("w_phi")
        w_psi = mats.pop("w_psi")
        w_z = mats.pop("w_z")
    except KeyError as exc:
        raise ConfigError(f"params manifest missing projection {exc}") from exc
    return BlockParams(w_phi, w_psi, w_z, mats)


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of each matrix of a stack."""
    return a.swapaxes(-1, -2)


def embed(values: np.ndarray, params: BlockParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-position linear projections phi, psi, Z (1x1 convolutions) of
    (N, C_in) values or a (B, N, C_in) stack; the projections may be
    (B, C_in, C_s) stacks, one per sample. Each is taken channel-first, as
    W^T X^T, and returned as its (..., N, C_s) transposed view, so its long
    axis N is last in memory."""
    if values.shape[-1] != params.w_phi.shape[-2]:
        raise ShapeError(
            f"feature map has {values.shape[-1]} channels, projections expect "
            f"{params.w_phi.shape[-2]}"
        )
    xt = _t(values)
    return tuple(_t(_t(w) @ xt) for w in (params.w_phi, params.w_psi, params.w_z))


class _Recipe(NamedTuple):
    """One row of Table 1: a variant as a polynomial filter on its graph."""

    normalization: str  # graph.normalize mode of the affinity, or "none"
    node: str  # tape field of the node signal: z, the input x, or v = vec(z)
    pair: tuple[str, str]  # tape fields the kernel compares
    mask: bool  # criss-cross mask on the kernel before normalizing
    terms: tuple | None  # (power k, filter role, sign); None: sum_k A^k z W_{k+1}


# The variant table. Each variant sums the terms sign * A^k z_node W_role
# over its normalized affinity A. CGNL's graph has one vertex per
# (position, channel) pair of Z: the kernel compares v = vec(Z) with
# itself, and each power of v is read back as an (N, C_s) map before W.
_RECIPES = {
    "NL": _Recipe("random_walk", "z", ("phi", "psi"), False, ((1, "w", 1.0),)),
    "NS": _Recipe("random_walk", "z", ("phi", "psi"), False, ((0, "w", -1.0), (1, "w", 1.0))),
    "A2": _Recipe("none", "z", ("phi", "psi"), False, ((1, "w", 1.0),)),
    "CGNL": _Recipe("random_walk", "v", ("v", "v"), False, ((1, "w", 1.0),)),
    "CC": _Recipe("random_walk", "x", ("phi", "psi"), True, ((1, "w", 1.0),)),
    "SNL": _Recipe("symmetric", "z", ("phi", "psi"), False, ((0, "w1", 1.0), (1, "w2", 1.0))),
    "SNL_A1": _Recipe("symmetric", "z", ("phi", "psi"), False, ((1, "w", 1.0),)),
    "SNL_A2": _Recipe("random_walk", "z", ("phi", "psi"), False, ((0, "w1", 1.0), (1, "w2", 1.0))),
    "CHEB_K": _Recipe("symmetric", "z", ("phi", "psi"), False, None),
}


def _variant_terms(cfg: BlockConfig) -> tuple:
    """Polynomial terms (power k, filter role, sign) of a variant."""
    terms = _RECIPES[cfg.variant].terms
    return terms or tuple((k, f"w{k + 1}", 1.0) for k in range(cfg.order))


def _vertices(cfg: BlockConfig, n_positions: int) -> int:
    """Vertex count of a variant's graph: N, or N*C_s on the flattened
    (position, channel) graph, which may not pass CGNL_MAX_VERTICES."""
    if _RECIPES[cfg.variant].node != "v":
        return n_positions
    n = n_positions * cfg.c_s
    if n > CGNL_MAX_VERTICES:
        raise PreconditionError(f"CGNL flattened graph has {n} vertices (> {CGNL_MAX_VERTICES})")
    return n


_SAME = (lambda p: p,) * 2  # the identity as read and as unread


def _reader(cfg: BlockConfig, n_positions: int):
    """(read, unread): read maps a channel-first power of the node signal,
    (..., c, V), to the channel-first (..., c, N) map its filter weights
    act on, and unread is the adjoint. Both are the identity, except on the
    flattened graph, where they are free reshapes: vec(Z) lays the rows of
    Z^T end to end."""
    if _RECIPES[cfg.variant].node != "v":
        return _SAME
    return (lambda p: p.reshape(p.shape[:-2] + (cfg.c_s, n_positions)),
            lambda g: g.reshape(g.shape[:-2] + (1, -1)))


class Tape:
    """Intermediates of one batched forward pass, read by the backward
    pass. All are plain arrays, checked where they enter the core. The
    kernel and its gradient run in ``graph.PANEL_BYTES`` row panels when
    one (V, V) matrix holds two of them (V >= 256, 32 rows at V = 1024)
    and the stack at most ``graph.PANEL_MATRICES`` (32) matrices; any
    other stack is one panel.

    Arrays carry the batch axis first, and a thin stack keeps its
    long axis last, so NumPy's inner loops run over N or V and not over
    c_s (see the module docstring for the costs): x (B, N, C_in) as it
    entered; phi, psi, z (B, C_s, N), each the transpose of its (N, C_s)
    map; v = vec(z) (B, 1, N*C_s) (CGNL only); m the kernel (B, V, V) over
    the V graph vertices (V = N, or N*C_s for CGNL), masked for CC, the
    tape's only (V, V) array; d (B, V) the degrees of the normalized graph,
    None when the variant does not normalize; z_node (B, c, V) the signal
    the polynomial filters (x^T for CC) and powers[k] = A^k z_node in the
    same layout, with A applied by ``_Affinity``. mask is the read-only
    bool criss-cross mask (CC only).
    """

    __slots__ = ("x", "phi", "psi", "z", "v", "m", "mask", "d", "z_node", "powers")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, None)


def _check_stack(values, height: int, width: int) -> np.ndarray:
    graph._check_grid(height, width)
    xv = linalg.as_stack(values)
    if xv.shape[0] == 0:
        raise ShapeError("empty batch")
    if xv.shape[1] != height * width:
        raise ShapeError(
            f"batch has {xv.shape[1]} positions, a {height}x{width} grid has "
            f"{height * width}"
        )
    return xv


def _embed_stack(xv, cfg: BlockConfig, params: BlockParams) -> Tape:
    """The embeddings and node signal of a validated stack, channel-first."""
    recipe = _RECIPES[cfg.variant]
    t = Tape()
    t.x = xv
    t.phi, t.psi, t.z = (_t(p) for p in embed(xv, params))
    if recipe.node == "v":
        _vertices(cfg, xv.shape[1])  # raises past the vertex cap
        t.v = t.z.reshape(len(xv), 1, -1)
    t.z_node = np.ascontiguousarray(_t(xv)) if recipe.node == "x" else getattr(t, recipe.node)
    return t


def _build_affinity(xv, height: int, width: int, cfg: BlockConfig, params: BlockParams) -> Tape:
    """Embed, kernel, mask and degrees of a validated stack."""
    recipe = _RECIPES[cfg.variant]
    t = _embed_stack(xv, cfg, params)
    left, right = (_t(getattr(t, name)) for name in recipe.pair)
    t.m = graph.kernel_matrix(left, right, cfg.kernel)
    if recipe.mask:
        t.mask = graph._crisscross(height, width)
        t.m *= t.mask
    if recipe.normalization != "none":
        t.d = _degrees(t.m, recipe.normalization, cfg.kernel)
    return t


def _degrees(m: np.ndarray, mode: str, kernel: str) -> np.ndarray:
    """Degrees of the normalized graph of a kernel stack M: rowsum M for a
    random walk; for symmetric, (rowsum M + colsum M)/2, the row sums of
    M_hat = (M + M^T)/2. Raises what ``graph.degrees`` raises on M or M_hat.
    exp_dot entries are positive by construction, so only the dot kernel
    takes the min pass, and M_hat is formed only when M has a negative
    entry: M_hat can have one only then."""
    if kernel == "dot" and m.min() < 0.0:
        graph._check_nonnegative(m if mode == "random_walk" else 0.5 * (m + _t(m)))
    # row and column sums as BLAS products, M 1 and 1^T M: at (32, 64, 64)
    # both took 55 us against 92 + 86 us for the two axis sums
    ones = np.ones(m.shape[-1])
    if mode == "random_walk":
        return graph._check_degrees(m @ ones)
    return graph._check_degrees(0.5 * (m @ ones + ones @ m))


# Past this degree, which only a kernel near the exp_dot guard reaches, a
# row of M p, bounded by d max|p|, can pass the float64 range where A p,
# bounded by max|p|, cannot.
_WIDE_DEGREE = 2.0 ** 512


class _Affinity:
    """The normalized affinity A of a stack as diagonal scalings around its
    kernel stack M, applied to channel-first thin operands; A is never
    formed.

    An operand p (B, c, V) holds P^T for a (V, c) signal P, and ``a @ p``
    returns (A P)^T = P^T A^T, so products with M take the thin operand
    first: M P is ``p @ _t(m)`` and M^T P is ``p @ m``. none: A = M.
    random_walk: A = D^-1 M, so A P = (M P)/d and A^T G = M^T (G/d).
    symmetric: A = S M_hat S with S = D^-1/2, so A P = s * (M q + M^T q)/2
    with q = s * p, and A^T = A. The degree scalings broadcast a (B, 1, V)
    row. ``a @ p`` is A p and ``a.T @ g`` is A^T g in this layout, so
    ``spectral._polynomial`` and the backward take it where they would take
    a dense A. A thin stack keeps its long axis last: a (B, V, 1) column
    scaling took 14 us against 5.8 us for the row at B = 32, N = 64.
    ``_affinity`` builds one from a tape.
    """

    __slots__ = ("m", "row", "mode", "shift", "transposed")

    def __init__(self, m: np.ndarray, row, mode: str, shift=None, transposed: bool = False):
        # row: d, or s = d^-1/2 for symmetric, as a (B, 1, V) row; shift:
        # per-sample powers of two that scale p in a random walk's M p
        self.m, self.row, self.mode, self.shift = m, row, mode, shift
        self.transposed = transposed

    @property
    def T(self) -> "_Affinity":
        if self.mode == "symmetric":
            return self
        return _Affinity(self.m, self.row, self.mode, self.shift, not self.transposed)

    def __matmul__(self, p: np.ndarray) -> np.ndarray:
        m, row = self.m, self.row
        if self.mode == "symmetric":
            q = row * p
            out = q @ _t(m)
            out += q @ m
            out *= 0.5 * row
            return out
        if self.transposed:
            return (p if row is None else p / row) @ m
        if row is None:
            return p @ _t(m)
        if self.shift is None:
            out = p @ _t(m)
            out /= row
            return out
        # the powers of two change no rounding in the normal range
        out = np.ldexp(p, -self.shift) @ _t(m)
        out /= row
        return np.ldexp(out, self.shift, out=out)


def _affinity(t: Tape, cfg: BlockConfig) -> _Affinity:
    """A of a tape, from its kernel M and degrees d."""
    m, d, mode = t.m, t.d, _RECIPES[cfg.variant].normalization
    if d is None:
        return _Affinity(m, None, mode)
    row = d[:, None, :]
    if mode == "symmetric":
        return _Affinity(m, 1.0 / np.sqrt(row), mode)
    if d.max() <= _WIDE_DEGREE:
        return _Affinity(m, row, mode)
    # p is scaled so that M p stays below 2^512 max|p|
    top = row.max(axis=-1, keepdims=True)
    return _Affinity(m, row, mode, np.maximum(np.frexp(top)[1] - 512, 0))


def _filter(cfg: BlockConfig, params: BlockParams, a, z_node, n_positions: int):
    """F(A, Z) of a batch as a (B, N, C_in) stack, and the channel-first
    powers A^k z_node it applied; each term reads its power through the
    transposed view of its (B, c, N) map."""
    terms = [(k, sign * params.filters[role]) for k, role, sign in _variant_terms(cfg)]
    read = _reader(cfg, n_positions)[0]
    return spectral._polynomial(a, z_node, terms, lambda p: _t(read(p)))


# A batched call's (V, V) arrays pass glibc's default 128 KiB mmap
# threshold: 1 MiB each in an SGD step at B = 32, N = 64. glibc mapped
# such arrays fresh and unmapped or trimmed them on free, and the next
# array faulted their pages in again: about 720-775 minor faults per SGD
# step of an SNL block whose kernels were built in 256 KiB stacks. Pinning
# glibc's mmap and trim thresholds at 32 MiB, the largest mmap threshold
# it takes, keeps such arrays on the heap. Both are set because setting either one
# alone switches off glibc's dynamic threshold and faults more than
# neither. The setting is process-wide. It is made on the first call of
# more than one sample whose kernel stack passes 128 KiB, and one-sample
# calls are left to glibc's dynamic threshold: on a mix of one-sample
# N = 1024 calls that already takes no faults, and pinning at import
# raised its peak RSS by 8 MiB in 7 of 10 benchmark runs. A stack past
# 32 MiB (CGNL at c_s >= 6 and B = 32) is still mapped fresh. Where
# glibc's mallopt is missing nothing is set.
_GLIBC_MMAP_DEFAULT_BYTES = 128 * 1024
_MALLOC_THRESHOLD_BYTES = 32 * 1024 * 1024
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _pin_malloc_thresholds() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library handle
        return
    for param in (_M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD):
        mallopt(param, _MALLOC_THRESHOLD_BYTES)


def block_forward_batch(
    values: np.ndarray, height: int, width: int, cfg: BlockConfig, params: BlockParams
) -> tuple[np.ndarray, Tape]:
    """Residual forward pass Y = X + F(A, Z) of a stack of B feature maps.

    ``values`` is (B, H*W, C_in), each sample in row-major grid order, and
    is validated once here. Each sample gets its own (V, V) kernel, and
    the B kernels are one (B, V, V) stack. Returns Y (B, H*W, C_in) and
    the Tape that ``block_backward_batch`` reads, so the affinity is built
    once per forward/backward pair.
    """
    check_params(cfg, params)
    xv = _check_stack(values, height, width)
    n_vertices = _vertices(cfg, height * width)
    if len(xv) > 1 and 8 * len(xv) * n_vertices**2 > _GLIBC_MMAP_DEFAULT_BYTES:
        _pin_malloc_thresholds()
    y, t = _forward_stack(xv, height, width, cfg, params)
    if not np.isfinite(y).all():
        raise NumericError("block output contains non-finite entries")
    return y, t


def _forward_stack(xv, height: int, width: int, cfg: BlockConfig, params: BlockParams, a=None):
    """Y = X + F(A, Z) of a validated (b, N, C_in) stack as one core call,
    and its tape. ``params`` may be a ``_ParamStack``, one set of arrays
    per sample; ``a``, if given, is applied in place of the stack's own
    affinity (a frozen A), and the stack is then embedded and filtered
    only: no kernel is built. Nothing is validated or checked for
    finiteness, so the oracles run (b, ...) stacks of probes or draws
    through it."""
    if a is None:
        t = _build_affinity(xv, height, width, cfg, params)
        a = _affinity(t, cfg)
    else:
        t = _embed_stack(xv, cfg, params)
    f, t.powers = _filter(cfg, params, a, t.z_node, height * width)
    return xv + f, t


def build_block_affinity(x: FeatureMap, cfg: BlockConfig, params: BlockParams) -> AffinityMatrix:
    """The dense affinity matrix a variant aggregates with (see
    ``VARIANTS``), formed from the core's kernel M on the public graph
    route: ``graph.normalize(graph.symmetrize(M), "symmetric")``,
    ``graph.normalize(M, "random_walk")``, or M itself."""
    check_params(cfg, params)
    t = _build_affinity(_check_stack(x.values[None], x.height, x.width), x.height, x.width,
                        cfg, params)
    return _dense_affinity(t.m[0], cfg)


def _dense_affinity(m: np.ndarray, cfg: BlockConfig) -> AffinityMatrix:
    """The dense A of a kernel M, or of a (b, V, V) stack of them, on the
    public graph route of ``build_block_affinity``."""
    m = AffinityMatrix(m)
    mode = _RECIPES[cfg.variant].normalization
    if mode == "symmetric":
        m = graph.symmetrize(m)
    return m if mode == "none" else graph.normalize(m, mode)


def generalized_forward(
    a_values: np.ndarray, z_node: np.ndarray, weights: list[np.ndarray]
) -> np.ndarray:
    """Generic polynomial operator: Z W_1 + A Z W_2 + sum_k A^k Z W_{k+1}.

    Powers are applied by iterated multiplication; A^k is never formed.
    The package's one polynomial filter with a weight matrix per power;
    ``spectral.poly_filter_apply`` takes scalar coefficients.
    """
    a_values = linalg.as_matrix(a_values)
    z_node = linalg.as_matrix(z_node)
    weights = [linalg.as_matrix(w) for w in weights]
    if not weights:
        raise FilterSpecError("generalized_forward needs at least one weight")
    shapes = {w.shape for w in weights}
    if len(shapes) != 1:
        raise FilterSpecError(f"weight matrices differ in shape: {shapes}")
    if a_values.shape != (z_node.shape[0],) * 2:
        raise ShapeError(f"filter: A {a_values.shape} vs Z {z_node.shape}")
    if weights[0].shape[0] != z_node.shape[1]:
        raise ShapeError(f"filter: Z {z_node.shape} vs weights {weights[0].shape}")
    return spectral._polynomial(a_values, z_node, list(enumerate(weights)))[0]


# The key of the last block_forward's arguments and its tape, held
# for a block_backward on the same arguments; None when nothing is held.
# One entry per process, so at most one tape is ever held. Threads that
# share it can only lose hits: a tape is read only under a matching key,
# and backward passes never write to a tape.
_held = None


def _forward_key(x: FeatureMap, cfg: BlockConfig, params: BlockParams) -> tuple:
    """Everything a B=1 forward reads: the grid, every config field, the
    filter names, and a copy of the input and of each parameter array as
    bytes. Byte strings are the cheapest copy that compares exactly. The
    arrays are float64 (``FeatureMap`` and ``BlockParams`` convert them),
    and their shapes need no entry: every backward checks the parameters
    against the config and the upstream gradient against the input and
    the tape."""
    f = params.filters
    return (x.height, x.width, *vars(cfg).values(), *f, x.values.tobytes(),
            params.w_phi.tobytes(), params.w_psi.tobytes(), params.w_z.tobytes(),
            *[a.tobytes() for a in f.values()])


def block_forward(x: FeatureMap, cfg: BlockConfig, params: BlockParams) -> FeatureMap:
    """Residual forward pass Y = X + F(A, Z) per the variant's formula.

    Holds the forward's tape for a ``block_backward`` on the same
    arguments, replacing any tape held before.
    """
    global _held
    _held = None  # dropped before the build, so two tapes are never alive
    key = _forward_key(x, cfg, params)
    # the tape keeps its own copy of the input: an in-place change of
    # x.values after this call must not reach a tape the key still matches
    y, tape = block_forward_batch(x.values.copy()[None], x.height, x.width, cfg, params)
    _held = (key, tape)
    return FeatureMap(x.height, x.width, x.channels, y[0])


def _affinity_factors(t: Tape, recipe: _Recipe, kernel: str, u, v, av, atu):
    """dL/dS of the kernel's Gram matrix S = left right^T as thin factors:
    (f_left, f_right, kept) with dL/dS = (f_left^T f_right) * kept, kept
    None for no product.
    dL/dA = G comes as its factors u^T v with the products A v and A^T u
    that the filter's passes already took, all channel-first (b, w, V)
    stacks. exp_dot: M = exp(c S), c = 1/sqrt(width), so dM/dS = c M, and
    the kept array is the tape's M, which carries the mask; a random walk's
    1/d rides on the left factor. The row terms come from A v and A^T u, so
    no product with M is taken here."""
    d = None if t.d is None else t.d[:, None, :]
    ones = np.ones_like(u[:, :1])
    # sums over the factors' short axis of width w are products with a
    # ones vector, and every term is a (b, ., V) row block
    w = u.shape[-2]
    if recipe.normalization == "symmetric":
        # A = s s^T * (M + M^T)/2 with s = d^-1/2. With H = G + G^T and A
        # symmetric, q = rowsum(H * A) = rowsum(u * A v + v * A u), and
        # dL/dM = (s s^T * H)/2 - rho 1^T - 1 rho^T with rho = q/(4d), so
        # -rho pairs with a ones row on either side
        neg_rho = (np.ones(w) @ (u * av + v * atu))[:, None, :] / (-4.0 * d)
        # [s u, s v] as one product; 0.5 (s u) is (0.5 s) u to the bit
        suv = (1.0 / np.sqrt(d)) * np.concatenate([u, v], axis=-2)
        left, right = [0.5 * suv, neg_rho, ones], [suv[:, w:], suv[:, :w], ones, neg_rho]
    elif recipe.normalization == "random_walk":
        # A = D^-1 M: dL/dM = (G - r 1^T) / d with r = rowsum(G * A) = rowsum(u * A v)
        r = (np.ones(w) @ (u * av))[:, None, :]
        left, right = [u, -r], [v, ones]
    else:
        left, right = [u], [v]
    left = np.concatenate(left, axis=-2)
    if recipe.normalization == "random_walk":
        left /= d
    if kernel == "exp_dot":
        left *= 1.0 / np.sqrt(getattr(t, recipe.pair[0]).shape[-2])
        return left, _rows(right), t.m
    return left, _rows(right), t.mask  # dM/dS = 1: of M only the mask remains


def _affinity_backward(t: Tape, recipe: _Recipe, kernel: str, u, v, av, atu):
    """The gradients of the kernel's two inputs, channel-first like them,
    from the factors of ``_affinity_factors``: with S = left right^T,
    (dL/dS right)^T = right^T (dL/dS)^T and (dL/dS^T left)^T = left^T dL/dS.

    dL/dS is taken in ``graph._panels`` row panels: each panel's product
    of the factors, its product with the kept array's rows and its two
    products with the embeddings run while it is still in cache, so the
    (V, V) dL/dS is never formed when one matrix holds two
    ``graph.PANEL_BYTES`` in a stack of at most ``graph.PANEL_MATRICES``.
    The left input's gradient is written panel by panel and the right
    input's is summed over the panels, in panel order. Any other stack is
    one panel."""
    f_left, f_right, kept = _affinity_factors(t, recipe, kernel, u, v, av, atu)
    emb_l, emb_r = (getattr(t, name) for name in recipe.pair)
    g_left, g_right = np.empty_like(emb_l), 0.0
    for rows in graph._panels(len(f_left), f_left.shape[-1]):
        g_s = _t(f_left[..., rows]) @ f_right
        if kept is not None:
            g_s *= kept[..., rows, :]
        g_left[..., rows] = emb_r @ _t(g_s)
        g_right = g_right + emb_l[..., rows] @ g_s
    return g_left, g_right


def block_backward_batch(
    tape: Tape, cfg: BlockConfig, params: BlockParams, upstream_grad: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Analytic gradients of a batched forward pass, read from its Tape.

    Returns dL/dX as a (B, N, C_in) stack and, per parameter, the sum of
    the B per-sample gradients, taken over samples and positions in a
    fixed order, so repeated runs agree bit for bit. With
    ``backprop_affinity`` the gradient also flows through the kernel,
    mask, symmetrization, and degree normalization; otherwise A is
    treated as a constant.
    """
    check_params(cfg, params)
    g = linalg.as_stack(upstream_grad)
    if g.shape != tape.x.shape:
        raise ShapeError(f"upstream grad {g.shape} vs output {tape.x.shape}")
    recipe = _RECIPES[cfg.variant]
    sums, g_node, g_a_factors = _polynomial_backward(tape, cfg, params, g)
    inputs = {recipe.node: g_node}  # keyed by the tape field they are the gradient of
    if g_a_factors is not None:
        g_pair = _affinity_backward(tape, recipe, cfg.kernel, *g_a_factors)
        for name, grad in zip(recipe.pair, g_pair):
            _add(inputs, name, grad)
    if "v" in inputs:  # v = vec(z)
        _add(inputs, "z", inputs.pop("v").reshape(tape.z.shape))

    gx = g + _t(inputs["x"]) if "x" in inputs else g
    # the projections' gradients as one stack of rows: one product for
    # dL/dX and one for the weights
    projections = (("w_phi", "phi"), ("w_psi", "psi"), ("w_z", "z"))
    found = [(name, inputs[source]) for name, source in projections if source in inputs]
    if found:
        g_rows = _rows([grad for _, grad in found])
        w = np.concatenate([getattr(params, name) for name, _ in found], axis=-1)
        gx = gx + _t(g_rows) @ _t(w)
        g_w = _t(_sum_products(g_rows, tape.x))
        for i, (name, _) in enumerate(found):
            sums[name] = g_w[:, i * cfg.c_s:(i + 1) * cfg.c_s]
    grads = {name: sums[name] if name in sums else np.zeros_like(mat)
             for name, mat in params.items()}
    return gx, grads


def _polynomial_backward(tape: Tape, cfg: BlockConfig, params: BlockParams, g: np.ndarray):
    """Reverse mode through F = sum of sign * read(A^k z_node) W_role over
    a stack: each role's gradient summed over it, dL/dz_node, and
    dL/dA as the factors (u, v) of dL/dA = u^T v with the products A v and
    A^T u (None without ``backprop_affinity``), all channel-first.

    g_p[k], the gradient of powers[k] = A^k z_node, starts from the terms
    that read powers[k] and then takes A^T g_p[k + 1] from the power above,
    highest power first. That is one product with A^T per power and one
    (V, V) product for dL/dA, so the cost is linear in K.
    """
    terms = _variant_terms(cfg)
    read, unread = _reader(cfg, tape.x.shape[1])
    top = max(k for k, _, _ in terms)
    # every term's two products with g as one each: the maps the terms
    # read stacked as rows, and their signed weights stacked likewise
    c = filter_shape(cfg)[0]
    g_w = _sum_products(_rows([read(tape.powers[k]) for k, _, _ in terms]), g)
    g_read = np.concatenate([sign * params.filters[role] for _, role, sign in terms]) @ _t(g)
    per_role = {}
    g_p = [None] * (top + 1)
    for i, (k, role, sign) in enumerate(terms):
        contrib = sign * g_w[i * c:(i + 1) * c]
        per_role[role] = contrib if role not in per_role else per_role[role] + contrib
        r = unread(g_read[:, i * c:(i + 1) * c])
        g_p[k] = r if g_p[k] is None else g_p[k] + r
    a_t = _affinity(tape, cfg).T
    a_t_g = [None] * (top + 1)
    for k in range(top, 0, -1):
        a_t_g[k] = r = a_t @ g_p[k]
        g_p[k - 1] = r if g_p[k - 1] is None else g_p[k - 1] + r
    g_a = None
    if cfg.backprop_affinity:
        # dL/dA = sum_k g_p[k]^T powers[k-1] = u^T v, one product over every
        # k; A v = powers[1:] and A^T u = a_t_g[1:] were taken above
        g_a = _rows(g_p[1:]), _rows(tape.powers[:top]), _rows(tape.powers[1:]), _rows(a_t_g[1:])
    return per_role, g_p[0], g_a


def _add(grads: dict, name: str, grad: np.ndarray) -> None:
    grads[name] = grad if name not in grads else grads[name] + grad


def _rows(parts: list) -> np.ndarray:
    """Channel-first stacks as one stack of their rows; one stack is
    returned as it is, not copied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-2)


def _sum_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a[i] @ b[i] of a channel-first (B, c, N) stack a and a
    (B, N, C) stack b, the sum of a gradient over samples and positions:
    one batched product, then its sum over the batch as a product with a
    ones vector. At B = 32, N = 64, c = 6 that took 10.5 us against 17.5 us
    for one (c, B*N) (B*N, C) product, which must first copy a."""
    per_sample = a @ b
    return (np.ones(len(a)) @ per_sample.reshape(len(a), -1)).reshape(per_sample.shape[1:])


def block_backward(
    x: FeatureMap, cfg: BlockConfig, params: BlockParams, upstream_grad: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Analytic gradients of Y = X + F(A, Z) w.r.t. X and every parameter.

    With ``backprop_affinity`` the gradient also flows through the kernel,
    mask, symmetrization, and degree normalization; otherwise A is treated
    as a constant. When the arguments match the last ``block_forward``'s
    byte for byte, its held tape is read and the affinity is not built
    again; otherwise the forward is rerun. Either way the held tape is
    released. The backward through A^k costs one product with A^T per
    power, so it is linear in K, like the forward.
    """
    global _held
    held, _held = _held, None
    g = linalg.as_matrix(upstream_grad)
    if g.shape != x.values.shape:
        raise ShapeError(f"upstream grad {g.shape} vs output {x.values.shape}")
    if held is not None and held[0] == _forward_key(x, cfg, params):
        tape = held[1]
    else:
        _, tape = block_forward_batch(x.values[None], x.height, x.width, cfg, params)
    gx, grads = block_backward_batch(tape, cfg, params, g[None])
    return gx[0], grads
