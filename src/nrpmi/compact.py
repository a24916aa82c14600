"""Compact matrix and tensor forms of the codebooks.

Setting aside scaling, normalization and quantization, every codebook is a
product of basis factors and a coefficient core: per-subband combination
(Rel-15), a space-frequency matrix product (Rel-16/17), or a Tucker-form
tensor with spatial, spectral, and temporal factors (Rel-18).  Each model
comes in two algebraically identical forms: (a) effective bases (selected
columns only) and (b) full bases with a sparse coefficient container.
"""

import numpy as np

from .bases import ArrayGeometry, orthogonal_group, spectral_basis, temporal_basis
from .errors import DomainError


def spatial_full_regular(geom: ArrayGeometry, q1: int, q2: int) -> np.ndarray:
    """Block-diagonal (P, P) matrix of the selected orthogonal beam group."""
    v = orthogonal_group(geom, q1, q2)
    return _blockdiag(v, v)


def spatial_effective_regular(geom: ArrayGeometry, q1: int, q2: int,
                              beams) -> np.ndarray:
    """Block-diagonal (P, 2L) matrix of the selected beams."""
    v = orthogonal_group(geom, q1, q2)[:, list(beams)]
    return _blockdiag(v, v)


def spatial_full_ps(p_csirs: int) -> np.ndarray:
    return np.eye(p_csirs)


def spatial_effective_ps(p_csirs: int, ports) -> np.ndarray:
    half = p_csirs // 2
    sel = np.zeros((half, len(ports)))
    for j, d in enumerate(ports):
        if not 0 <= d < half:
            raise DomainError(f"port {d} outside [0, {half})")
        sel[d, j] = 1.0
    return _blockdiag(sel, sel)


def frequency_full(n3: int) -> np.ndarray:
    return np.column_stack([spectral_basis(n3, n) for n in range(n3)])


def frequency_effective(n3: int, taps) -> np.ndarray:
    return np.column_stack([spectral_basis(n3, t) for t in taps])


def temporal_full(n4: int) -> np.ndarray:
    return np.column_stack([temporal_basis(n4, n) for n in range(n4)])


def temporal_effective(n4: int, shifts) -> np.ndarray:
    return np.column_stack([temporal_basis(n4, s) for s in shifts])


def _blockdiag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]),
                   dtype=np.result_type(a, b))
    out[:a.shape[0], :a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


def embed_sparse(core: np.ndarray, beams, half_dim: int,
                 *axes) -> np.ndarray:
    """Sparse coefficient container for the full bases: the core's entries
    at the selected beam rows of both polarizations and, for each trailing
    axis given as an (indices, size) pair, at the selected positions.

    Rel-15 has no trailing axis (a (P,) vector), Rel-16/17 one (taps, N3)
    and Rel-18 two (taps, N3) and (shifts, N4).
    """
    shape = (2 * len(beams),) + tuple(len(idx) for idx, _ in axes)
    if core.shape != shape:
        raise DomainError(f"core must have shape {shape}, got {core.shape}")
    out = np.zeros((2 * half_dim,) + tuple(size for _, size in axes),
                   dtype=complex)
    rows = [*beams, *(half_dim + b for b in beams)]
    out[np.ix_(rows, *(list(idx) for idx, _ in axes))] = core
    return out


def compact_r15(spatial: np.ndarray, w_c: np.ndarray) -> np.ndarray:
    """Per-subband precoding vector: spatial (effective or full) times core."""
    return spatial @ w_c


def compact_r16(spatial: np.ndarray, w_c: np.ndarray,
                frequency: np.ndarray) -> np.ndarray:
    """Space-frequency precoding matrix (P, N3) = S @ W_c @ F^T."""
    return spatial @ w_c @ frequency.T


def compact_r18_tucker(core: np.ndarray, spatial: np.ndarray,
                       frequency: np.ndarray, temporal: np.ndarray) -> np.ndarray:
    """Tucker synthesis: core x1 spatial x2 frequency x3 temporal."""
    return np.einsum("abc,pa,tb,nc->ptn", core, spatial, frequency, temporal)


def tucker_flatten_identity(core: np.ndarray, spatial: np.ndarray,
                            frequency: np.ndarray,
                            temporal: np.ndarray) -> np.ndarray:
    """(F kron S) @ vec-core @ T^T, the matricized form of the Tucker product.

    Row p*... of the result follows the column-major vec convention
    vec(S W F^T) = (F kron S) vec(W): row index t * P + p.
    """
    p, n3 = spatial.shape[0], frequency.shape[0]
    mat = np.kron(frequency, spatial)            # (N3*P, Mv*2L)
    core_unf = core.reshape(core.shape[0] * core.shape[1], core.shape[2],
                            order="F")           # (2L*Mv, Q), spatial fastest
    flat = mat @ core_unf @ temporal.T           # (N3*P, N4)
    return flat.reshape(p, n3, temporal.shape[0], order="F")
