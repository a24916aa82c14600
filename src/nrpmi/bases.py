"""Spatial, spectral, and temporal basis vectors used by all codebooks.

The spatial basis is an oversampled 2-D DFT over a dual-polarized uniform
planar array of N1 x N2 logical ports per polarization.  Spectral (delay)
and temporal (Doppler) bases are plain DFT vectors of length N3 and N4.
Port-selection codebooks replace the DFT beams with standard basis vectors.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .combinadics import check_int_fields
from .errors import DomainError

# Supported (N1, N2) -> (O1, O2), cf. TS 38.214 tables 5.2.2.2.1-2 / 5.2.2.2.2-1
SUPPORTED_GEOMETRIES: dict[tuple[int, int], tuple[int, int]] = {
    (2, 1): (4, 1),
    (2, 2): (4, 4),
    (4, 1): (4, 1),
    (3, 2): (4, 4),
    (6, 1): (4, 1),
    (4, 2): (4, 4),
    (8, 1): (4, 1),
    (4, 3): (4, 4),
    (6, 2): (4, 4),
    (12, 1): (4, 1),
    (4, 4): (4, 4),
    (8, 2): (4, 4),
    (16, 1): (4, 1),
}

SUPPORTED_PORT_COUNTS = (4, 8, 12, 16, 24, 32)


@dataclass(frozen=True)
class ArrayGeometry:
    """Logical antenna array: port counts and oversampling per dimension."""

    n1: int
    n2: int
    o1: int
    o2: int

    def __post_init__(self):
        check_int_fields(self, "n1", "n2", "o1", "o2")
        expected = SUPPORTED_GEOMETRIES.get((self.n1, self.n2))
        if expected is None or expected != (self.o1, self.o2):
            raise DomainError(
                f"unsupported array configuration (N1,N2,O1,O2)="
                f"({self.n1},{self.n2},{self.o1},{self.o2})"
            )

    @classmethod
    def from_antennas(cls, n1: int, n2: int) -> "ArrayGeometry":
        """Build a geometry looking up the standard oversampling factors."""
        o = SUPPORTED_GEOMETRIES.get((n1, n2))
        if o is None:
            raise DomainError(f"unsupported (N1,N2)=({n1},{n2})")
        return cls(n1, n2, o[0], o[1])

    @property
    def n_ports(self) -> int:
        """Number of CSI-RS ports (dual polarization)."""
        return 2 * self.n1 * self.n2

    @property
    def beams_h(self) -> int:
        return self.n1 * self.o1

    @property
    def beams_v(self) -> int:
        return self.n2 * self.o2


def _dft_phases(count: int, index: int, period: int) -> np.ndarray:
    # Reduce the phase numerator mod the period so periodic beam indices
    # produce bit-identical vectors.
    k = (index * np.arange(count)) % period
    return np.exp(2j * np.pi * k / period)


@functools.cache
def _beam_tables(geom: ArrayGeometry) -> tuple[np.ndarray, np.ndarray]:
    """The geometry's full beam grid and its orthogonal groups, read-only.

    ``beams[l, m]`` is the beam v_{l,m}; ``groups[q1, q2]`` is the
    (N1*N2, N1*N2) group matrix, gathered from ``beams``.  Both are built
    once per geometry and shared by every caller.
    """
    n = geom.n1 * geom.n2
    beams = np.empty((geom.beams_h, geom.beams_v, n), dtype=complex)
    u = [_dft_phases(geom.n2, m, geom.beams_v) for m in range(geom.beams_v)]
    for l in range(geom.beams_h):
        a = _dft_phases(geom.n1, l, geom.beams_h)
        for m in range(geom.beams_v):
            beams[l, m] = np.kron(a, u[m])
    # column k of a group holds in-group coordinates x1 = k mod N1,
    # x2 = k // N1
    x1, x2 = np.arange(n) % geom.n1, np.arange(n) // geom.n1
    q1 = np.arange(geom.o1)[:, None, None]
    q2 = np.arange(geom.o2)[None, :, None]
    groups = beams[geom.o1 * x1 + q1, geom.o2 * x2 + q2].transpose(0, 1, 3, 2)
    groups = np.ascontiguousarray(groups)
    beams.flags.writeable = False
    groups.flags.writeable = False
    return beams, groups


def beam_grid(geom: ArrayGeometry) -> np.ndarray:
    """Every beam at once, shape (N1*O1, N2*O2, N1*N2).

    Entry [l, m] is ``dft_beam(geom, l, m)``.  The result is a read-only
    view of a cached table; copy it before changing it.
    """
    return _beam_tables(geom)[0]


def dft_beam(geom: ArrayGeometry, l: int, m: int) -> np.ndarray:
    """Oversampled 2-D DFT beam v_{l,m} of length N1*N2.

    Layout: the vertical index varies fastest, i.e. entry a*N2 + b carries
    phase 2*pi*(l*a/(O1*N1) + m*b/(O2*N2)).  The result is a read-only
    view of a cached grid; copy it before changing it.
    """
    if not 0 <= l < geom.beams_h:
        raise DomainError(f"beam index l={l} outside [0, {geom.beams_h})")
    if not 0 <= m < geom.beams_v:
        raise DomainError(f"beam index m={m} outside [0, {geom.beams_v})")
    return beam_grid(geom)[l, m]


def orthogonal_group(geom: ArrayGeometry, q1: int, q2: int) -> np.ndarray:
    """All N1*N2 mutually orthogonal beams of the group with offsets (q1, q2).

    Returns an (N1*N2, N1*N2) matrix whose column k is the beam with
    in-group coordinates x1 = k mod N1, x2 = k // N1 (horizontal fastest,
    matching the flat index convention of the beam-combination decoder).
    The result is a read-only view of a cached table; copy it before
    changing it.
    """
    if not 0 <= q1 < geom.o1:
        raise DomainError(f"group offset q1={q1} outside [0, {geom.o1})")
    if not 0 <= q2 < geom.o2:
        raise DomainError(f"group offset q2={q2} outside [0, {geom.o2})")
    return _beam_tables(geom)[1][q1, q2]


def orthogonal_groups(geom: ArrayGeometry) -> np.ndarray:
    """Every orthogonal group at once, shape (O1, O2, N1*N2, N1*N2).

    Entry [q1, q2] is ``orthogonal_group(geom, q1, q2)``.  The result is a
    read-only view of a cached table; copy it before changing it.
    """
    return _beam_tables(geom)[1]


def spectral_basis(n3: int, n3_index: int) -> np.ndarray:
    """Delay-domain DFT vector of length N3; entry t = exp(j*2pi*t*n/N3)."""
    if not 0 <= n3_index < n3:
        raise DomainError(f"tap index {n3_index} outside [0, {n3})")
    return _dft_phases(n3, n3_index, n3)


def temporal_basis(n4: int, n4_index: int) -> np.ndarray:
    """Doppler-domain DFT vector of length N4."""
    if not 0 <= n4_index < n4:
        raise DomainError(f"shift index {n4_index} outside [0, {n4})")
    return _dft_phases(n4, n4_index, n4)


def port_selection_basis(p_csirs: int, d_index: int) -> np.ndarray:
    """Standard basis vector of length P/2 selecting one CSI-RS port."""
    half = p_csirs // 2
    if not 0 <= d_index < half:
        raise DomainError(f"port index {d_index} outside [0, {half})")
    e = np.zeros(half)
    e[d_index] = 1.0
    return e
