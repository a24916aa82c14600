import numpy as np
import pytest

from nrpmi.bases import (
    SUPPORTED_GEOMETRIES,
    ArrayGeometry,
    dft_beam,
    orthogonal_group,
    orthogonal_groups,
    port_selection_basis,
    spectral_basis,
    temporal_basis,
)
from nrpmi.errors import DomainError


def test_geometry_validation():
    ArrayGeometry(4, 2, 4, 4)
    with pytest.raises(DomainError):
        ArrayGeometry(4, 2, 4, 1)
    with pytest.raises(DomainError):
        ArrayGeometry(5, 1, 4, 1)
    assert ArrayGeometry.from_antennas(8, 1).o1 == 4
    assert ArrayGeometry.from_antennas(2, 2).n_ports == 8


def test_port_counts_cover_supported_set():
    ports = sorted({2 * n1 * n2 for n1, n2 in SUPPORTED_GEOMETRIES})
    assert ports == [4, 8, 12, 16, 24, 32]


def test_dft_beam_known_values():
    g = ArrayGeometry(2, 1, 4, 1)
    np.testing.assert_allclose(dft_beam(g, 0, 0), [1, 1])
    np.testing.assert_allclose(dft_beam(g, 4, 0), [1, -1], atol=1e-15)
    # direct evaluation: (2,2,4,4), l=0, m=4 -> u_4 = [1, -1] repeated
    g22 = ArrayGeometry(2, 2, 4, 4)
    np.testing.assert_allclose(dft_beam(g22, 0, 4), [1, -1, 1, -1], atol=1e-15)


def test_dft_beam_unit_modulus_and_periodicity():
    g = ArrayGeometry(4, 2, 4, 4)
    for l in range(g.beams_h):
        for m in range(g.beams_v):
            v = dft_beam(g, l, m)
            np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-12)
    # periodicity is exercised through the mod-reduced phase: compare beams
    # at l and l (the grid itself has no l + N1*O1), entries must match the
    # explicit formula without mod
    l, m = 13, 6
    v = dft_beam(g, l, m)
    a = np.exp(2j * np.pi * l * np.arange(g.n1) / g.beams_h)
    u = np.exp(2j * np.pi * m * np.arange(g.n2) / g.beams_v)
    np.testing.assert_allclose(v, np.kron(a, u), atol=1e-12)


def test_dft_beam_out_of_range():
    g = ArrayGeometry(2, 1, 4, 1)
    with pytest.raises(DomainError):
        dft_beam(g, 8, 0)
    with pytest.raises(DomainError):
        dft_beam(g, 0, 1)
    with pytest.raises(DomainError):
        dft_beam(g, -1, 0)


def test_orthogonal_group_indices():
    g = ArrayGeometry(4, 1, 4, 1)
    grp = orthogonal_group(g, 0, 0)
    for k, l in enumerate([0, 4, 8, 12]):
        np.testing.assert_allclose(grp[:, k], dft_beam(g, l, 0))
    g21 = ArrayGeometry(2, 1, 4, 1)
    grp3 = orthogonal_group(g21, 3, 0)
    np.testing.assert_allclose(grp3[:, 0], dft_beam(g21, 3, 0))
    np.testing.assert_allclose(grp3[:, 1], dft_beam(g21, 7, 0))


@pytest.mark.parametrize("n1,n2", [(2, 2), (4, 2), (4, 1), (8, 1)])
def test_group_gram_matrix(n1, n2):
    # brute-force Gram matrix: N1*N2 times identity
    g = ArrayGeometry.from_antennas(n1, n2)
    for q1 in range(g.o1):
        for q2 in range(g.o2):
            grp = orthogonal_group(g, q1, q2)
            gram = grp.conj().T @ grp
            np.testing.assert_allclose(gram, n1 * n2 * np.eye(n1 * n2), atol=1e-12)


def test_orthogonal_group_offset_range():
    g = ArrayGeometry(2, 1, 4, 1)
    with pytest.raises(DomainError):
        orthogonal_group(g, 4, 0)
    with pytest.raises(DomainError):
        orthogonal_group(g, 0, 1)


GEOMETRIES = [ArrayGeometry(n1, n2, *o) for (n1, n2), o in SUPPORTED_GEOMETRIES.items()]


def kron_beam(g, l, m):
    # the uncached formula: DFT phase vectors reduced mod their period
    a = np.exp(2j * np.pi * ((l * np.arange(g.n1)) % g.beams_h) / g.beams_h)
    u = np.exp(2j * np.pi * ((m * np.arange(g.n2)) % g.beams_v) / g.beams_v)
    return np.kron(a, u)


@pytest.mark.parametrize("g", GEOMETRIES, ids=lambda g: f"{g.n1}x{g.n2}")
def test_cached_beams_match_kron_formula(g):
    for l in range(g.beams_h):
        for m in range(g.beams_v):
            assert np.array_equal(dft_beam(g, l, m), kron_beam(g, l, m))
    for q1 in range(g.o1):
        for q2 in range(g.o2):
            cols = [kron_beam(g, g.o1 * (k % g.n1) + q1, g.o2 * (k // g.n1) + q2)
                    for k in range(g.n1 * g.n2)]
            assert np.array_equal(orthogonal_group(g, q1, q2), np.column_stack(cols))


@pytest.mark.parametrize("g", GEOMETRIES, ids=lambda g: f"{g.n1}x{g.n2}")
def test_orthogonal_groups_stack_every_group(g):
    groups = orthogonal_groups(g)
    n = g.n1 * g.n2
    assert groups.shape == (g.o1, g.o2, n, n)
    for q1 in range(g.o1):
        for q2 in range(g.o2):
            assert np.array_equal(groups[q1, q2], orthogonal_group(g, q1, q2))
    with pytest.raises(ValueError):
        groups[0, 0, 0, 0] = 0


@pytest.mark.parametrize("g", GEOMETRIES, ids=lambda g: f"{g.n1}x{g.n2}")
def test_cached_beams_are_read_only(g):
    v = dft_beam(g, g.beams_h - 1, g.beams_v - 1)
    grp = orthogonal_group(g, g.o1 - 1, g.o2 - 1)
    with pytest.raises(ValueError):
        v[0] = 0
    with pytest.raises(ValueError):
        grp[0, 0] = 0
    with pytest.raises(ValueError):
        grp[:, 0] *= 2
    # a copy is writable and leaves the cache untouched
    c = grp.copy()
    c[0, 0] = 0
    assert orthogonal_group(g, g.o1 - 1, g.o2 - 1)[0, 0] != 0


@pytest.mark.parametrize("g", GEOMETRIES, ids=lambda g: f"{g.n1}x{g.n2}")
def test_cached_beams_range_checks(g):
    for l, m in [(g.beams_h, 0), (-1, 0), (0, g.beams_v), (0, -1)]:
        with pytest.raises(DomainError):
            dft_beam(g, l, m)
    for q1, q2 in [(g.o1, 0), (-1, 0), (0, g.o2), (0, -1)]:
        with pytest.raises(DomainError):
            orthogonal_group(g, q1, q2)


def test_spectral_basis_values():
    np.testing.assert_allclose(spectral_basis(4, 0), np.ones(4))
    np.testing.assert_allclose(spectral_basis(4, 2), [1, -1, 1, -1], atol=1e-15)
    w = np.exp(2j * np.pi / 3)
    np.testing.assert_allclose(spectral_basis(3, 1), [1, w, w**2], atol=1e-15)
    with pytest.raises(DomainError):
        spectral_basis(4, 4)


def test_temporal_basis_values():
    np.testing.assert_allclose(temporal_basis(1, 0), [1])
    np.testing.assert_allclose(temporal_basis(2, 1), [1, -1], atol=1e-15)
    np.testing.assert_allclose(
        temporal_basis(8, 3), np.exp(2j * np.pi * np.arange(8) * 3 / 8), atol=1e-15
    )
    with pytest.raises(DomainError):
        temporal_basis(2, 2)


@pytest.mark.parametrize("n", [3, 4, 7, 18, 36])
def test_dft_columns_orthogonal(n):
    cols = np.column_stack([spectral_basis(n, i) for i in range(n)])
    np.testing.assert_allclose(cols.conj().T @ cols, n * np.eye(n), atol=1e-12)


def test_port_selection_basis():
    np.testing.assert_allclose(port_selection_basis(4, 0), [1, 0])
    np.testing.assert_allclose(port_selection_basis(4, 1), [0, 1])
    np.testing.assert_allclose(port_selection_basis(8, 2), [0, 0, 1, 0])
    with pytest.raises(DomainError):
        port_selection_basis(4, 2)
