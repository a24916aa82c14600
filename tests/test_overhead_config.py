import pytest

from nrpmi.errors import DomainError
from nrpmi.overhead import OverheadConfig, bits_i2, total_bits


@pytest.mark.parametrize("release", ["r15-type2", "r16", "r17-ps", "r18"])
@pytest.mark.parametrize("rank,k_nz", [(1, 1), (1, 0), (2, 1), (3, 2),
                                       (4, 3)])
def test_impossible_k_nz_rejected(release, rank, k_nz):
    # every layer reports its strongest coefficient, and i_2,4/i_2,5 price
    # K_NZ - 2 entries, so K_NZ below max(2, rank) has no report
    with pytest.raises(DomainError, match="k_nz"):
        OverheadConfig(release=release, rank=rank, k_nz=k_nz)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_smallest_k_nz_prices_no_negative_field(rank):
    cfg = OverheadConfig(release="r16", rank=rank, k_nz=max(2, rank))
    assert all(bits >= 0 for bits in bits_i2(cfg).entries.values())


@pytest.mark.parametrize("field,value", [
    ("l", 2.5), ("rank", 2.0), ("rank", True), ("rank", 0), ("l", 0),
    ("mv", 0), ("n3", 0), ("n4", 0), ("q", 0), ("subband_count", 0),
    ("d", 0), ("p_csirs", 32.0), ("k_nz", 20.0), ("n_psk", 3),
    ("n_psk", 8.0),
])
def test_malformed_field_names_the_field(field, value):
    # a float, bool or out-of-range field used to price a wrong budget
    # (rank=0: 556 bits, n4=0: 0 bits) or escape as a TypeError
    with pytest.raises(DomainError, match=f"^{field}="):
        OverheadConfig(release="r15-type2", **{field: value})


@pytest.mark.parametrize("release,fields,named", [
    # these priced a budget: 14,644, 15,464 and 1,928 bits
    ("r15-type2", dict(k2_cap=0), "k2_cap"),
    ("r15-ps", dict(p_csirs=7), "p_csirs"),
    ("r17-ps", dict(m_taps=5), "m_taps"),
    # these raised "cannot take log2 of 0", which names no field
    ("r16", dict(n1n2=0), "n1n2"),
    ("r18", dict(o1o2=0), "o1o2"),
    ("r17-ps", dict(k1_beams=0), "k1_beams"),
    ("r17-ps", dict(m_taps=2, n_window=1), "n_window"),
    ("r17-ps", dict(k1_beams=40, p_csirs=32), "k1_beams"),
    ("r16", dict(mv=30, n3=18), "mv"),
    ("r18", dict(mv=30, n3=18), "mv"),
    ("r16-ps", dict(mv=30, n3=18), "mv"),
    ("r15-type2", dict(l=4, n1n2=2), "l"),
    ("r17-ps", dict(k1_beams=7, p_csirs=8), "k1_beams"),
    ("r17-ps", dict(m_taps=3), "m_taps"),
    ("r17-ps", dict(n_window=3), "n_window"),
    ("r16-ps", dict(p_csirs=64), "p_csirs"),
    # these priced 15,460, 1,296, 980, 501 and 1,307 bits, where the
    # codebooks need L <= P/2, 1 <= d <= min(P/2, L), N4 in {1, 2, 4, 8}
    # and Q = 2 (1 at N4 = 1)
    ("r15-ps", dict(l=4, p_csirs=4), "l"),
    ("r16-ps", dict(d=99), "d"),
    ("r16-ps", dict(d=3, l=2), "d"),
    ("r18", dict(n4=3), "n4"),
    ("r18", dict(q=7), "q"),
    ("r18", dict(n4=1, q=2), "q"),
    ("r15-ps", dict(d=5, l=4, p_csirs=8), "d"),
    ("r16-ps", dict(l=5, p_csirs=8), "l"),
])
def test_out_of_range_field_names_the_field(release, fields, named):
    with pytest.raises(DomainError, match=f"^{named}="):
        OverheadConfig(release=release, **fields)


@pytest.mark.parametrize("release,fields", [
    # a bound between two fields binds only where the release prices both
    ("r15-ps", dict(p_csirs=8, k1_beams=16)),
    ("r15-type2", dict(mv=30, n3=18)),
    ("r17-ps", dict(l=4, n1n2=2)),
    ("r17-ps", dict(p_csirs=8, k1_beams=8, m_taps=2, n_window=4)),
    ("r16", dict(mv=18, n3=18)),
    # the port and Rel-18 bounds bind only on the releases that have them
    ("r15-ps", dict(l=4, p_csirs=8, d=4)),
    ("r16-ps", dict(l=2, p_csirs=4, d=2)),
    ("r16", dict(l=4, p_csirs=4, d=99)),
    ("r18", dict(n4=1, q=1)),
    ("r16", dict(n4=3, q=7)),
])
def test_fields_in_range_are_priced(release, fields):
    assert total_bits(OverheadConfig(release=release, **fields)) > 0
