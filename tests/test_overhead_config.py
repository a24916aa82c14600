import pytest

from nrpmi.errors import DomainError
from nrpmi.overhead import OverheadConfig, bits_i2


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
