import itertools

import numpy as np
import pytest

from nrpmi import type1, type2_r15, type2_r16, type2_r17, type2_r18
from nrpmi.bases import ArrayGeometry
from nrpmi.combinadics import (
    array_bits,
    binomial,
    decode_combination,
    decode_group_restriction,
    encode_combination,
    encode_group_restriction,
    read_bits,
    split_beam_index,
)
from nrpmi.errors import DomainError, FormatError

GEOM = ArrayGeometry(4, 2, 4, 4)


def rank_oracle(subset, n, k):
    # independent evaluation of the ranking sum
    import math

    return sum(math.comb(n - 1 - v, k - i) if n - 1 - v >= k - i else 0
               for i, v in enumerate(subset))


def test_binomial():
    assert binomial(4, 2) == 6
    assert binomial(3, 4) == 0  # zero extension
    assert binomial(16, 4) == 1820
    assert binomial(0, 0) == 1
    with pytest.raises(DomainError):
        binomial(-1, 2)


def test_decode_known_values():
    assert decode_combination(0, 4, 2) == (2, 3)
    assert decode_combination(5, 4, 2) == (0, 1)
    assert decode_combination(4, 5, 1) == (0,)


def test_decode_extremes():
    for n in range(1, 10):
        for k in range(1, min(n, 5) + 1):
            assert decode_combination(0, n, k) == tuple(range(n - k, n))
            assert decode_combination(binomial(n, k) - 1, n, k) == tuple(range(k))


def test_encode_decode_roundtrip_exhaustive():
    # bijection against brute-force enumeration of the ranking formula
    for n in range(1, 13):
        for k in range(1, min(n, 6) + 1):
            seen = {}
            for subset in itertools.combinations(range(n), k):
                idx = encode_combination(subset, n, k)
                assert idx == rank_oracle(subset, n, k)
                assert idx not in seen
                seen[idx] = subset
                assert decode_combination(idx, n, k) == subset
            assert sorted(seen) == list(range(binomial(n, k)))


def test_encode_rejects_malformed():
    with pytest.raises(DomainError):
        encode_combination((1, 1), 4, 2)
    with pytest.raises(DomainError):
        encode_combination((3, 1), 4, 2)
    with pytest.raises(DomainError):
        encode_combination((0, 4), 4, 2)
    with pytest.raises(FormatError):
        decode_combination(6, 4, 2)


def test_split_beam_index():
    assert split_beam_index(0, 4) == (0, 0)
    assert split_beam_index(5, 4) == (1, 1)
    assert split_beam_index(7, 2) == (1, 3)


def test_group_restriction_known_values():
    groups = decode_group_restriction(0, 2, 2)
    assert [g for g, _, _ in groups] == [0, 1, 2, 3]
    assert encode_group_restriction([0, 1, 2, 3], 4, 4) == 1819
    decoded = decode_group_restriction(1819, 4, 4)
    assert [g for g, _, _ in decoded] == [0, 1, 2, 3]
    # (r1, r2) split
    assert decoded[1] == (1, 1, 0)
    with pytest.raises(DomainError):
        decode_group_restriction(0, 2, 1)


@pytest.mark.parametrize("o1,o2", [(2, 2), (4, 4)])
def test_group_restriction_roundtrip(o1, o2):
    for groups in itertools.combinations(range(o1 * o2), 4):
        beta1 = encode_group_restriction(groups, o1, o2)
        decoded = decode_group_restriction(beta1, o1, o2)
        assert tuple(g for g, _, _ in decoded) == groups
        for g, r1, r2 in decoded:
            assert r1 == g % o1
            assert r2 == (g - r1) // o1


def test_array_bits_msb_first_in_c_order():
    assert array_bits(5, 4) == "0101"
    assert array_bits([[1, 2], [3, 0]], 2) == "01101100"
    assert array_bits(np.array([6], dtype=np.int8), 3) == "110"


def test_array_bits_width_0_is_empty():
    assert array_bits(0, 0) == ""
    assert array_bits([0, 0, 0], 0) == ""
    assert array_bits([1, 0, 3], [1, 0, 2]) == "111"


def test_array_bits_broadcasts_widths():
    # one width per column, as the Rel-15 (i13, k1) block is written
    assert array_bits([[3, 1, 0], [2, 7, 5]], [2, 3, 3]) == "11001000" "10111101"
    assert array_bits([1, 2], [[2], [3]]) == "01" "10" "001" "010"


@pytest.mark.parametrize("values, widths, match", [
    (4, 2, "value 4 does not fit in 2 bits"),
    (1, 0, "value 1 does not fit in 0 bits"),
    ([1, -1], 3, "value -1 does not fit in 3 bits"),
])
def test_array_bits_rejects_a_value_that_does_not_fit(values, widths, match):
    with pytest.raises(FormatError, match=match):
        array_bits(values, widths)


@pytest.mark.parametrize("bits", [
    "1011", [1, 0, 1, 1], (True, False, True, True),
    np.array([1, 0, 1, 1], dtype=np.uint8), np.array([1, 0, 1, 1], bool),
    [np.int64(1), 0, True, 1],
])
def test_read_bits_reads_every_form_in_order(bits):
    out = read_bits(bits, 4, "B")
    assert out.tolist() == [1, 0, 1, 1]
    assert out.dtype.kind == "i"


@pytest.mark.parametrize("bits, match", [
    ("101", "B needs 4 bits, got 3"),
    ([1, 0, 1, 1, 0], "B needs 4 bits, got 5"),
    ("", "B needs 4 bits, got 0"),
    ([], "B needs 4 bits, got 0"),
    ("1021", "B must be a string of 0/1"),
    ("10 1", "B must be a string of 0/1"),
    ([1, 0, 2, 1], "B must be a string of 0/1"),
    ([1, 0, 0.5, 1], "B must be a string of 0/1"),
    ([1, 0, "1", 1], "B must be a string of 0/1"),
    (np.array(["1", "0", "1", "1"]), "B must be a string of 0/1"),
    ([[1, 0], [1, 1]], "B must be a string of 0/1"),
    ([[1], [0, 1, 1]], "B must be a string of 0/1"),
    (1011, "B must be a string of 0/1"),
    (None, "B must be a string of 0/1"),
])
def test_read_bits_names_a_malformed_sequence(bits, match):
    with pytest.raises(DomainError, match=match):
        read_bits(bits, 4, "B")


# each was accepted, or failed later with a bare IndexError or TypeError
@pytest.mark.parametrize("build, field", [
    (lambda: type2_r18.R18Config(GEOM, 2, 1, 12, 4.0), "n4"),
    (lambda: type2_r15.T2R15Config(l=2, geom=GEOM, subband_count=2.5),
     "subband_count"),
    (lambda: type2_r15.T2R15Config(l=2.0, geom=GEOM), "l"),
    (lambda: type2_r15.T2R15Config(l=2, p_csirs=16, d=1.0), "d"),
    (lambda: type1.Type1Config(GEOM, subband_count=1.5), "subband_count"),
    (lambda: type1.Type1Config(GEOM, rank=True), "rank"),
    (lambda: type2_r16.R16Config(2, 1, 18.0, geom=GEOM), "n3"),
    (lambda: type2_r16.R16Config(2, 1, 18, rank=2.0, geom=GEOM), "rank"),
    (lambda: type2_r16.R16Config(2, 1, 18, rank=True, geom=GEOM), "rank"),
    (lambda: type2_r17.R17Config(16, 6, 12, rank=1.0), "rank"),
    (lambda: type2_r17.R17Config(16.0, 6, 12), "p_csirs"),
    (lambda: ArrayGeometry(2.0, 1, 4, 1), "n1"),
])
def test_every_config_names_a_non_integer_field(build, field):
    with pytest.raises(DomainError, match=f"^{field}=.* must be an integer"):
        build()
