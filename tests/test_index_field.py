"""The one reader of Rel-16 to Rel-18 report index fields, the public
readers that go through it or through ``check_beams``, and the Rel-15
readers that check a field before they use it.

Every malformed field must be rejected with a ``CodebookError`` subclass
that names it; none may escape as IndexError, TypeError or a bare
ValueError, and none may decode into a different precoder."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrpmi import enhanced, type2_r15, type2_r16, type2_r17, type2_r18
from nrpmi.bases import ArrayGeometry
from nrpmi.errors import CodebookError, DomainError, FormatError

GEOM = ArrayGeometry(4, 2, 4, 4)


def report(config, module, seed=0):
    return module.random_valid_pmi(config, np.random.default_rng(seed))


R16 = type2_r16.R16Config(param_combination=4, r=1, n3=18, rank=2, geom=GEOM)
R16_WINDOW = type2_r16.R16Config(param_combination=6, r=1, n3=24, rank=1,
                                 geom=GEOM)
R16_PS = type2_r16.R16Config(param_combination=2, r=1, n3=8, rank=2,
                             p_csirs=16, d=1)
R17 = type2_r17.R17Config(p_csirs=16, param_combination=6, n3=12,
                          n_threshold=4, rank=2)
R17_ALPHA1 = type2_r17.R17Config(p_csirs=8, param_combination=2, n3=6)
R17_WINDOW2 = type2_r17.R17Config(p_csirs=8, param_combination=7, n3=8,
                                  n_threshold=2)
R18 = type2_r18.R18Config(geom=GEOM, param_combination=2, r=1, n3=12, n4=4,
                          rank=2)
R18_RANK1 = type2_r18.R18Config(geom=GEOM, param_combination=2, r=1, n3=12,
                                n4=4, rank=1)
R18_N4_1 = type2_r18.R18Config(geom=GEOM, param_combination=2, r=1, n3=12,
                               n4=1, rank=2)
R15 = type2_r15.T2R15Config(l=2, rank=1, geom=GEOM)


# ---------------------------------------------------------------------------
# index_field

def test_index_field_reads_a_field_and_one_layer_of_it():
    pmi = report(R18, type2_r18)
    assert enhanced.index_field(R18, pmi, "i12", 2 ** 40) == pmi.i12
    for layer in range(R18.rank):
        assert enhanced.index_field(R18, pmi, "i110", 3, per_layer=True)[
            layer] == pmi.i110[layer]
    assert enhanced.index_field(R18, pmi, "i15", None) is None


@pytest.mark.parametrize("name, value, count, layer, error, match", [
    ("i15", 0, None, None, FormatError, r"^i_1,5 must be absent$"),
    ("i110", (0, 0), None, 0, FormatError, r"^i_1,10 must be absent$"),
    ("i110", None, 3, 0, FormatError,
     r"^i_1,10 must hold one index per layer$"),
    ("i110", (0,), 3, 0, FormatError,
     r"^i_1,10 must hold one index per layer$"),
    ("i110", (0, 1.0), 3, 0, FormatError,
     r"^i_1,10 must hold one index per layer$"),
    ("i110", (3, 0), 3, 0, FormatError, r"^i_1,10=3 outside \[0, 3\)$"),
    ("i110", (-1, 0), 3, 0, FormatError, r"^i_1,10=-1 outside \[0, 3\)$"),
    ("i12", True, 5, None, FormatError, r"^i_1,2=True outside \[0, 5\)$"),
    ("i12", 2.0, 5, None, FormatError, r"^i_1,2=2.0 outside \[0, 5\)$"),
    ("i12", (2,), 5, None, FormatError, r"^i_1,2=\(2,\) outside \[0, 5\)$"),
])
def test_index_field_names_the_field_it_rejects(name, value, count, layer,
                                                error, match):
    pmi = replace(report(R18, type2_r18), **{name: value})
    with pytest.raises(error, match=match):
        enhanced.index_field(R18, pmi, name, count,
                             per_layer=layer is not None)


# ---------------------------------------------------------------------------
# the readers that once leaked

@pytest.mark.parametrize("i110", [(1.5,), (True,), 2, None, (3,), (-1,)])
def test_decode_shifts_rejects_a_malformed_i110(i110):
    # (1.5,) decoded to shifts (0, 2.5) and (True,) to (0, 2); 2 raised
    # TypeError
    pmi = replace(report(R18_RANK1, type2_r18), i110=i110)
    with pytest.raises(FormatError, match=r"^i_1,10"):
        type2_r18.decode_shifts(R18_RANK1, pmi)[0]


def test_decode_shifts_reads_i110_only_when_n4_exceeds_1():
    pmi = report(R18_N4_1, type2_r18)
    assert type2_r18.decode_shifts(R18_N4_1, pmi)[1] == (0,)
    with pytest.raises(FormatError, match=r"^i_1,10 must be absent$"):
        type2_r18.decode_shifts(R18_N4_1, replace(pmi, i110=(0, 0)))[0]
    pmi = report(R18, type2_r18)
    assert type2_r18.decode_shifts(R18, pmi)[1] == (0, pmi.i110[1] + 1)


@pytest.mark.parametrize("i16", [(1.0, 0), 3, (), (0,), (True, 0)])
def test_decode_taps_rejects_a_malformed_i16(i16):
    # (1.0,) decoded as tap index 1; 3 raised TypeError and () IndexError
    pmi = replace(report(R16, type2_r16), i16=i16)
    with pytest.raises(FormatError, match=r"^i_1,6"):
        enhanced.decode_taps(R16, pmi)[0]


def test_m_initial_reads_i15_in_window_mode_only():
    pmi = report(R16_WINDOW, type2_r16)
    mv = R16_WINDOW.mv
    for i15, m_init in ((0, 0), (1, 1 - 2 * mv), (2 * mv - 1, -1)):
        assert enhanced.m_initial(R16_WINDOW, replace(pmi, i15=i15)) == m_init
    for i15 in (2 * mv, -1, None, 1.0, True):
        with pytest.raises(FormatError, match=r"^i_1,5"):
            enhanced.m_initial(R16_WINDOW, replace(pmi, i15=i15))
    with pytest.raises(FormatError, match=r"^i_1,5 must be absent$"):
        enhanced.m_initial(R16, replace(report(R16, type2_r16), i15=0))


@pytest.mark.parametrize("i18", [(1.5, 0), (0,), None, (True, 0), (-1, 0)])
def test_strongest_rejects_a_malformed_i18(i18):
    pmi = replace(report(R16, type2_r16), i18=i18)
    with pytest.raises(FormatError, match=r"^i_1,8"):
        enhanced.strongest(R16, pmi)[0]


def test_strongest_reads_the_bitmap_as_validate_budget_does():
    # a bitmap with one layer too few raised IndexError, one with a beam
    # too few read a smaller plane
    pmi = report(R16, type2_r16)
    for bitmap in (pmi.bitmap[:1], pmi.bitmap[:, :-1], pmi.bitmap.tolist()[:1]):
        with pytest.raises(FormatError, match=r"^bitmap must have shape"):
            enhanced.strongest(R16, replace(pmi, bitmap=bitmap))[1]
    with pytest.raises(FormatError, match=r"^bitmap must be an integer"):
        enhanced.strongest(R16, replace(pmi, bitmap=pmi.bitmap * 1.0))[0]


def test_r17_i12_is_absent_when_alpha_is_1():
    pmi = report(R17_ALPHA1, type2_r17)
    assert type2_r17.decode_ports(R17_ALPHA1, pmi) == tuple(
        range(R17_ALPHA1.l))
    with pytest.raises(FormatError, match=r"^i_1,2 must be absent$"):
        type2_r17.decode_ports(R17_ALPHA1, replace(pmi, i12=0))
    pmi = report(R17, type2_r17)
    for i12 in (None, -1, 1.0, 10 ** 9):
        with pytest.raises(FormatError, match=r"^i_1,2"):
            type2_r17.decode_ports(R17, replace(pmi, i12=i12))


@pytest.mark.parametrize("config, taps", [
    (R17_ALPHA1, (0,)),      # M = 1
    (R17_WINDOW2, (0, 1)),   # M = 2 on a window of 2
])
def test_r17_taps_are_0_to_m_when_i16_is_not_reported(config, taps):
    pmi = report(config, type2_r17)
    assert not config.i16_reported and pmi.i16 is None
    assert type2_r17.decode_tap_offset(config, pmi) == taps
    with pytest.raises(FormatError, match=r"^i_1,6 must be absent$"):
        type2_r17.decode_tap_offset(config, replace(pmi, i16=0))


def test_r17_i16_picks_the_second_tap_in_the_window():
    pmi = report(R17, type2_r17)
    assert R17.i16_reported
    for i16 in range(R17.window - 1):
        assert type2_r17.decode_tap_offset(R17, replace(pmi, i16=i16)) == \
            (0, i16 + 1)
    for i16 in (R17.window - 1, -1, None, 1.0, (0,)):
        with pytest.raises(FormatError, match=r"^i_1,6"):
            type2_r17.decode_tap_offset(R17, replace(pmi, i16=i16))


# ---------------------------------------------------------------------------
# public readers that check their report's fields first

def test_beam_grid_indices_rejects_i11_off_the_grid():
    # (9, 0) gave beams off the 16-column grid
    pmi = report(R16, type2_r16)
    with pytest.raises(DomainError, match=r"^i_1,1=\(9, 0\)"):
        enhanced.beam_grid_indices(R16, replace(pmi, i11=(9, 0)))
    with pytest.raises(FormatError, match=r"^i_1,2"):
        enhanced.beam_grid_indices(R16, replace(pmi, i12=-1))
    with pytest.raises(DomainError, match="regular variant"):
        enhanced.beam_grid_indices(R16_PS, report(R16_PS, type2_r16))


def test_check_restriction_checks_the_beams_and_k1_first():
    pmi = report(R15, type2_r15)
    caps = np.ones((GEOM.beams_h, GEOM.beams_v))
    type2_r15.check_restriction(R15, pmi, caps)
    with pytest.raises(DomainError, match=r"^i_1,1=\(9, 0\)"):
        type2_r15.check_restriction(R15, replace(pmi, i11=(9, 0)), caps)
    with pytest.raises(FormatError, match=r"^k1 must have shape"):
        type2_r15.check_restriction(R15, replace(pmi, k1=np.zeros((1, 3),
                                                                  int)), caps)
    with pytest.raises(FormatError, match=r"^k1 must be an integer array"):
        type2_r15.check_restriction(R15, replace(pmi, k1=pmi.k1 * 1.0), caps)
    with pytest.raises(DomainError, match=r"^k1 outside \[0, 7\]$"):
        type2_r15.check_restriction(R15, replace(pmi, k1=pmi.k1 + 8), caps)


@pytest.mark.parametrize("i13, error", [
    ((9,), DomainError), ((-1,), DomainError), ((0, 0), FormatError),
    ((1.0,), FormatError), (0, FormatError),
])
def test_canonicalize_and_reporting_mask_check_i13(i13, error):
    pmi = report(R15, type2_r15)
    with pytest.raises(error, match=r"^i_1,3"):
        type2_r15.canonicalize(R15, replace(pmi, i13=i13))
    with pytest.raises(error, match=r"^i_1,3"):
        type2_r15.reporting_mask(R15, pmi.k1, i13)


R15_RANK2 = type2_r15.T2R15Config(l=2, rank=2, subband_count=2, geom=GEOM)


def test_canonicalize_rejects_a_k1_of_another_shape():
    # a (1, 4) k1 raised a bare IndexError
    pmi = report(R15_RANK2, type2_r15)
    with pytest.raises(FormatError, match=r"^k1 must have shape \(2, 4\)$"):
        type2_r15.canonicalize(R15_RANK2, replace(pmi, k1=pmi.k1[:1]))


@pytest.mark.parametrize("field, change", [("k1", 1.5), ("c", 0.4)])
def test_canonicalize_rejects_a_float_array(field, change):
    # k1 * 1.5 and c + 0.4 were truncated to integers
    pmi = report(R15_RANK2, type2_r15)
    a = getattr(pmi, field)
    bad = a * change if field == "k1" else a + change
    with pytest.raises(FormatError, match=f"^{field} must be an integer array"):
        type2_r15.canonicalize(R15_RANK2, replace(pmi, **{field: bad}))


def test_canonicalize_rejects_a_k2_of_another_shape():
    # a (2, 1, 4) k2 came back as it was, and a (2, 2, 4, 1) one was
    # broadcast to (2, 2, 4, 4)
    pmi = report(R15_RANK2, type2_r15)
    for k2 in (pmi.k2[:, :1], pmi.k2[..., None]):
        with pytest.raises(FormatError, match=r"^k2 must have shape"):
            type2_r15.canonicalize(R15_RANK2, replace(pmi, k2=k2))


def test_reporting_mask_rejects_a_k1_it_cannot_read():
    # a (1, 4) k1 gave a (1, 4) mask and a (2, 2) k1 a (2, 2) mask, both
    # for a rank-2, L = 2 config; a float k1 was read as it was
    pmi = report(R15_RANK2, type2_r15)
    for k1 in (pmi.k1[:1], pmi.k1[:, :2]):
        with pytest.raises(FormatError, match=r"^k1 must have shape"):
            type2_r15.reporting_mask(R15_RANK2, k1, pmi.i13)
    with pytest.raises(FormatError, match=r"^k1 must be an integer array"):
        type2_r15.reporting_mask(R15_RANK2, pmi.k1 * 1.0, pmi.i13)
    found = type2_r15.reporting_mask(R15_RANK2, pmi.k1, pmi.i13)
    assert [a.shape for a in found] == [(2, 4), (2, 4)]


def test_m_initial_reads_a_numpy_unsigned_i15_without_wrapping():
    # np.uint8(1) - 2Mv wrapped to 256 + 1 - 2Mv
    pmi = report(R16_WINDOW, type2_r16)
    mv = R16_WINDOW.mv
    assert enhanced.m_initial(R16_WINDOW, replace(pmi, i15=np.uint8(1))) == \
        1 - 2 * mv


def test_encode_strongest_rejects_a_cell_off_the_plane():
    # (99, 0) and (0, 5) gave i18 values past the plane of a rank-2 layer
    pmi = report(R16, type2_r16)
    i_star, s_star = enhanced.strongest(R16, pmi)[0]
    assert enhanced.encode_strongest(R16, pmi.bitmap[0], i_star,
                                     s_star) == pmi.i18[0]
    for cell in ((99, 0), (0, 5), (-1, 0), (0, -1), (1.0, 0)):
        with pytest.raises(DomainError):
            enhanced.encode_strongest(R16, pmi.bitmap[0], *cell)


def test_encode_strongest_rejects_an_unreported_cell_when_prefix_coded():
    # rank 1 codes i18 among the reported cells of the plane: an unreported
    # (i*, s*) has no such position
    pmi = report(R18_RANK1, type2_r18)
    plane = enhanced._plane(R18_RANK1, pmi.bitmap[0])
    assert enhanced._prefix_coded(R18_RANK1)
    for i, s in np.argwhere(plane == 0).tolist():
        with pytest.raises(DomainError, match="not reported"):
            enhanced.encode_strongest(R18_RANK1, pmi.bitmap[0], i, s)
    for i, s in np.argwhere(plane == 1).tolist():
        i18 = enhanced.encode_strongest(R18_RANK1, pmi.bitmap[0], i, s)
        assert enhanced._star(R18_RANK1, pmi.bitmap[0], i18) == (i, s)


# ---------------------------------------------------------------------------
# fuzz: every reader returns or raises a CodebookError

def _readers(config, pmi):
    """The public readers of ``config``'s index fields, as thunks."""
    if isinstance(config, type2_r17.R17Config):
        return [lambda: type2_r17.decode_ports(config, pmi),
                lambda: type2_r17.decode_tap_offset(config, pmi),
                lambda: enhanced.strongest(config, pmi)]
    readers = [lambda: enhanced.m_initial(config, pmi),
               lambda: enhanced.decode_taps(config, pmi),
               lambda: enhanced.strongest(config, pmi),
               lambda: enhanced.beam_grid_indices(config, pmi)]
    if isinstance(config, type2_r18.R18Config):
        readers.append(lambda: type2_r18.decode_shifts(config, pmi))
    return readers


FUZZED = {
    "r16": (R16, type2_r16), "r16-window": (R16_WINDOW, type2_r16),
    "r16-ps": (R16_PS, type2_r16), "r17": (R17, type2_r17),
    "r17-alpha1": (R17_ALPHA1, type2_r17), "r18": (R18, type2_r18),
    "r18-rank1": (R18_RANK1, type2_r18), "r18-n4-1": (R18_N4_1, type2_r18),
}
SCALARS = st.one_of(
    st.integers(-3, 70), st.integers(min_value=2 ** 62),
    st.integers(max_value=-2 ** 62), st.floats(), st.booleans(), st.none(),
    st.integers(-3, 70).map(np.int64))
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=5).map(tuple),
                   st.lists(st.integers(-3, 70), max_size=5))


@pytest.mark.parametrize("name", FUZZED)
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data())
def test_every_reader_returns_or_raises_a_codebook_error(name, data):
    config, module = FUZZED[name]
    pmi = report(config, module)
    fields = [f for f in ("i11", "i12", "i15", "i16", "i18", "i110",
                          "bitmap") if hasattr(pmi, f)]
    field = data.draw(st.sampled_from(fields))
    value = data.draw(VALUES)
    bad = replace(pmi, **{field: value})
    for read in _readers(config, bad):
        try:
            read()
        except CodebookError:
            pass
