"""Oracle tests for the report bit writer.

Every serializer writes its report as one list of (values, bit width)
segments through ``combinadics.array_bits``.  The reference copies below
are the earlier per-field writers, verbatim: ``field_bits``,
``enhanced.serialize`` and ``tap_fields``, the Rel-15 Type II
``serialize_pmi``, and the Rel-16, Rel-17 and Rel-18 ``serialize_pmi``
that fed them.  Every drawn report must give the same bit string on a
sweep over every release and variant, ranks 1-4 where the table allows
them, Rel-15 with and without subband amplitudes, Rel-16 with and without
the i15 window, Rel-18 at every N4, and the width-0 fields: i12 with
C(N1*N2, L) = 1, i16 with Mv = 1 and i110 with N4 = 2.
"""

import numpy as np
import pytest

from nrpmi import cli, enhanced, type2_r15, type2_r16, type2_r17, type2_r18
from nrpmi.combinadics import array_bits, binomial, clog2
from nrpmi.enhanced import _plane, _star, grid, strongest_cell
from nrpmi.errors import FormatError

# ---------------------------------------------------------------------------
# reference copies


def field_bits(value: int, width: int) -> str:
    """``value`` as ``width`` bits, MSB first."""
    if width == 0:
        return ""
    if not 0 <= value < (1 << width):
        raise FormatError(f"value {value} does not fit in {width} bits")
    return format(value, f"0{width}b")


def tap_fields_ref(config, pmi) -> list[tuple[int, int]]:
    """(value, bit width) of i15 (window mode only) and each layer's i16."""
    head = [(pmi.i15, clog2(2 * config.mv))] if config.window_mode else []
    return head + [(i16, clog2(config.i16_count)) for i16 in pmi.i16]


def serialize_ref(config, pmi, head, tail=()) -> str:
    """Report bits, MSB first: the ``head`` fields, each layer's bitmap
    (tap-major, then shift, beams ascending), each layer's i18, the
    ``tail`` fields, then i2: the weaker polarization's k1 per layer and
    the k2, then c, of every reported coefficient but the strongest.

    ``head`` and ``tail`` are the release's other i1 fields as (value, bit
    width) pairs.
    """
    rank = config.rank
    bitmap, k2, c = (grid(np.asarray(a)) for a in (pmi.bitmap, pmi.k2, pmi.c))
    k1 = np.asarray(pmi.k1)
    stars = [_star(config, bitmap[layer], i18)
             for layer, i18 in enumerate(pmi.i18)]
    i18_width = clog2(_plane(config, bitmap[0]).size)
    out = [field_bits(v, w) for v, w in head]
    out += ["".join(str(int(b)) for b in bitmap[layer].transpose(1, 2, 0).flat)
            for layer in range(rank)]
    out += [field_bits(i18, i18_width) for i18 in pmi.i18]
    out += [field_bits(v, w) for v, w in tail]
    out += [field_bits(int(k1[layer, 1 - i // config.l]), 4)
            for layer, (i, _) in enumerate(stars)]
    for values, width in ((k2, 3), (c, 4)):
        for layer, star in enumerate(stars):
            skip = strongest_cell(config, *star)
            out += [field_bits(int(values[layer][cell]), width)
                    for cell in zip(*np.nonzero(bitmap[layer]))
                    if cell != skip]
    return "".join(out)


def serialize_r15_ref(config, pmi) -> str:
    """Report bits, MSB first: i11, i12 (regular), then per layer i13 and
    the k1 of every beam but the strongest; then per layer the reported
    phases and (with subband amplitudes) k2 of every subband.
    Rejects what ``reconstruct_all`` rejects."""
    k1, k2, c, k2_reported, alphabet = type2_r15.validate(config, pmi)
    two_l = 2 * config.l
    out = [field_bits(v, w) for v, w in enhanced.beam_fields(config, pmi)]
    for layer, s in enumerate(pmi.i13):
        out += [field_bits(s, clog2(two_l)),
                array_bits(np.delete(k1[layer], s), 3)]
    for layer, a in enumerate(alphabet):
        out.append(array_bits(c[layer][:, a > 0],
                              np.log2(a[a > 0]).astype(int)))
        if config.subband_amplitude:
            out.append(array_bits(k2[layer][:, k2_reported[layer]], 1))
    return "".join(out)


def serialize_r16_ref(config, pmi) -> str:
    type2_r16.reconstruct_all(config, pmi)
    return serialize_ref(config, pmi, enhanced.beam_fields(config, pmi)
                         + tap_fields_ref(config, pmi))


def serialize_r17_ref(config, pmi) -> str:
    type2_r17.reconstruct_all(config, pmi)
    head = []
    if config.alpha < 1.0:
        head.append((pmi.i12, clog2(binomial(config.p_csirs // 2, config.l))))
    if config.i16_reported:
        head.append((pmi.i16, clog2(config.window - 1)))
    return serialize_ref(config, pmi, head)


def serialize_r18_ref(config, pmi) -> str:
    type2_r18.reconstruct_all(config, pmi)
    tail = ([(i110, clog2(config.n4 - 1)) for i110 in pmi.i110]
            if config.n4 > 1 else [])
    return serialize_ref(config, pmi, enhanced.beam_fields(config, pmi)
                         + tap_fields_ref(config, pmi), tail)


REFERENCE = {
    type2_r15: serialize_r15_ref,
    type2_r16: serialize_r16_ref,
    type2_r17: serialize_r17_ref,
    type2_r18: serialize_r18_ref,
}

# ---------------------------------------------------------------------------
# the sweep

_A42 = {"n1": 4, "n2": 2, "o1": 4, "o2": 4}
_A21 = {"n1": 2, "n2": 1, "o1": 4, "o2": 1}   # C(2, 2) = 1: a 0-bit i12

SWEEP = [
    ("r15-type2", {**_A42, "l": 4, "rank": 1, "subband_count": 3}),
    ("r15-type2", {**_A42, "l": 3, "n_psk": 4, "rank": 2,
                   "subband_count": 2}),
    ("r15-type2", {**_A42, "l": 4, "subband_amplitude": False, "rank": 2,
                   "subband_count": 4}),
    ("r15-type2", {**_A21, "l": 2, "rank": 2, "subband_count": 2}),
    ("r15-ps", {"p_csirs": 16, "l": 4, "d": 2, "rank": 2,
                "subband_count": 3}),
    ("r15-ps", {"p_csirs": 8, "l": 2, "d": 1, "n_psk": 4,
                "subband_amplitude": False, "rank": 1, "subband_count": 2}),
    ("r16", {**_A42, "param_combination": 2, "n3": 8, "rank": 1}),
    ("r16", {**_A42, "param_combination": 6, "n3": 18, "rank": 2}),
    ("r16", {**_A42, "param_combination": 6, "n3": 24, "rank": 3}),
    ("r16", {**_A42, "param_combination": 5, "n3": 36, "r": 2, "rank": 4}),
    ("r16", {**_A42, "param_combination": 3, "n3": 4, "rank": 1}),  # Mv = 1
    ("r16", {**_A21, "param_combination": 1, "n3": 8, "rank": 2}),
    ("r16-ps", {"p_csirs": 32, "param_combination": 5, "r": 2, "n3": 36,
                "rank": 3, "d": 2}),
    ("r16-ps", {"p_csirs": 16, "param_combination": 4, "n3": 12,
                "rank": 4, "d": 4}),
    ("r17-ps", {"p_csirs": 16, "param_combination": 6, "n3": 12,
                "n_threshold": 4, "rank": 2}),
    ("r17-ps", {"p_csirs": 8, "param_combination": 3, "n3": 6, "rank": 1}),
    ("r17-ps", {"p_csirs": 32, "param_combination": 5, "n3": 20,
                "n_threshold": 4, "rank": 4}),
    ("r17-ps", {"p_csirs": 12, "param_combination": 8, "n3": 8, "rank": 3}),
    ("r18", {**_A42, "param_combination": 4, "n3": 24, "n4": 1, "rank": 1}),
    ("r18", {**_A42, "param_combination": 2, "n3": 12, "n4": 2, "rank": 2}),
    ("r18", {**_A42, "param_combination": 5, "n3": 20, "n4": 4, "rank": 3}),
    ("r18", {**_A42, "param_combination": 7, "r": 2, "n3": 20, "n4": 8,
             "rank": 4}),
    ("r18", {**_A42, "param_combination": 1, "n3": 8, "n4": 2, "rank": 1}),
]


@pytest.mark.parametrize("case", range(len(SWEEP)))
def test_writer_matches_the_old_writer(case):
    release, cfg = SWEEP[case]
    config = cli.build_release_config(release, cfg)
    rel = cli.RELEASES[release]
    rng = np.random.default_rng(100 + case)
    for _ in range(6):
        pmi = rel.module.random_valid_pmi(config, rng)
        assert rel.serialize(config, pmi) == REFERENCE[rel.module](config, pmi)


def test_sweep_reaches_every_width_0_field():
    """The sweep holds a 0-bit i12, i16 and i110, and an N3 > 19 window."""
    configs = [cli.build_release_config(*case) for case in SWEEP]
    assert any(getattr(c, "variant", None) == enhanced.REGULAR
               and binomial(c.geom.n1 * c.geom.n2, c.l) == 1 for c in configs)
    assert any(getattr(c, "mv", 2) == 1 for c in configs)
    assert any(getattr(c, "n4", 0) == 2 for c in configs)
    assert any(getattr(c, "window_mode", False) for c in configs)
    assert {c.rank for c in configs} == {1, 2, 3, 4}
