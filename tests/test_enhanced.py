"""The Enhanced Type II core: total validation of Rel-16/17/18 reports
(and, in the fuzz, of Rel-15 Type I and Type II reports)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrpmi import cli, enhanced
from nrpmi.bases import dft_beam
from nrpmi.errors import (
    CodebookError,
    DegenerateReportError,
    DomainError,
    FormatError,
)
from nrpmi.type2_r17 import R17Config, R17Pmi, reconstruct_all as r17_reconstruct_all

_ARRAY = {"n1": 4, "n2": 2, "o1": 4, "o2": 4}
CONFIGS = {
    "r16": {**_ARRAY, "param_combination": 4, "r": 1, "n3": 18, "rank": 2},
    "r16-window": {**_ARRAY, "param_combination": 4, "r": 1, "n3": 24,
                   "rank": 1},
    "r16-ps": {"p_csirs": 16, "param_combination": 2, "r": 1, "n3": 8,
               "rank": 1, "d": 1},
    "r17-ps": {"p_csirs": 16, "param_combination": 6, "n3": 12,
               "n_threshold": 4, "rank": 2},
    "r18": {**_ARRAY, "param_combination": 2, "r": 1, "n3": 12, "n4": 4,
            "rank": 2},
}


def release_of(name):
    return name.split("-window")[0]


def sample(name, seed=0):
    """A config and a random report whose layer 0 reports a coefficient
    besides the strongest one; returns (config, report, that cell)."""
    release = release_of(name)
    config = cli.build_release_config(release, CONFIGS[name])
    rng = np.random.default_rng(seed)
    while True:
        pmi = cli.sample_pmi(release, config, rng)
        i_star, s_star = enhanced.strongest(config, pmi, 0)
        star = enhanced.strongest_cell(config, i_star, s_star)
        cells = [tuple(int(i) for i in cell) for cell in
                 zip(*np.nonzero(enhanced.grid(pmi.bitmap)[0]))
                 if cell != star]
        if cells:
            return config, pmi, cells[0]


def _coefficient(name, value):
    """Set ``name`` at a reported coefficient other than the strongest."""
    def mutate(config, pmi, cell):
        arr = np.array(getattr(pmi, name))
        enhanced.grid(arr)[(0,) + cell] = value
        return dataclasses.replace(pmi, **{name: arr})
    return mutate


def _weak_k1(value):
    """Set the k1 of the polarization without the strongest coefficient."""
    def mutate(config, pmi, cell):
        k1 = np.array(pmi.k1)
        i_star, _ = enhanced.strongest(config, pmi, 0)
        k1[0, 1 - i_star // config.l] = value
        return dataclasses.replace(pmi, k1=k1)
    return mutate


def _shorten(name):
    def mutate(config, pmi, cell):
        return dataclasses.replace(pmi, **{name: getattr(pmi, name)[:-1]})
    return mutate


@pytest.mark.parametrize("name,mutate,error", [
    ("r16", _weak_k1(-3), DomainError),
    ("r16", _coefficient("k2", 9), DomainError),
    ("r16", _coefficient("c", 40), DomainError),
    ("r16", _coefficient("bitmap", 2), FormatError),
    ("r16", _shorten("i16"), FormatError),
    ("r16", _shorten("i18"), FormatError),
    ("r16-ps", _coefficient("bitmap", 2), FormatError),
    ("r17-ps", _weak_k1(-3), DomainError),
    ("r17-ps", _coefficient("c", 40), DomainError),
    ("r17-ps", _coefficient("k2", 9), DomainError),
    ("r17-ps", _coefficient("bitmap", 2), FormatError),
    ("r17-ps", _shorten("i18"), FormatError),
    ("r18", _weak_k1(-2), DomainError),
    ("r18", _coefficient("c", -5), DomainError),
    ("r18", _coefficient("c", 40), DomainError),
    ("r18", _coefficient("k2", -1), DomainError),
    ("r18", _coefficient("k2", 9), DomainError),
    ("r18", _coefficient("bitmap", 2), FormatError),
    ("r18", _shorten("i16"), FormatError),
    ("r18", _shorten("i18"), FormatError),
    ("r18", _shorten("i110"), FormatError),
])
def test_malformed_field_is_rejected(name, mutate, error):
    config, pmi, cell = sample(name)
    cli.expected_precoders(release_of(name), config, pmi)
    with pytest.raises(error):
        cli.expected_precoders(release_of(name), config,
                               mutate(config, pmi, cell))


def test_i15_and_i16_checked_even_when_unused():
    # N3 <= 19 leaves no room for i15; Mv = 1 leaves i16 a single value
    config, pmi, _ = sample("r16")
    with pytest.raises(FormatError):
        cli.expected_precoders("r16", config, dataclasses.replace(pmi, i15=0))
    config = cli.build_release_config("r16", {**CONFIGS["r16"], "n3": 4})
    pmi = cli.sample_pmi("r16", config, np.random.default_rng(0))
    assert config.mv == 1 and pmi.i16 == (0, 0)
    with pytest.raises(FormatError):
        cli.expected_precoders("r16", config,
                               dataclasses.replace(pmi, i16=(0, 1)))


def test_cancelling_r17_report_is_degenerate():
    # one beam on taps 0 and 1 with equal weights cancels at t = N3/2
    cfg = R17Config(p_csirs=8, param_combination=7, n3=8, n_threshold=2)
    assert cfg.m == 2 and cfg.alpha == 1.0
    bitmap = np.zeros((1, cfg.k1_beams, 2), dtype=np.int8)
    bitmap[0, 1, :] = 1
    k2 = 7 * bitmap.astype(int)
    c = np.zeros_like(k2)
    pmi = R17Pmi(None, None, (1,), bitmap, np.array([[15, 1]]), k2, c)
    with pytest.raises(DegenerateReportError):
        r17_reconstruct_all(cfg, pmi)


def test_beam_grid_indices_name_the_selected_beams():
    config, pmi, _ = sample("r16")
    v = enhanced.selected_beams(config, pmi)
    for j, (l, m) in enumerate(enhanced.beam_grid_indices(config, pmi)):
        assert np.array_equal(v[:, j], dft_beam(config.geom, l, m))


R15_CONFIGS = {
    "r15-type2": {**_ARRAY, "l": 3, "n_psk": 8, "rank": 2,
                  "subband_count": 2},
    "r15-ps": {"p_csirs": 16, "l": 2, "d": 2, "n_psk": 4, "rank": 2,
               "subband_count": 3},
}
ENHANCED_FIELDS = ("i11", "i12", "i15", "i16", "i18", "i110", "bitmap", "k1",
                   "k2", "c")
R15_FIELDS = ("i11", "i12", "i13", "k1", "k2", "c")
TYPE1_FIELDS = ("i11", "i12", "i2", "i13")
# (release, config, fields to mutate)
FUZZ = [(release_of(name), cli.build_release_config(release_of(name),
                                                    CONFIGS[name]),
         ENHANCED_FIELDS)
        for name in ("r16", "r16-window", "r16-ps", "r17-ps", "r18")]
FUZZ += [(name, cli.build_release_config(name, cfg), R15_FIELDS)
         for name, cfg in R15_CONFIGS.items()]
FUZZ += [("r15-type1", cli.build_release_config(
              "r15-type1", {**_ARRAY, "mode": mode, "rank": rank,
                            "subband_count": 3}), TYPE1_FIELDS)
         for mode in (1, 2) for rank in (1, 2)]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_malformed_reports_raise_codebook_errors(data):
    """Any one field element set to any small int, any per-layer tuple cut
    short, or any index or per-layer field (absent ones too) set to None, a
    float or a tuple of the wrong length: reconstruction returns unit-norm
    layers or raises a CodebookError, and nothing else; serialization
    accepts and rejects the same reports."""
    release, config, mutable = data.draw(st.sampled_from(FUZZ))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    pmi = cli.sample_pmi(release, config, rng)
    field = data.draw(st.sampled_from([f for f in mutable if hasattr(pmi, f)]))
    value = getattr(pmi, field)
    new = data.draw(st.integers(-64, 64))
    if isinstance(value, np.ndarray):
        value = value.copy()
        value[tuple(data.draw(st.integers(0, n - 1))
                    for n in value.shape)] = new
    elif data.draw(st.booleans()):
        n = len(value) if isinstance(value, tuple) else 1
        value = data.draw(st.sampled_from([None, 2.0, -0.5, (0,) * (n + 1)]))
    elif isinstance(value, tuple):
        i = data.draw(st.integers(0, len(value) - 1))
        value = (value[:-1] if data.draw(st.booleans())
                 else value[:i] + (new,) + value[i + 1:])
    else:
        value = new
    bad = dataclasses.replace(pmi, **{field: value})
    try:
        ws = cli.expected_precoders(release, config, bad)
    except CodebookError:
        # a report reconstruction rejects must not serialize either
        serialize = cli.RELEASES[release].serialize
        if serialize is not None:
            with pytest.raises(CodebookError):
                serialize(config, bad)
        return
    np.testing.assert_allclose(np.linalg.norm(ws, axis=-2),
                               1 / np.sqrt(config.rank), atol=1e-9)
    serialize = cli.RELEASES[release].serialize
    if serialize is not None:
        serialize(config, bad)


@pytest.mark.parametrize("release,cfg,i11,alias", [
    # q2 = 5 at O2 = 4 would write the bits of (1, 1); 4 those of (1, 0)
    ("r16", CONFIGS["r16"], (0, 5), (1, 1)),
    ("r15-type2", R15_CONFIGS["r15-type2"], (0, 4), (1, 0)),
])
def test_out_of_range_i11_does_not_serialize_as_another_report(
        release, cfg, i11, alias):
    config = cli.build_release_config(release, cfg)
    pmi = cli.sample_pmi(release, config, np.random.default_rng(0))
    serialize = cli.RELEASES[release].serialize
    serialize(config, dataclasses.replace(pmi, i11=alias))
    with pytest.raises(DomainError):
        serialize(config, dataclasses.replace(pmi, i11=i11))


@pytest.mark.parametrize("release,cfg", [
    ("r15-ps", R15_CONFIGS["r15-ps"]),
    ("r16-ps", CONFIGS["r16-ps"]),
])
def test_port_block_past_half_names_i11(release, cfg):
    config = cli.build_release_config(release, cfg)
    pmi = cli.sample_pmi(release, config, np.random.default_rng(0))
    blocks = (config.p_csirs // 2 - config.l) // config.d + 1
    cli.expected_precoders(release, config,
                           dataclasses.replace(pmi, i11=blocks - 1))
    for i11 in (blocks, -1):
        with pytest.raises(DomainError, match="i_1,1"):
            cli.expected_precoders(release, config,
                                   dataclasses.replace(pmi, i11=i11))


@pytest.mark.parametrize("release", ["r16", "r18"])
@pytest.mark.parametrize("i11", [(0, 4), (4, 0), (-1, 0)], ids=str)
def test_reconstruction_names_i11_outside_the_oversampling(release, i11):
    # O1 = O2 = 4: each group offset lies in [0, 4), as for Rel-15
    config = cli.build_release_config(release, CONFIGS[release])
    pmi = cli.sample_pmi(release, config, np.random.default_rng(0))
    with pytest.raises(DomainError, match="i_1,1"):
        cli.expected_precoders(release, config,
                               dataclasses.replace(pmi, i11=i11))
