"""The Enhanced Type II core: total validation of Rel-16/17/18 reports
(and, in the fuzz, of Rel-15 Type I and Type II reports)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrpmi import cli, enhanced, type2_r17, type2_r18
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
        pmi = cli.sample_pmi(release, config, rng).pmi
        i_star, s_star = enhanced.strongest(config, pmi)[0]
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
        i_star, _ = enhanced.strongest(config, pmi)[0]
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
    pmi = cli.sample_pmi("r16", config, np.random.default_rng(0)).pmi
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
    pmi = cli.sample_pmi(release, config, rng).pmi
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
    pmi = cli.sample_pmi(release, config, np.random.default_rng(0)).pmi
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
    pmi = cli.sample_pmi(release, config, np.random.default_rng(0)).pmi
    blocks = (config.p_csirs // 2 - config.l) // config.d + 1
    cli.expected_precoders(release, config,
                           dataclasses.replace(pmi, i11=blocks - 1))
    for i11 in (blocks, -1):
        with pytest.raises(DomainError, match="i_1,1"):
            cli.expected_precoders(release, config,
                                   dataclasses.replace(pmi, i11=i11))


@pytest.mark.parametrize("p_csirs", [6, 7, 10])
@pytest.mark.parametrize("release,cfg", [
    ("r15-ps", R15_CONFIGS["r15-ps"]),
    ("r16-ps", CONFIGS["r16-ps"]),
    ("r17-ps", CONFIGS["r17-ps"]),
])
def test_port_selection_rejects_an_unsupported_port_count(release, cfg,
                                                          p_csirs):
    with pytest.raises(DomainError, match="p_csirs=%d" % p_csirs):
        cli.build_release_config(release, {**cfg, "p_csirs": p_csirs})


@pytest.mark.parametrize("release,cfg", [
    *R15_CONFIGS.items(), *((name, CONFIGS[name])
                            for name in ("r16", "r16-ps", "r17-ps", "r18"))])
def test_variant_follows_from_p_csirs(release, cfg):
    # no field sets the variant: a config is port selection exactly when
    # it gives p_csirs
    config = cli.build_release_config(release, cfg)
    assert config.variant == (enhanced.PORT_SELECTION if "p_csirs" in cfg
                              else enhanced.REGULAR)
    assert "variant" not in {f.name for f in dataclasses.fields(config)}


@pytest.mark.parametrize("release", ["r16", "r18"])
@pytest.mark.parametrize("i11", [(0, 4), (4, 0), (-1, 0)], ids=str)
def test_reconstruction_names_i11_outside_the_oversampling(release, i11):
    # O1 = O2 = 4: each group offset lies in [0, 4), as for Rel-15
    config = cli.build_release_config(release, CONFIGS[release])
    pmi = cli.sample_pmi(release, config, np.random.default_rng(0)).pmi
    with pytest.raises(DomainError, match="i_1,1"):
        cli.expected_precoders(release, config,
                               dataclasses.replace(pmi, i11=i11))


def synthesize_oracle(config, pmi, v, taps, shifts=None):
    """The per-layer synthesis that ``enhanced.synthesize`` batches."""
    def dft(n, indices):
        return np.exp(2j * np.pi * np.outer(np.arange(n), indices) / n)

    l, n3, gain = config.l, config.n3, enhanced.spatial_gain(config)
    doppler = pmi.bitmap.ndim == 4
    points = (n3, config.n4) if doppler else (n3,)
    out = np.empty(points + (2 * v.shape[0], config.rank), dtype=complex)
    for layer in range(config.rank):
        y = dft(n3, taps[layer])
        p2 = enhanced.SB_AMPS[pmi.k2[layer]]
        pol = np.repeat(enhanced.WB_AMPS[pmi.k1[layer]], config.l)
        coef = (pol.reshape((-1,) + (1,) * (p2.ndim - 1)) * p2
                * np.exp(2j * np.pi * pmi.c[layer] / enhanced.N_PSK16)
                * pmi.bitmap[layer])
        if doppler:
            z = dft(config.n4, shifts[layer])
            ct = np.einsum("ifq,tf,nq->itn", coef, y, z)
        else:
            ct = coef @ y.T
        gamma = (np.abs(ct) ** 2).sum(axis=0)
        if np.any(gamma <= 1e-12 * gamma.max()):
            raise DegenerateReportError(
                f"layer {layer} has zero energy at some frequency unit")
        if doppler:
            halves = np.concatenate([np.einsum("pl,ltn->ptn", v, ct[:l]),
                                     np.einsum("pl,ltn->ptn", v, ct[l:])])
        else:
            halves = np.vstack([v @ ct[:l], v @ ct[l:]])
        normed = halves / np.sqrt(gain * gamma)
        out[..., layer] = normed.transpose(*range(1, normed.ndim), 0)
    return out / np.sqrt(config.rank)


def synthesis_inputs(release, config, pmi):
    """The (v, taps, shifts) that ``release``'s reconstruct_all decodes."""
    layers = range(config.rank)
    if release == "r17-ps":
        v = enhanced.port_beams(config.p_csirs,
                                type2_r17.decode_ports(config, pmi))
        return v, [type2_r17.decode_tap_offset(config, pmi)] * config.rank, \
            None
    taps = [enhanced.decode_taps(config, pmi)[layer] for layer in layers]
    shifts = ([type2_r18.decode_shifts(config, pmi)[layer] for layer in layers]
              if release == "r18" else None)
    return enhanced.selected_beams(config, pmi), taps, shifts


ORACLE_CASES = [
    ("r16", {**_ARRAY, "param_combination": pc, "r": r, "n3": n3,
             "rank": rank})
    for pc, r, n3, rank in [(1, 1, 8, 1), (4, 1, 18, 2), (4, 2, 24, 3),
                            (6, 1, 36, 4), (8, 2, 13, 2), (2, 1, 20, 1)]
] + [
    ("r16-ps", {"p_csirs": p, "param_combination": pc, "r": 1, "n3": n3,
                "rank": rank, "d": d})
    for p, pc, n3, rank, d in [(16, 2, 8, 1, 1), (32, 6, 21, 4, 2),
                               (8, 3, 5, 2, 1)]
] + [
    ("r17-ps", {"p_csirs": p, "param_combination": pc, "n3": 12,
                "n_threshold": nt, "rank": rank})
    for p, pc, nt, rank in [(16, 6, 4, 2), (8, 1, 2, 1), (32, 7, 2, 4),
                            (4, 5, 4, 3)]
] + [
    ("r18", {**_ARRAY, "param_combination": pc, "r": 1, "n3": n3, "n4": n4,
             "rank": rank})
    for pc, n3, n4, rank in [(2, 12, 4, 2), (1, 4, 1, 1), (7, 21, 8, 4),
                             (3, 12, 2, 3)]
]


def same_bits(a, b):
    return np.array_equal(a, b) and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("release, cfg", ORACLE_CASES)
def test_synthesis_matches_the_per_layer_oracle_bit_for_bit(release, cfg):
    config = cli.build_release_config(release, cfg)
    module = cli.RELEASES[release].module
    rng = np.random.default_rng(len(ORACLE_CASES))
    for _ in range(8):
        pmi = module.random_valid_pmi(config, rng)
        inputs = synthesis_inputs(release, config, pmi)
        assert same_bits(module.reconstruct_all(config, pmi),
                         synthesize_oracle(config, pmi, *inputs))
        if config.rank == 1:
            continue
        # silence every layer from one on: both name that layer
        layer = int(rng.integers(config.rank))
        bitmap = np.array(pmi.bitmap)
        bitmap[layer:] = 0
        silent = dataclasses.replace(pmi, bitmap=bitmap)
        with pytest.raises(DegenerateReportError) as expected:
            synthesize_oracle(config, silent, *inputs)
        with pytest.raises(DegenerateReportError) as found:
            enhanced.synthesize(config, silent, *inputs)
        assert str(found.value) == str(expected.value) \
            == f"layer {layer} has zero energy at some frequency unit"
