from dataclasses import replace

import numpy as np
import pytest

from nrpmi.bases import ArrayGeometry, dft_beam, orthogonal_group
from nrpmi.combinadics import encode_group_restriction
from nrpmi.errors import (
    ConsistencyError,
    DegenerateReportError,
    DomainError,
    FormatError,
    RestrictionError,
)
from nrpmi.quantization import amp_r15_wideband
from nrpmi.type2_r15 import (
    PORT_SELECTION,
    REGULAR,
    T2R15Config,
    T2R15Pmi,
    beam_grid_indices,
    canonicalize,
    check_restriction,
    k2_cap,
    layer_coefficients,
    random_valid_pmi,
    reconstruct,
    reconstruct_all,
    reporting_mask,
    search_t2_r15,
    selected_beams,
    spatial_gain,
    subset_restriction,
    validate,
)

GEOM = ArrayGeometry(4, 2, 4, 4)


def simple_config(**kw):
    base = dict(l=2, n_psk=8, subband_amplitude=True, rank=1, subband_count=1,
                geom=GEOM)
    base.update(kw)
    return T2R15Config(**base)


def zeros_pmi(config, i13=(0,) * 2):
    two_l = 2 * config.l
    n_sb = config.subband_count
    rank = config.rank
    return T2R15Pmi(
        i11=(0, 0) if config.variant == REGULAR else 0,
        i12=0 if config.variant == REGULAR else None,
        i13=tuple(i13[:rank]),
        k1=np.zeros((rank, two_l), dtype=int),
        k2=np.ones((rank, n_sb, two_l), dtype=int),
        c=np.zeros((rank, n_sb, two_l), dtype=int),
    )


def test_single_beam_reconstruction():
    # only the strongest coefficient: the precoder is one beam on one
    # polarization, scaled to unit norm
    cfg = simple_config()
    pmi = canonicalize(cfg, zeros_pmi(cfg))
    w = reconstruct(cfg, pmi)
    beams = beam_grid_indices(cfg, pmi)
    v = dft_beam(GEOM, *beams[0])
    np.testing.assert_allclose(w[:8, 0], v / np.sqrt(8), atol=1e-12)
    np.testing.assert_allclose(w[8:, 0], 0, atol=1e-15)
    assert abs(np.linalg.norm(w[:, 0]) - 1) < 1e-12


def test_defaults_at_strongest():
    cfg = simple_config(rank=2, subband_count=3)
    rng = np.random.default_rng(0)
    pmi = random_valid_pmi(cfg, rng)
    for layer in range(2):
        s = pmi.i13[layer]
        assert pmi.k1[layer, s] == 7
        assert np.all(pmi.k2[layer, :, s] == 1)
        assert np.all(pmi.c[layer, :, s] == 0)


def test_subband_amplitude_disabled_forces_unit_p2():
    cfg = simple_config(subband_amplitude=False, subband_count=2)
    rng = np.random.default_rng(1)
    pmi = random_valid_pmi(cfg, rng)
    assert np.all(pmi.k2 == 1)
    a = layer_coefficients(cfg, pmi)[0, 0]
    p1 = np.array([amp_r15_wideband(k) for k in pmi.k1[0]])
    np.testing.assert_allclose(np.abs(a), p1, atol=1e-12)


def test_reporting_mask_counts():
    # L=4, all wideband amps nonzero: Ml = 8, K2 = 6 -> 5 subband amps
    cfg = simple_config(l=4)
    pmi = zeros_pmi(cfg)
    pmi = canonicalize(cfg, T2R15Pmi(pmi.i11, pmi.i12, (0,),
                                     np.full((1, 8), 3), pmi.k2, pmi.c))
    k2_reported, alphabet = reporting_mask(cfg, pmi.k1, pmi.i13)
    assert (pmi.k1[0] > 0).sum() == 8
    assert k2_reported[0].sum() == 5
    # the two weakest nonzero coefficients fall back to the QPSK alphabet
    assert (alphabet[0] == 4).sum() == 2
    assert (alphabet[0] == 8).sum() == 5
    # zero wideband amplitude contributes nothing
    k1 = np.full((1, 8), 3)
    k1[0, 1] = 0
    pmi2 = canonicalize(cfg, T2R15Pmi(pmi.i11, pmi.i12, (0,), k1, pmi.k2, pmi.c))
    k2_reported2, alphabet2 = reporting_mask(cfg, pmi2.k1, pmi2.i13)
    assert (pmi2.k1[0] > 0).sum() == 7
    assert alphabet2[0, 1] == 0
    assert not k2_reported2[0, 1]


def reference_mask(cfg, k1_layer, s):
    """The reporting rule of one layer, coefficient by coefficient."""
    order = sorted((i for i in range(2 * cfg.l) if k1_layer[i] > 0 and i != s),
                   key=lambda i: (-k1_layer[i], i))
    n_fine = min(int((k1_layer > 0).sum()), k2_cap(cfg.l)) - 1
    k2_reported = np.zeros(2 * cfg.l, dtype=bool)
    alphabet = np.zeros(2 * cfg.l, dtype=int)
    for place, i in enumerate(order):
        fine = not cfg.subband_amplitude or place < n_fine
        k2_reported[i] = cfg.subband_amplitude and fine
        alphabet[i] = cfg.n_psk if fine else 4
    return k2_reported, alphabet


@pytest.mark.parametrize("l", [2, 3, 4])
@pytest.mark.parametrize("n_psk", [4, 8])
@pytest.mark.parametrize("subband_amplitude", [True, False])
def test_reporting_mask_matches_the_per_layer_rule(l, n_psk,
                                                   subband_amplitude):
    cfg = simple_config(l=l, n_psk=n_psk, subband_amplitude=subband_amplitude,
                        rank=2)
    rng = np.random.default_rng(l)
    for _ in range(100):
        k1 = rng.integers(0, 8, size=(2, 2 * l))
        i13 = tuple(int(s) for s in rng.integers(2 * l, size=2))
        k2_reported, alphabet = reporting_mask(cfg, k1, i13)
        for layer in range(2):
            want_k2, want_alphabet = reference_mask(cfg, k1[layer], i13[layer])
            assert np.array_equal(k2_reported[layer], want_k2)
            assert np.array_equal(alphabet[layer], want_alphabet)


def test_k2_cap_by_l():
    assert k2_cap(2) == 4 and k2_cap(3) == 4 and k2_cap(4) == 6


def test_validate_rejects_inconsistent():
    cfg = simple_config()
    pmi = canonicalize(cfg, zeros_pmi(cfg))
    bad_k1 = np.array(pmi.k1)
    bad_k1[0, pmi.i13[0]] = 5
    with pytest.raises(ConsistencyError):
        reconstruct(cfg, T2R15Pmi(pmi.i11, pmi.i12, pmi.i13, bad_k1, pmi.k2, pmi.c))


PS = {"geom": None, "p_csirs": 16, "d": 2}


def _negative_phase(cfg, pmi):
    # layer 0's first nonzero coefficient besides the strongest reports a
    # phase; -1 would wrap to the last phase of its alphabet
    i = np.flatnonzero((pmi.k1[0] > 0) & (np.arange(2 * cfg.l) != pmi.i13[0]))[0]
    c = np.array(pmi.c)
    c[0, 0, i] = -1
    return replace(pmi, c=c)


@pytest.mark.parametrize("extra,mutate,error", [
    ({}, _negative_phase, DomainError),
    ({}, lambda cfg, pmi: replace(pmi, i13=0), FormatError),
    ({}, lambda cfg, pmi: replace(pmi, i13=pmi.i13[:1]), FormatError),
    ({}, lambda cfg, pmi: replace(pmi, i11=pmi.i11[:1]), FormatError),
    (PS, _negative_phase, DomainError),
    (PS, lambda cfg, pmi: replace(pmi, i12=0), FormatError),
    (PS, lambda cfg, pmi: replace(pmi, i11=(pmi.i11, 0)), FormatError),
], ids=["negative-c", "scalar-i13", "short-i13", "short-i11",
        "ps-negative-c", "ps-i12", "ps-pair-i11"])
def test_validate_rejects_malformed_fields(extra, mutate, error):
    cfg = simple_config(l=3, rank=2, subband_count=2, **extra)
    pmi = random_valid_pmi(cfg, np.random.default_rng(4))
    reconstruct(cfg, pmi)
    with pytest.raises(error):
        reconstruct(cfg, mutate(cfg, pmi))


@pytest.mark.parametrize("i11", [(0, 4), (4, 0), (-1, 0)], ids=str)
def test_validate_names_i11_outside_the_oversampling(i11):
    # O1 = O2 = 4: each group offset lies in [0, 4)
    cfg = simple_config()
    pmi = random_valid_pmi(cfg, np.random.default_rng(0))
    with pytest.raises(DomainError, match="i_1,1"):
        validate(cfg, replace(pmi, i11=i11))


@pytest.mark.parametrize("variant,extra", [
    (REGULAR, {}),
    (PORT_SELECTION, {"geom": None, "p_csirs": 16, "d": 2}),
])
@pytest.mark.parametrize("rank", [1, 2])
def test_layer_norms_random(variant, extra, rank):
    cfg = simple_config(l=3, rank=rank, subband_count=2, **extra)
    assert cfg.variant == variant
    rng = np.random.default_rng(42)
    for _ in range(50):
        pmi = random_valid_pmi(cfg, rng)
        for sb in range(cfg.subband_count):
            w = reconstruct(cfg, pmi, sb)
            for col in range(rank):
                assert abs(np.linalg.norm(w[:, col]) * np.sqrt(rank) - 1) < 1e-9


def precoder_oracle(config, v, coef):
    """The per-layer precoder of one subband's weights (rank, 2L) that
    ``_precoders`` batches over subbands and layers."""
    cols = []
    for layer, a in enumerate(coef):
        beta = spatial_gain(config) * float(np.sum(np.abs(a) ** 2))
        if beta == 0:
            raise DegenerateReportError(f"layer {layer} has all-zero amplitudes")
        cols.append(np.concatenate([v @ a[:config.l], v @ a[config.l:]])
                    / np.sqrt(beta))
    return np.column_stack(cols) / np.sqrt(config.rank)


def same_bits(a, b):
    return np.array_equal(a, b) and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("variant,extra", [
    (REGULAR, {}),
    (REGULAR, {"geom": ArrayGeometry(2, 2, 4, 4)}),
    (PORT_SELECTION, {"geom": None, "p_csirs": 16, "d": 2}),
    (PORT_SELECTION, {"geom": None, "p_csirs": 32, "d": 1}),
])
@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("l", [2, 3, 4])
def test_reconstruction_matches_the_per_subband_oracle_bit_for_bit(
        variant, extra, rank, l):
    rng = np.random.default_rng(10 * l + rank)
    for n_sb, amplitude in ((1, True), (4, False), (13, True)):
        cfg = simple_config(l=l, rank=rank, subband_count=n_sb,
                            subband_amplitude=amplitude, **extra)
        assert cfg.variant == variant
        for _ in range(4):
            pmi = random_valid_pmi(cfg, rng)
            v = selected_beams(cfg, pmi)
            expected = [precoder_oracle(cfg, v, np.array(
                [layer_coefficients(cfg, pmi)[sb, layer]
                 for layer in range(rank)])) for sb in range(n_sb)]
            assert same_bits(reconstruct_all(cfg, pmi), np.stack(expected))
            sb = int(rng.integers(n_sb))
            assert same_bits(reconstruct(cfg, pmi, sb), expected[sb])


def test_port_selection_block_out_of_range():
    cfg = simple_config(l=4, geom=None, p_csirs=8, d=1)
    pmi = zeros_pmi(cfg)
    pmi = canonicalize(cfg, T2R15Pmi(1, None, (0,), pmi.k1, pmi.k2, pmi.c))
    with pytest.raises(DomainError):
        reconstruct(cfg, pmi)  # ports 1..4 exceed P/2 - 1 = 3


@pytest.mark.parametrize("subband", [2, -1])
def test_subband_outside_the_report_is_rejected(subband):
    cfg = simple_config(subband_count=2)
    pmi = random_valid_pmi(cfg, np.random.default_rng(0))
    with pytest.raises(DomainError, match=f"subband {subband} outside"):
        reconstruct(cfg, pmi, subband)


def test_layer_coefficients_validates_the_report():
    cfg = simple_config(subband_count=2)
    pmi = random_valid_pmi(cfg, np.random.default_rng(0))
    k1 = np.array(pmi.k1)
    k1[0, 0] = 9
    with pytest.raises(DomainError, match="k1 outside"):
        layer_coefficients(cfg, replace(pmi, k1=k1))[0, 0]


def test_subset_restriction_decode():
    caps = subset_restriction("1" * 11 if False else format(1819, "011b"),
                              "1" * (8 * 8), GEOM)
    assert caps.shape == (16, 8)
    np.testing.assert_allclose(caps, 1.0)  # all B2 bits set -> no restriction
    # bits 00 for beam (x1=0, x2=0) of group 0 -> beam (0, 0) capped to 0
    seg = ["1"] * (2 * 8)
    seg[-1] = "0"  # b2^(0,0)
    seg[-2] = "0"  # b2^(0,1)
    b2 = "".join(seg) + "1" * (3 * 2 * 8)
    caps = subset_restriction(format(1819, "011b"), b2, GEOM)
    assert caps[0, 0] == 0.0
    assert caps[1, 0] == 1.0


def test_subset_restriction_group_mapping():
    # beta1 = 1819 selects groups {0,1,2,3} for O1*O2 = 16
    groups = [0, 1, 2, 3]
    assert encode_group_restriction(groups, 4, 4) == 1819
    seg0 = ["1"] * 16
    # cap beam (x1=1, x2=0) of group g=1 (r1=1, r2=0) to sqrt(1/4): bits 01
    seg1 = ["1"] * 16
    pos = 2 * (4 * 0 + 1)
    seg1[15 - (pos + 1)] = "0"  # high bit
    seg1[15 - pos] = "1"        # low bit
    b2 = "".join(seg0 + seg1) + "1" * 32
    caps = subset_restriction(format(1819, "011b"), b2, GEOM)
    # group 1: beams (N1*r1 + x1, N2*r2 + x2) = (4+1, 0)
    assert caps[5, 0] == pytest.approx(0.5)
    with pytest.raises(FormatError):
        subset_restriction(format(1820, "011b"), "1" * 64, GEOM)


@pytest.mark.parametrize("b1, b2, match", [
    ("1" * 10, "1" * 64, "B1 needs 11 bits, got 10"),
    (format(1819, "011b"), "1" * 63, "B2 needs 64 bits, got 63"),
    (format(1819, "011b"), "2" + "1" * 63, "B2 must be a string of 0/1"),
    ("0000000000x", "1" * 64, "B1 must be a string of 0/1"),
    ([0.5] * 11, "1" * 64, "B1 must be a string of 0/1"),
], ids=["B1-short", "B2-short", "B2-entry-2", "B1-entry-x", "B1-floats"])
def test_subset_restriction_names_a_malformed_sequence(b1, b2, match):
    # a wrong length was a FormatError, a "2" was read as bits 10
    with pytest.raises(DomainError, match=match):
        subset_restriction(b1, b2, GEOM)


def test_subset_restriction_reads_every_bit_form():
    b2 = ("1" * 15 + "0") + "1" * 48
    caps = subset_restriction(format(1819, "011b"), b2, GEOM)
    as_lists = subset_restriction([int(b) for b in format(1819, "011b")],
                                  np.array([int(b) for b in b2]), GEOM)
    assert np.array_equal(caps, as_lists)
    assert caps[0, 0] == pytest.approx(np.sqrt(0.5))   # bits 10


def plant_channel(cfg, pmi, n_sub=None, scales=None):
    """Rank-r channel whose per-subband right singular vectors are the
    planted precoder columns."""
    n_sub = n_sub or cfg.subband_count
    p = cfg.n_ports
    rank = cfg.rank
    scales = scales or [1.0 - 0.3 * i for i in range(rank)]
    h = np.zeros((n_sub, rank, p), dtype=complex)
    for sb in range(n_sub):
        w = reconstruct(cfg, pmi, min(sb, cfg.subband_count - 1))
        for layer in range(rank):
            h[sb, layer] = scales[layer] * w[:, layer].conj() * np.sqrt(rank)
    return h


def test_search_recovers_planted_beam():
    cfg = simple_config(l=2, subband_count=1)
    pmi = canonicalize(cfg, zeros_pmi(cfg))  # single-beam precoder
    h = plant_channel(cfg, pmi)
    found = search_t2_r15(h, cfg)
    assert found.i11 == pmi.i11
    planted_beam = beam_grid_indices(cfg, pmi)[0]
    assert planted_beam in beam_grid_indices(cfg, found)
    w0 = reconstruct(cfg, pmi)
    w1 = reconstruct(cfg, found)
    corr = abs(np.vdot(w0[:, 0], w1[:, 0]))
    assert corr > 0.99


def test_search_recovers_random_pmi():
    cfg = simple_config(l=2, n_psk=8, subband_count=2, rank=1)
    rng = np.random.default_rng(5)
    hits = 0
    for _ in range(20):
        pmi = random_valid_pmi(cfg, rng)
        h = plant_channel(cfg, pmi)
        found = search_t2_r15(h, cfg)
        for sb in range(2):
            w0 = reconstruct(cfg, pmi, sb)
            w1 = reconstruct(cfg, found, sb)
            corr = abs(np.vdot(w0[:, 0], w1[:, 0]))
            hits += corr > 0.99
    assert hits >= 38  # at least 95 % of the 40 subband checks


def test_search_rank2_on_rank1_channel():
    cfg = simple_config(l=2, rank=2)
    pmi1 = canonicalize(simple_config(l=2, rank=1), zeros_pmi(simple_config(l=2)))
    v = reconstruct(simple_config(l=2), pmi1)[:, 0]
    h = v.conj()[None, None, :]  # rank-1 channel
    found = search_t2_r15(np.repeat(h, 2, axis=1), cfg)
    w = reconstruct(cfg, found)
    assert w.shape == (16, 2)  # report still valid


def test_search_respects_caps():
    cfg = simple_config(l=2, subband_count=1)
    rng = np.random.default_rng(11)
    for _ in range(10):
        caps = np.ones((GEOM.beams_h, GEOM.beams_v))
        capped = rng.integers(0, 4, size=caps.shape)
        caps = np.minimum(caps, np.where(rng.random(caps.shape) < 0.3,
                                         capped * 0.25, 1.0))
        h = (rng.standard_normal((2, 2, 16)) + 1j * rng.standard_normal((2, 2, 16)))
        found = search_t2_r15(h, cfg, caps=caps)
        check_restriction(cfg, found, caps)  # must not raise


@pytest.mark.parametrize("capped_share", [0.5, 1.0])
@pytest.mark.parametrize("l, rank", [(2, 1), (3, 2)])
def test_random_valid_pmi_respects_caps(capped_share, l, rank):
    # every draw meets the caps or raises; with every beam capped, none
    # can host the strongest coefficient
    cfg = simple_config(l=l, rank=rank, subband_count=2)
    rng = np.random.default_rng(3)
    drawn = 0
    for _ in range(100):
        caps = np.where(rng.random((GEOM.beams_h, GEOM.beams_v)) < capped_share,
                        rng.choice([0.0, 0.5, np.sqrt(0.5)],
                                   size=(GEOM.beams_h, GEOM.beams_v)), 1.0)
        try:
            pmi = random_valid_pmi(cfg, rng, caps=caps)
        except RestrictionError:
            continue
        check_restriction(cfg, pmi, caps)
        reconstruct(cfg, pmi)
        drawn += 1
    assert drawn > 0 if capped_share < 1 else drawn == 0


@pytest.mark.parametrize("l", [2, 3])
def test_cap_swap_keeps_the_strongest_picks(l):
    # a rank-1 channel on beams of group (0, 0) with falling weights; caps
    # below 1 on the l strongest leave the next one the best cap-free beam,
    # which must replace the weakest pick, not a stronger one
    flats, weights = [5, 2, 7, 0][:l + 1], [1.0, 0.7, 0.5, 0.3][:l + 1]
    grp = orthogonal_group(GEOM, 0, 0)
    w = sum(a * grp[:, f] for f, a in zip(flats, weights))
    h = np.concatenate([w, 0.5 * w]).conj()[None, None, :]
    beams = [(GEOM.o1 * (f % GEOM.n1), GEOM.o2 * (f // GEOM.n1)) for f in flats]
    caps = np.ones((GEOM.beams_h, GEOM.beams_v))
    for beam in beams[:l]:
        caps[beam] = 0.5
    cfg = simple_config(l=l)
    found = search_t2_r15(h, cfg, caps=caps)
    check_restriction(cfg, found, caps)
    assert set(beam_grid_indices(cfg, found)) == set(beams[:l - 1] + beams[l:])


def test_check_restriction_names_the_beam_over_its_cap():
    cfg = simple_config(l=2, rank=2, subband_count=2)
    pmi = random_valid_pmi(cfg, np.random.default_rng(1))
    caps = np.ones((GEOM.beams_h, GEOM.beams_v))
    caps[beam_grid_indices(cfg, pmi)[1]] = 0.0
    with pytest.raises(RestrictionError, match=r"^beam \(13,6\) amplitude "
                       r"0\.7071 exceeds cap 0\.0000$"):
        check_restriction(cfg, pmi, caps)


def test_search_with_every_beam_capped_raises():
    # the strongest coefficient needs a cap-free beam, and none is left
    cfg = simple_config(l=2, rank=2, subband_count=2)
    rng = np.random.default_rng(0)
    h = rng.standard_normal((2, 2, 16)) + 1j * rng.standard_normal((2, 2, 16))
    with pytest.raises(RestrictionError,
                       match="^no admissible report under the caps$"):
        search_t2_r15(h, cfg, caps=np.full((GEOM.beams_h, GEOM.beams_v), 0.5))


def test_search_reports_with_zero_caps_in_the_group():
    # every group of a 2x1 array has L = 2 beams; a zero cap on beam (4, 0)
    # leaves group (0, 0) one usable beam, which the report pairs with the
    # capped one at zero amplitude
    geom = ArrayGeometry.from_antennas(2, 1)
    cfg = simple_config(geom=geom)
    caps = np.ones((geom.beams_h, geom.beams_v))
    caps[4, 0] = 0.0
    rng = np.random.default_rng(2)
    v = dft_beam(geom, 0, 0)
    h = (np.concatenate([v, 0.5 * v]).conj()
         + 0.1 * rng.standard_normal((2, 2, 4)))
    found = search_t2_r15(h, cfg, caps=caps)
    check_restriction(cfg, found, caps)
    assert (0, 0) in beam_grid_indices(cfg, found)


def test_regular_vs_port_selection_equivalence():
    # with DFT port-external beamforming, the port-selection combination
    # equals the regular-beam combination (received-signal identity)
    rng = np.random.default_rng(3)
    geom = ArrayGeometry(4, 2, 4, 4)
    p = geom.n_ports
    half = p // 2
    f = orthogonal_group(geom, 0, 0)  # (half, half) DFT beams
    for _ in range(100):
        l = 2
        ports = sorted(rng.choice(half, size=l, replace=False).tolist())
        a = rng.standard_normal(2 * l) + 1j * rng.standard_normal(2 * l)
        h1 = rng.standard_normal((2, half)) + 1j * rng.standard_normal((2, half))
        h2 = rng.standard_normal((2, half)) + 1j * rng.standard_normal((2, half))
        # port-selection side: y = [H1 F, H2 F] w_ps
        w_ps = np.zeros(p, dtype=complex)
        for i, d in enumerate(ports):
            w_ps[d] += a[i]
            w_ps[half + d] += a[l + i]
        y_ps = np.hstack([h1 @ f, h2 @ f]) @ w_ps
        # regular side: y = sum_i a_i H v_{d(i)}
        y_reg = sum(a[i] * (h1 @ f[:, d]) + a[l + i] * (h2 @ f[:, d])
                    for i, d in enumerate(ports))
        np.testing.assert_allclose(y_ps, y_reg, atol=1e-10)


# the three calls that read Rel-15 caps, on one caps grid
CAPS_CALLS = {
    "check_restriction": lambda cfg, caps: check_restriction(
        cfg, random_valid_pmi(cfg, np.random.default_rng(0)), caps),
    "random_valid_pmi": lambda cfg, caps: random_valid_pmi(
        cfg, np.random.default_rng(0), caps=caps),
    "search_t2_r15": lambda cfg, caps: search_t2_r15(
        np.ones((2, 2, cfg.n_ports), dtype=complex), cfg, caps=caps),
}


@pytest.mark.parametrize("call", CAPS_CALLS)
def test_caps_of_another_shape_are_rejected(call):
    # (O1N1, O2N2) = (16, 8) on a 4x2 array with O1 = O2 = 4
    with pytest.raises(DomainError, match=r"caps of shape \(4, 4\)"):
        CAPS_CALLS[call](simple_config(), np.ones((4, 4)))


@pytest.mark.parametrize("call", CAPS_CALLS)
def test_caps_on_port_selection_are_rejected(call):
    cfg = simple_config(**PS)
    with pytest.raises(DomainError, match="caps apply to the regular"):
        CAPS_CALLS[call](cfg, np.ones((GEOM.beams_h, GEOM.beams_v)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -0.5, 2.0])
@pytest.mark.parametrize("call", CAPS_CALLS)
def test_caps_outside_zero_one_are_rejected(call, value):
    caps = np.ones((GEOM.beams_h, GEOM.beams_v))
    caps[0, 0] = value
    with pytest.raises(DomainError, match=r"caps must be finite .* \[0, 1\]"):
        CAPS_CALLS[call](simple_config(), caps)


@pytest.mark.parametrize("kw, match", [
    ({"l": 5}, "numberOfBeams L=5"),
    ({"n_psk": 2}, "phaseAlphabetSize 2"),
    ({"rank": 3}, "rank 3"),
    ({"subband_count": 0}, "subband_count"),
    ({"geom": None}, "regular variant requires an array geometry"),
    ({**PS, "d": None}, "requires p_csirs and d"),
    ({"geom": None, "d": 2}, "requires p_csirs"),
    ({**PS, "geom": GEOM}, "geom given with p_csirs=16"),
    ({"d": 2}, "d=2 given without p_csirs"),
    ({**PS, "l": 3, "d": 4}, "portSelectionSamplingSize d=4"),
])
def test_config_rejections_name_the_field(kw, match):
    with pytest.raises(DomainError, match=match):
        simple_config(**kw)
