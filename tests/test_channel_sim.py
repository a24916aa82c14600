import json
import math
import types

import numpy as np
import pytest

from nrpmi import (
    channel_sim,
    cli,
    compact,
    enhanced,
    type2_r15,
    type2_r16,
    type2_r17,
    type2_r18,
)
from nrpmi.bases import SUPPORTED_GEOMETRIES, ArrayGeometry, orthogonal_group
from nrpmi.channel_sim import (
    ChannelModel,
    ChannelRealization,
    draw_channel,
    effective_channel,
    search_r16,
    search_r17,
    search_r18,
    spectral_efficiency_experiment,
)
from nrpmi.combinadics import decode_combination, encode_combination
from nrpmi.errors import BudgetError, DegenerateReportError, DomainError
from nrpmi.type1 import Type1Config, search_type1

from test_search_oracle import LINK_MODEL, LINK_R16, LINK_R18, finish_oracle

GEOM = ArrayGeometry(4, 2, 4, 4)


def test_determinism():
    model = ChannelModel(n_paths=3, seed=7, n_subcarriers=4)
    a = draw_channel(model, GEOM, nr=2, trial=5)
    b = draw_channel(model, GEOM, nr=2, trial=5)
    assert np.array_equal(a.h, b.h)
    c = draw_channel(model, GEOM, nr=2, trial=6)
    assert not np.array_equal(a.h, c.h)


def test_energy_normalization():
    model = ChannelModel(n_paths=6, seed=1, n_subcarriers=2, cross_pol=0.5)
    total = 0.0
    trials = 400
    for trial in range(trials):
        ch = draw_channel(model, GEOM, nr=2, trial=trial)
        total += np.mean(np.abs(ch.h) ** 2) * ch.h.shape[-1] * ch.h.shape[-2]
    expected = GEOM.n_ports * 2
    assert abs(total / trials - expected) / expected < 0.15


def test_two_orthogonal_paths_rank2():
    # plant two paths on orthogonal beams with orthogonal rx signatures
    from nrpmi.channel_sim import _tx_response
    a1 = _tx_response(GEOM, 0, 0)
    a2 = _tx_response(GEOM, 4, 0)  # same group, orthogonal
    h = np.zeros((1, 1, 2, 8), dtype=complex)
    h[0, 0, 0, :] = a1.conj()
    h[0, 0, 1, :] = a2.conj()
    s = np.linalg.svd(h[0, 0], compute_uv=False)
    assert s[1] > 1e-6


def test_zero_paths_rejected():
    with pytest.raises(DomainError):
        ChannelModel(n_paths=0)


def draw_oracle(model, geom, nr, trial=0, n4=1, interval_duration=5e-4):
    """The per-path, per-interval draw that ``draw_channel`` batches."""
    rng = np.random.default_rng([model.seed, trial])
    p = geom.n_ports
    half = p // 2
    m = model.n_subcarriers
    gain_var = 2 * nr / ((1 + model.cross_pol**2) * model.n_paths)
    h = np.zeros((n4, m, nr, p), dtype=complex)
    for _ in range(model.n_paths):
        x1 = rng.uniform(0, geom.beams_h)
        x2 = rng.uniform(0, geom.beams_v)
        delay = rng.uniform(0, model.delay_spread)
        doppler = rng.uniform(-model.doppler_max, model.doppler_max)
        a_tx = np.kron(np.exp(2j * np.pi * x1 * np.arange(geom.n1)
                              / geom.beams_h),
                       np.exp(2j * np.pi * x2 * np.arange(geom.n2)
                              / geom.beams_v))
        a_rx = rng.standard_normal(nr) + 1j * rng.standard_normal(nr)
        a_rx /= np.linalg.norm(a_rx)
        g1 = math.sqrt(gain_var / 2) * complex(rng.standard_normal(),
                                               rng.standard_normal())
        g2 = model.cross_pol * abs(g1) * np.exp(2j * np.pi * rng.random())
        freq_phase = np.exp(-2j * np.pi * delay
                            * model.subcarrier_spacing * np.arange(m))
        time_phase = np.exp(2j * np.pi * doppler
                            * interval_duration * np.arange(n4))
        outer = np.outer(a_rx, a_tx.conj())
        for iota in range(n4):
            phases = (time_phase[iota] * freq_phase)[:, None, None]
            h[iota, :, :, :half] += g1 * phases * outer
            h[iota, :, :, half:] += g2 * phases * outer
    return h


def same_bits(a, b):
    return np.array_equal(a, b) and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("cross_pol", [0.0, 0.5, 1.3])
@pytest.mark.parametrize("doppler_max", [0.0, 200.0])
def test_draw_matches_the_per_path_oracle_bit_for_bit(cross_pol, doppler_max):
    # cross_pol = 0 makes signed zeros in the second polarization, which
    # only a draw that adds every path to a zero channel reproduces; the
    # cases cycle through every supported geometry, Nr = 1-4 (whose
    # signature norms are strided ddots), 1-20 paths and N4 up to 8
    rng = np.random.default_rng(int(cross_pol * 10 + doppler_max))
    geoms = [ArrayGeometry(n1, n2, o1, o2)
             for (n1, n2), (o1, o2) in SUPPORTED_GEOMETRIES.items()]
    for case in range(2 * len(geoms)):
        model = ChannelModel(
            n_paths=(1, 20, 7, 13, 3)[case % 5],
            delay_spread=float(rng.choice([0.0, 3e-7, 1e-6])),
            doppler_max=doppler_max,
            subcarrier_spacing=float(rng.choice([15e3, 180e3])),
            n_subcarriers=int(rng.integers(1, 25)), cross_pol=cross_pol,
            seed=int(rng.integers(100)))
        geom = geoms[case % len(geoms)]
        nr = case % 4 + 1
        n4 = (1, 8, 2)[case % 3]
        trial = int(rng.integers(50))
        assert same_bits(draw_channel(model, geom, nr, trial, n4).h,
                         draw_oracle(model, geom, nr, trial, n4))


@pytest.mark.parametrize("field, value", [
    ("n_paths", 0), ("n_paths", 2.5), ("n_subcarriers", 0),
    ("n_subcarriers", 2.5), ("delay_spread", -1e-6),
    ("delay_spread", float("nan")), ("doppler_max", -5.0),
    ("subcarrier_spacing", -15e3), ("subcarrier_spacing", float("inf")),
    ("cross_pol", -0.5), ("cross_pol", float("inf")), ("seed", -1),
    ("seed", "7"),
])
def test_malformed_channel_model_names_the_field(field, value):
    with pytest.raises(DomainError, match=field):
        ChannelModel(**{field: value})


@pytest.mark.parametrize("field", ["delay_spread", "doppler_max",
                                   "subcarrier_spacing", "cross_pol"])
@pytest.mark.parametrize("value", [True, False])
def test_bool_is_no_real_channel_parameter(field, value):
    with pytest.raises(DomainError, match=f"{field}={value}"):
        ChannelModel(**{field: value})
    if field == "delay_spread":
        with pytest.raises(DomainError, match=f"interval_duration={value}"):
            draw_channel(ChannelModel(), GEOM, 2, interval_duration=value)


@pytest.mark.parametrize("kwargs, field", [
    (dict(nr=0), "nr"), (dict(nr=1.5), "nr"), (dict(n4=0), "n4"),
    (dict(trial=-1), "trial"), (dict(trial=0.5), "trial"),
    (dict(interval_duration=-5e-4), "interval_duration"),
])
def test_malformed_draw_arguments_name_the_argument(kwargs, field):
    args = dict(nr=2, trial=0, n4=1, interval_duration=5e-4) | kwargs
    with pytest.raises(DomainError, match=field):
        draw_channel(ChannelModel(), GEOM, **args)


def test_effective_channel():
    rng = np.random.default_rng(0)
    h1 = rng.standard_normal((3, 2, 8)) + 1j * rng.standard_normal((3, 2, 8))
    h2 = rng.standard_normal((3, 2, 8)) + 1j * rng.standard_normal((3, 2, 8))
    f = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    he = effective_channel(h1, h2, f)
    assert he.shape == (3, 2, 8)
    np.testing.assert_allclose(he[..., :4], h1 @ f)
    f1 = f[:, :1]
    assert effective_channel(h1, h2, f1).shape == (3, 2, 2)
    with pytest.raises(DomainError):
        effective_channel(h1, h2, np.zeros((5, 2)))


def plant_r16(cfg, pmi, sigmas=None):
    """Channel whose matched-filter targets equal the unnormalized
    codebook synthesis of the planted report."""
    rng = np.random.default_rng(123)
    nr = max(cfg.rank, 2)
    u = np.linalg.qr(rng.standard_normal((nr, nr))
                     + 1j * rng.standard_normal((nr, nr)))[0]
    sigmas = sigmas or [1.0 - 0.35 * i for i in range(cfg.rank)]
    beams = decode_combination(pmi.i12, cfg.geom.n1 * cfg.geom.n2, cfg.l)
    eff = compact.spatial_effective_regular(cfg.geom, *pmi.i11, beams)
    h = np.zeros((1, cfg.n3, nr, cfg.n_ports), dtype=complex)
    for layer in range(cfg.rank):
        taps = enhanced.decode_taps(cfg, pmi)[layer]
        freq = compact.frequency_effective(cfg.n3, taps)
        w = compact.compact_r16(eff, enhanced.layer_coefficients(cfg, pmi)[layer],
                                freq)  # (P, N3), unnormalized
        w = w * (sigmas[layer] / np.linalg.norm(w))
        for t in range(cfg.n3):
            h[0, t] += np.outer(u[:, layer], w[:, t].conj())
    return ChannelRealization(h=h)


def disjoint_layer_supports(pmi, rank, l, rng, cls, **named):
    """Restrict each layer's bitmap to a disjoint set of beam positions so
    the planted layers are separable at the receiver (orthogonal beams)."""
    two_l = 2 * l
    positions = rng.permutation(two_l)
    groups = np.array_split(positions, rank)
    bitmap = np.array(pmi.bitmap)
    k2 = np.array(pmi.k2)
    c = np.array(pmi.c)
    i18 = []
    for layer in range(rank):
        allowed = set(int(i) for i in groups[layer])
        for i in range(two_l):
            if i not in allowed:
                bitmap[layer, i] = 0
                k2[layer, i] = 0
                c[layer, i] = 0
        flat = bitmap[layer].reshape(two_l, -1)
        if not flat[:, 0].any():
            i_star = int(sorted(allowed)[0])
            bitmap[layer].reshape(two_l, -1)[i_star, 0] = 1
        # re-pin the strongest coefficient at tap 0 of this layer
        col = np.flatnonzero(bitmap[layer].reshape(two_l, -1)[:, 0])
        i_star = int(col[0])
        k2[layer].reshape(two_l, -1)[i_star, 0] = 7
        c[layer].reshape(two_l, -1)[i_star, 0] = 0
        i18.append((i_star, layer))
    return bitmap, k2, c, i18


@pytest.mark.parametrize("rank", [1, 2])
def test_search_r16_plant_and_recover(rank):
    cfg = type2_r16.R16Config(param_combination=2, r=1, n3=9, rank=rank,
                              geom=GEOM)
    rng = np.random.default_rng(11)
    ok = 0
    trials = 30
    for _ in range(trials):
        pmi = type2_r16.random_valid_pmi(cfg, rng)
        if rank > 1:
            bitmap, k2, c, stars = disjoint_layer_supports(
                pmi, rank, cfg.l, rng, type2_r16.R16Pmi)
            k1 = np.array(pmi.k1)
            i18 = []
            for i_star, layer in stars:
                k1[layer] = np.maximum(k1[layer], 1)
                k1[layer, i_star // cfg.l] = 15
                i18.append(enhanced.encode_strongest(cfg, bitmap[layer],
                                                      i_star))
            pmi = type2_r16.R16Pmi(pmi.i11, pmi.i12, pmi.i15, pmi.i16,
                                   tuple(i18), bitmap, k1, k2, c)
            try:
                type2_r16.reconstruct_all(cfg, pmi)
            except Exception:
                continue
        ch = plant_r16(cfg, pmi)
        found = search_r16(ch, cfg)
        w0 = type2_r16.reconstruct_all(cfg, pmi)
        w1 = type2_r16.reconstruct_all(cfg, found)
        corr = min(abs(np.vdot(w0[t, :, l], w1[t, :, l])) * rank
                   for t in range(cfg.n3) for l in range(rank))
        ok += corr > 0.99
    assert ok >= 0.9 * trials


@pytest.mark.parametrize("shape", [(4, 2), (2, 1), (3, 2), (8, 1)])
def test_group_scan_matches_the_per_group_loop(shape):
    geom = ArrayGeometry.from_antennas(*shape)
    rng = np.random.default_rng(sum(shape))
    targets = (rng.standard_normal((2, 3, geom.n_ports))
               + 1j * rng.standard_normal((2, 3, geom.n_ports)))
    half = geom.n_ports // 2
    energy = channel_sim._group_energy(targets, geom)
    for q1 in range(geom.o1):
        for q2 in range(geom.o2):
            grp = orthogonal_group(geom, q1, q2)
            ref = sum((np.abs(t[:half] @ grp.conj()) ** 2
                       + np.abs(t[half:] @ grp.conj()) ** 2)
                      for t in targets.reshape(-1, geom.n_ports))
            np.testing.assert_allclose(energy[q1, q2], ref, rtol=1e-12)
    # the port-block picker against the block loop, blocks d ports apart
    per_port = (np.abs(targets.reshape(-1, half)) ** 2).sum(axis=0)
    for l in range(1, half + 1):
        for d in range(1, l + 1):
            blocks = [per_port[b:b + l].sum()
                      for b in range(0, half - l + 1, d)]
            config = types.SimpleNamespace(p_csirs=geom.n_ports, l=l, d=d)
            assert channel_sim._pick_port_block(
                targets, config) == int(np.argmax(blocks))


def test_tied_beams_pick_the_lowest_index_in_every_release(monkeypatch):
    # beams 1, 2 and 3 of every group carry the same energy, the others
    # none: every group ties, and the beam rule keeps beams 1 and 2
    def tied_energy(targets, geom, l):
        energy = np.zeros((geom.o1, geom.o2, geom.n1 * geom.n2))
        energy[..., 1:4] = 1.0
        return energy

    monkeypatch.setattr(channel_sim, "_contender_energy", tied_energy)
    model = ChannelModel(n_paths=3, seed=4, n_subcarriers=8)
    ch = draw_channel(model, GEOM, nr=2, trial=0, n4=2)
    flat = ChannelRealization(h=ch.h[:1])
    found = [
        type2_r15.search_t2_r15(flat.flat, type2_r15.T2R15Config(
            l=2, geom=GEOM, subband_count=2)),
        search_r16(flat, type2_r16.R16Config(param_combination=2, r=1, n3=8,
                                             geom=GEOM)),
        search_r18(ch, type2_r18.R18Config(geom=GEOM, param_combination=2,
                                           r=1, n3=8, n4=2)),
    ]
    for pmi in found:
        assert decode_combination(pmi.i12, 8, 2) == (1, 2)


def test_search_skips_a_tied_degenerate_candidate(monkeypatch):
    # beams (0, 5) of group (1, 2) finish into a report whose three taps
    # cancel at one frequency unit; tied ahead of the best group, the
    # candidate must be skipped, not raised
    cfg = type2_r16.R16Config(param_combination=1, r=1, n3=12, geom=GEOM)
    model = ChannelModel(n_paths=6, delay_spread=1e-6,
                         subcarrier_spacing=180e3, n_subcarriers=12, seed=5)
    ch = draw_channel(model, GEOM, nr=2, trial=5)
    targets = channel_sim._targets(ch.flat[None], cfg.rank)
    (degenerate,), *_ = channel_sim._finish(
        cfg, targets, [(1, 2)], [encode_combination([0, 5], 8, 2)],
        [orthogonal_group(GEOM, 1, 2)[:, [0, 5]]])
    with pytest.raises(DegenerateReportError):
        type2_r16.reconstruct_all(cfg, degenerate)
    expected = search_r16(ch, cfg)
    assert expected.i11 == (1, 1)

    pick_beams = channel_sim._pick_beams
    forced = [np.array([0, 5])]      # the first pick, for group (1, 2)

    def pick(*args):
        return forced.pop() if forced else pick_beams(*args)

    monkeypatch.setattr(channel_sim, "_tied_groups",
                        lambda energy, l: [(1, 2), (1, 1)])
    monkeypatch.setattr(channel_sim, "_pick_beams", pick)
    found = search_r16(ch, cfg)
    assert cli.pmi_to_fields(found) == cli.pmi_to_fields(expected)
    # with no other candidate, the search names the cause, never None
    forced.append(np.array([0, 5]))
    monkeypatch.setattr(channel_sim, "_tied_groups",
                        lambda energy, l: [(1, 2)])
    with pytest.raises(DegenerateReportError, match="every candidate"):
        search_r16(ch, cfg)


@pytest.mark.parametrize("n3", [20, 21, 24, 30, 36])
@pytest.mark.parametrize("rank", [1, 2])
def test_search_r16_window_covering_every_tap(n3, rank):
    # paramCombination 6 with R = 1: Mv = ceil(N3/2), so the i15 window of
    # 2Mv taps at M_initial = 0 already covers all N3 taps; the report and
    # its taps are the per-layer finish's on the chosen beams
    cfg = type2_r16.R16Config(param_combination=6, r=1, n3=n3, rank=rank,
                              geom=GEOM)
    assert cfg.window_mode and 2 * cfg.mv >= n3
    model = ChannelModel(n_paths=4, n_subcarriers=n3, seed=n3)
    for trial in range(3):
        ch = draw_channel(model, GEOM, nr=2, trial=trial)
        found = search_r16(ch, cfg)
        assert found.i15 == 0
        ws = type2_r16.reconstruct_all(cfg, found)
        np.testing.assert_allclose(np.linalg.norm(ws, axis=-2),
                                   1 / np.sqrt(rank), atol=1e-9)
        expected, taps, _ = finish_oracle(
            cfg, channel_sim._targets(ch.h, rank), found.i11, found.i12,
            enhanced.selected_beams(cfg, found))
        assert cli.pmi_to_fields(found) == cli.pmi_to_fields(expected)
        assert [enhanced.decode_taps(cfg, found)[layer]
                for layer in range(rank)] == [tuple(t) for t in taps.tolist()]


def test_search_r16_flat_channel_taps():
    # frequency-flat channel: all energy on tap 0
    cfg = type2_r16.R16Config(param_combination=2, r=1, n3=8, rank=1, geom=GEOM)
    rng = np.random.default_rng(2)
    a = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    h = np.repeat(a[None, None, None, :], 8, axis=1)
    found = search_r16(ChannelRealization(h=h), cfg)
    taps = enhanced.decode_taps(cfg, found)[0]
    coef = enhanced.layer_coefficients(cfg, found)[0]
    energy = np.abs(coef) ** 2
    assert energy[:, 0].sum() > 0.99 * energy.sum()
    assert taps[0] == 0


def test_search_r16_discrete_delay():
    # single discrete delay aligned with tap 3: selected pre-remap taps
    # include 3
    cfg = type2_r16.R16Config(param_combination=2, r=1, n3=8, rank=1, geom=GEOM)
    from nrpmi.channel_sim import _tx_response
    a = _tx_response(GEOM, 4, 1)
    h = np.zeros((1, 8, 1, 16), dtype=complex)
    for t in range(8):
        phase = np.exp(2j * np.pi * 3 * t / 8)
        h[0, t, 0, :8] = (phase * a).conj()
    found = search_r16(ChannelRealization(h=h), cfg)
    # remapped reference absorbed tap 3: the planted tap is the new origin;
    # verify through reconstruction correlation with the planted response
    w = type2_r16.reconstruct_all(cfg, found)
    for t in range(8):
        target = np.concatenate([np.exp(2j * np.pi * 3 * t / 8) * a,
                                 np.zeros(8)])
        corr = abs(np.vdot(target / np.linalg.norm(target), w[t, :, 0]))
        assert corr > 0.99


def plant_r17(cfg, pmi, nr=2):
    rng = np.random.default_rng(321)
    u = np.linalg.qr(rng.standard_normal((nr, nr))
                     + 1j * rng.standard_normal((nr, nr)))[0]
    ports = type2_r17.decode_ports(cfg, pmi)
    taps = type2_r17.decode_tap_offset(cfg, pmi)
    eff = compact.spatial_effective_ps(cfg.p_csirs, ports)
    h = np.zeros((1, cfg.n3, nr, cfg.p_csirs), dtype=complex)
    sigmas = [1.0 - 0.35 * i for i in range(cfg.rank)]
    for layer in range(cfg.rank):
        freq = compact.frequency_effective(cfg.n3, taps)
        w = compact.compact_r16(eff, enhanced.layer_coefficients(cfg, pmi)[layer],
                                freq)
        w = w * (sigmas[layer] / np.linalg.norm(w))
        for t in range(cfg.n3):
            h[0, t] += np.outer(u[:, layer], w[:, t].conj())
    return ChannelRealization(h=h)


@pytest.mark.parametrize("combo", [1, 6])
def test_search_r17_plant_and_recover(combo):
    cfg = type2_r17.R17Config(p_csirs=16, param_combination=combo, n3=6,
                              n_threshold=4, rank=1)
    rng = np.random.default_rng(13)
    ok = 0
    trials = 30
    for _ in range(trials):
        pmi = type2_r17.random_valid_pmi(cfg, rng)
        ch = plant_r17(cfg, pmi)
        found = search_r17(ch, cfg)
        w0 = type2_r17.reconstruct_all(cfg, pmi)
        w1 = type2_r17.reconstruct_all(cfg, found)
        corr = min(abs(np.vdot(w0[t, :, 0], w1[t, :, 0]))
                   for t in range(cfg.n3))
        ok += corr > 0.99
    assert ok >= 0.9 * trials


def plant_r18(cfg, pmi, nr=2):
    rng = np.random.default_rng(555)
    u = np.linalg.qr(rng.standard_normal((nr, nr))
                     + 1j * rng.standard_normal((nr, nr)))[0]
    beams = decode_combination(pmi.i12, cfg.geom.n1 * cfg.geom.n2, cfg.l)
    eff = compact.spatial_effective_regular(cfg.geom, *pmi.i11, beams)
    h = np.zeros((cfg.n4, cfg.n3, nr, cfg.n_ports), dtype=complex)
    sigmas = [1.0 - 0.35 * i for i in range(cfg.rank)]
    for layer in range(cfg.rank):
        taps = enhanced.decode_taps(cfg, pmi)[layer]
        shifts = type2_r18.decode_shifts(cfg, pmi)[layer]
        freq = compact.frequency_effective(cfg.n3, taps)
        time = compact.temporal_effective(cfg.n4, shifts)
        core = enhanced.layer_coefficients(cfg, pmi)[layer][:, :, :len(shifts)]
        w = compact.compact_r18_tucker(core, eff, freq, time)  # (P, N3, N4)
        w = w * (sigmas[layer] / np.linalg.norm(w))
        for t in range(cfg.n3):
            for n in range(cfg.n4):
                h[n, t] += np.outer(u[:, layer], w[:, t, n].conj())
    return ChannelRealization(h=h)


@pytest.mark.parametrize("rank", [1, 2])
def test_search_r18_plant_and_recover(rank):
    cfg = type2_r18.R18Config(geom=GEOM, param_combination=2, r=1, n3=9,
                              n4=4, rank=rank)
    rng = np.random.default_rng(17)
    ok = 0
    trials = 25
    for _ in range(trials):
        pmi = type2_r18.random_valid_pmi(cfg, rng)
        if rank > 1:
            bitmap, k2, c, stars = disjoint_layer_supports(
                pmi, rank, cfg.l, rng, type2_r18.R18Pmi)
            k1 = np.array(pmi.k1)
            i18 = []
            for i_star, layer in stars:
                k1[layer] = np.maximum(k1[layer], 1)
                k1[layer, i_star // cfg.l] = 15
                i18.append(enhanced.encode_strongest(cfg, bitmap[layer],
                                                      i_star, 0))
            pmi = type2_r18.R18Pmi(pmi.i11, pmi.i12, pmi.i15, pmi.i16,
                                   tuple(i18), pmi.i110, bitmap, k1, k2, c)
            try:
                type2_r18.reconstruct_all(cfg, pmi)
            except Exception:
                continue
        ch = plant_r18(cfg, pmi)
        found = search_r18(ch, cfg)
        w0 = type2_r18.reconstruct_all(cfg, pmi)
        w1 = type2_r18.reconstruct_all(cfg, found)
        corr = min(abs(np.vdot(w0[t, n, :, l], w1[t, n, :, l])) * rank
                   for t in range(cfg.n3) for n in range(cfg.n4)
                   for l in range(rank))
        ok += corr > 0.99
    assert ok >= 0.9 * trials


def test_search_r18_static_channel():
    # static over intervals: shift-1 contribution vanishes, precoders constant
    cfg = type2_r18.R18Config(geom=GEOM, param_combination=2, r=1, n3=8,
                              n4=4, rank=1)
    rng = np.random.default_rng(3)
    a = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    h = np.repeat(np.repeat(a[None, None, None, :], 8, axis=1), 4, axis=0)
    found = search_r18(ChannelRealization(h=h), cfg)
    coef = enhanced.layer_coefficients(cfg, found)[0]
    shift1_energy = float((np.abs(coef[:, :, 1]) ** 2).sum())
    total = float((np.abs(coef) ** 2).sum())
    assert shift1_energy < 1e-9 * total
    ws = type2_r18.reconstruct_all(cfg, found)
    for n in range(1, 4):
        np.testing.assert_allclose(ws[:, n], ws[:, 0], atol=1e-9)


_ARRAY = {"n1": 4, "n2": 2, "o1": 4, "o2": 4}


@pytest.mark.parametrize("release,cfg,search", [
    ("r16", {**_ARRAY, "param_combination": 4, "r": 1, "n3": 12}, search_r16),
    ("r17-ps", {"p_csirs": 16, "param_combination": 6, "n3": 12,
                "n_threshold": 4}, search_r17),
    ("r18", {**_ARRAY, "param_combination": 2, "r": 1, "n3": 12, "n4": 4},
     search_r18),
], ids=["r16", "r17", "r18"])
@pytest.mark.parametrize("rank", [1, 2])
def test_searched_report_dumps_as_json(release, cfg, search, rank):
    """A searched report is JSON-ready, as ``pmi_to_fields`` documents, and
    reads back to the same fields."""
    config = cli.build_release_config(release, {**cfg, "rank": rank})
    model = ChannelModel(n_paths=4, n_subcarriers=cfg["n3"], seed=rank)
    ch = draw_channel(model, GEOM, nr=2, trial=0, n4=cfg.get("n4", 1))
    fields = cli.pmi_to_fields(search(ch, config))
    text = json.dumps(fields)
    back = cli.fields_to_pmi(release, json.loads(text))
    assert cli.pmi_to_fields(back) == fields


def test_spectral_efficiency_experiment_shape():
    rows = spectral_efficiency_experiment(antenna_configs=((4, 1),),
                                          snr_db=(0, 10), trials=20, seed=1)
    assert len(rows) == 4
    r10 = [r for r in rows if r["snr_db"] == 10]
    t2 = next(r for r in r10 if r["scheme"] == "type2")
    t1 = next(r for r in r10 if r["scheme"] == "type1")
    assert t2["mean_rate"] >= t1["mean_rate"] - 1e-9


def test_search_r16_port_selection_plant():
    cfg = type2_r16.R16Config(param_combination=1, r=1, n3=8, rank=1,
                              p_csirs=16, d=2)
    rng = np.random.default_rng(23)
    ok = 0
    trials = 20
    for _ in range(trials):
        pmi = type2_r16.random_valid_pmi(cfg, rng)
        ports = [pmi.i11 * cfg.d + i for i in range(cfg.l)]
        eff = compact.spatial_effective_ps(cfg.p_csirs, ports)
        taps = enhanced.decode_taps(cfg, pmi)[0]
        freq = compact.frequency_effective(cfg.n3, taps)
        w = compact.compact_r16(eff, enhanced.layer_coefficients(cfg, pmi)[0],
                                freq)
        u = np.array([1.0, 1j]) / np.sqrt(2)
        h = np.zeros((1, cfg.n3, 2, cfg.p_csirs), dtype=complex)
        for t in range(cfg.n3):
            h[0, t] = np.outer(u, w[:, t].conj())
        found = search_r16(ChannelRealization(h=h), cfg)
        w0 = type2_r16.reconstruct_all(cfg, pmi)
        w1 = type2_r16.reconstruct_all(cfg, found)
        ok += all(abs(np.vdot(w0[t, :, 0], w1[t, :, 0])) > 0.99
                  for t in range(cfg.n3))
    assert ok >= 0.9 * trials


def rank_deficient_cases():
    # rank 2 on two equal receive rows: layer 1's target is exactly zero
    yield "r16", search_r16, type2_r16, type2_r16.R16Config(
        param_combination=4, r=1, n3=18, rank=2, geom=GEOM), 1
    yield "r17", search_r17, type2_r17, type2_r17.R17Config(
        p_csirs=16, param_combination=6, n3=12, n_threshold=4, rank=2), 1
    yield "r18", search_r18, type2_r18, type2_r18.R18Config(
        geom=GEOM, param_combination=2, r=1, n3=12, n4=4, rank=2), 4


@pytest.mark.parametrize("search, release, cfg, n4",
                         [case[1:] for case in rank_deficient_cases()],
                         ids=[case[0] for case in rank_deficient_cases()])
def test_rank_deficient_channel_reports_the_zero_layer_reference(
        search, release, cfg, n4):
    # a layer with no usable reference reports its reference alone, as
    # Rel-15's search reports such a layer, instead of raising
    model = ChannelModel(n_paths=6, delay_spread=1e-6, doppler_max=200.0,
                         subcarrier_spacing=180e3, n_subcarriers=cfg.n3,
                         seed=7)
    for trial in range(3):
        h = draw_channel(model, GEOM, nr=2, trial=trial, n4=n4).h
        h[..., 1, :] = h[..., 0, :]
        targets = channel_sim._targets(h, cfg.rank)
        assert not targets[1].any() and targets[0].any()
        pmi = search(ChannelRealization(h=h), cfg)
        ws = release.reconstruct_all(cfg, pmi)
        assert np.allclose(np.linalg.norm(ws, axis=-2),
                           1 / math.sqrt(cfg.rank))
        zero = enhanced.grid(pmi.bitmap)[1]
        assert zero.sum() == 1 and zero[0, 0, 0] == 1
        assert pmi.k1[1].tolist() == [15, 1]
        assert enhanced.grid(pmi.k2)[1, 0, 0, 0] == 7
        assert not pmi.c[1].any()


@pytest.mark.parametrize("trial", [43, 113])
def test_search_r16_port_selection_rejects_a_degenerate_report(trial):
    # the one port-block candidate finishes into a report whose taps cancel
    # at a frequency unit: the search raises, as the regular path does,
    # instead of returning a report reconstruct_all rejects
    cfg = type2_r16.R16Config(param_combination=1, r=1, n3=8, rank=1,
                              p_csirs=16, d=1)
    model = ChannelModel(n_paths=6, delay_spread=1e-6,
                         subcarrier_spacing=180e3, n_subcarriers=8, seed=5)
    ch = draw_channel(model, GEOM, nr=2, trial=trial)
    targets = channel_sim._targets(ch.flat[None], cfg.rank)
    i11 = channel_sim._pick_port_block(targets, cfg)
    (report,), *_ = channel_sim._finish(cfg, targets, [i11], [None],
                                        [enhanced.port_block(cfg, i11)])
    with pytest.raises(DegenerateReportError, match="zero energy"):
        type2_r16.reconstruct_all(cfg, report)
    with pytest.raises(DegenerateReportError,
                       match="every candidate report is degenerate"):
        search_r16(ch, cfg)


def test_search_keeps_every_layer_within_the_budget():
    # rank 4 on a rich channel: the first two layers alone could spend
    # 2*K0, but each keeps one coefficient back for every later layer's
    # strongest one, so the report stays within budget and reconstructs
    cfg = type2_r17.R17Config(p_csirs=16, param_combination=6, n3=12,
                              n_threshold=4, rank=4)
    model = ChannelModel(n_paths=6, delay_spread=1e-6,
                         subcarrier_spacing=180e3, n_subcarriers=12, seed=2)
    ch = draw_channel(model, GEOM, nr=4, trial=0)
    pmi = search_r17(ch, cfg)
    type2_r17.reconstruct_all(cfg, pmi)
    k_nz = pmi.bitmap.reshape(cfg.rank, -1).sum(axis=1)
    assert k_nz.tolist() == [cfg.k0, cfg.k0 - 2, 1, 1]


def test_search_r17_tied_ports_pick_the_lowest_index():
    # every port carries exactly the same energy: the beam rule keeps
    # ports 0..L-1, as it keeps the lowest beams of a group
    cfg = type2_r17.R17Config(p_csirs=16, param_combination=6, n3=6,
                              n_threshold=4)
    rng = np.random.default_rng(17)
    a = rng.standard_normal((cfg.n3, 2)) + 1j * rng.standard_normal((cfg.n3, 2))
    h = np.repeat(a[None, :, :, None], cfg.p_csirs, axis=-1)
    energy = (np.abs(channel_sim._targets(h, 1)) ** 2).sum(axis=(0, 1, 2))
    assert (energy == energy[0]).all()
    pmi = search_r17(ChannelRealization(h=h), cfg)
    assert type2_r17.decode_ports(cfg, pmi) == tuple(range(cfg.l))


def test_search_r17_rejects_a_degenerate_report():
    # layer 1's two reported taps cancel at one frequency unit: the report
    # fails the candidate check every Enhanced Type II search runs, so the
    # search raises instead of returning a report reconstruct_all rejects
    geom = ArrayGeometry(n1=2, n2=1, o1=4, o2=1)
    cfg = type2_r17.R17Config(p_csirs=4, param_combination=5, n3=8,
                              n_threshold=4, rank=2)
    model = ChannelModel(n_paths=6, delay_spread=1e-6, doppler_max=300,
                         subcarrier_spacing=180e3, n_subcarriers=8, seed=1)
    ch = draw_channel(model, geom, nr=4, trial=1)
    with pytest.raises(DegenerateReportError,
                       match="every candidate report is degenerate"):
        search_r17(ch, cfg)


def test_budget_rule_is_one_for_draw_and_search():
    # K0 = 1: a budget of 2 cannot give three layers a reference each, and
    # the draw and the search's quantizer refuse it alike
    cfg = type2_r16.R16Config(param_combination=1, r=1, n3=4, rank=3,
                              geom=GEOM)
    assert 2 * cfg.k0 < cfg.rank
    coefs = np.ones((cfg.rank, 2 * cfg.l, cfg.mv, 1), dtype=complex)
    message = "budget cannot host one coefficient per layer"
    with pytest.raises(BudgetError, match=message):
        enhanced.draw_coefficients(cfg, np.random.default_rng(0))
    with pytest.raises(BudgetError, match=message):
        channel_sim._quantize_layers(cfg, coefs)


def _r15_config(**kw):
    return type2_r15.T2R15Config(l=2, geom=GEOM, **kw)


def _channel(m, n4=1, fill=None):
    """A drawn (N4, M, 2, 16) channel, or one filled with ``fill``."""
    model = ChannelModel(n_subcarriers=max(m, 1), seed=3)
    h = draw_channel(model, GEOM, nr=2, n4=n4).h[:, :m]
    if fill is not None:
        h = np.full_like(h, fill)
    return h


R16_CFG = type2_r16.R16Config(param_combination=1, r=1, n3=8, geom=GEOM)
R17_CFG = type2_r17.R17Config(p_csirs=16, param_combination=5, n3=8)
R18_CFG = type2_r18.R18Config(geom=GEOM, param_combination=1, r=1, n3=8,
                              n4=2)


# each case returned a report or raised another error before the searches
# shared one channel check
@pytest.mark.parametrize("search, cfg, h, match", [
    (type2_r15.search_t2_r15, _r15_config(), _channel(4, fill=0)[0],
     "all zero"),
    (type2_r15.search_t2_r15, _r15_config(subband_count=4), _channel(2)[0],
     "M=2 subcarriers < 4 subbands"),
    (type2_r15.search_t2_r15, _r15_config(subband_count=4), _channel(0)[0],
     "M=0 subcarriers < 4 subbands"),
    (search_type1, Type1Config(GEOM, subband_count=4), _channel(2)[0],
     "M=2 subcarriers < 4 subbands"),
    (search_r16, R16_CFG, ChannelRealization(_channel(8, fill=np.nan)),
     "non-finite"),
    (search_type1, Type1Config(GEOM), _channel(4, fill=np.nan)[0],
     "non-finite"),
    (search_r16, R16_CFG, ChannelRealization(_channel(8, fill=0)),
     "all zero"),
    (search_r17, R17_CFG, ChannelRealization(_channel(8, fill=0)),
     "all zero"),
    (search_r18, R18_CFG, ChannelRealization(_channel(8, n4=2, fill=0)),
     "all zero"),
], ids=["r15-zero", "r15-M2", "r15-M0", "type1-M2", "r16-nan", "type1-nan",
        "r16-zero", "r17-zero", "r18-zero"])
def test_every_search_rejects_a_malformed_channel(search, cfg, h, match):
    with pytest.raises(DomainError, match=match):
        search(h, cfg)


# the link-t2 benchmark's Type II searches, each on its slice of an
# (N4 = 4, 24, 2, 16) channel draw
LINK_SEARCHES = {
    "r15": (type2_r15.T2R15Config(l=4, n_psk=8, rank=2, subband_count=4,
                                  geom=GEOM),
            lambda h, cfg: type2_r15.search_t2_r15(h[0], cfg)),
    "r16": (LINK_R16, lambda h, cfg: search_r16(h[:1, :cfg.n3], cfg)),
    "r17": (type2_r17.R17Config(p_csirs=16, param_combination=6, n3=12,
                                n_threshold=4, rank=2),
            lambda h, cfg: search_r17(h[:1, :cfg.n3], cfg)),
    "r18": (LINK_R18, lambda h, cfg: search_r18(h[:, :cfg.n3], cfg)),
}


def _link_channel(trial):
    model = ChannelModel(seed=3, **LINK_MODEL)
    return draw_channel(model, GEOM, nr=2, trial=trial, n4=4).h


@pytest.mark.parametrize("scale", [1e154, 1e160, 1e300])
@pytest.mark.parametrize("release", list(LINK_SEARCHES))
def test_type2_search_names_an_overflowing_channel_energy(release, scale):
    # a finite channel whose energy overflows a double: Rel-16 and Rel-18
    # raised a bare ValueError (an empty tie set), Rel-15 a LinAlgError and
    # Rel-17 returned a report computed from non-finite values
    cfg, search = LINK_SEARCHES[release]
    h = _link_channel(0) * scale
    assert np.isfinite(h).all()
    with pytest.raises(DomainError, match=r"energy \|\|H\|\|_F\^2=inf"):
        search(h, cfg)


@pytest.mark.parametrize("release", list(LINK_SEARCHES))
def test_type2_reports_hold_at_large_channel_scales(release):
    cfg, search = LINK_SEARCHES[release]
    for trial in range(10):
        h = _link_channel(trial)
        expected = cli.pmi_to_fields(search(h, cfg))
        for scale in (1e100, 1e150):
            assert cli.pmi_to_fields(search(h * scale, cfg)) == expected


def test_r16_reports_hold_at_a_small_channel_scale():
    # _finish, _quantize_layers and _quantize_report compare .round(12)
    # magnitudes: at 1e-12, 44 of these 50 reports changed before the
    # searches normalized the channel by a power of two
    cfg, search = LINK_SEARCHES["r16"]
    for trial in range(50):
        h = _link_channel(trial)
        assert (cli.pmi_to_fields(search(h * 1e-12, cfg))
                == cli.pmi_to_fields(search(h, cfg)))


# all five link-t2 configs: LINK_SEARCHES and the two-level tap window
LINK_T2 = {**LINK_SEARCHES, "r16-window": (
    type2_r16.R16Config(param_combination=4, r=1, n3=24, rank=2, geom=GEOM),
    lambda h, cfg: search_r16(h[:1, :cfg.n3], cfg))}


def _receive_unitary(seed):
    """A random 2x2 unitary: the Q of a complex Gaussian matrix."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2))
                        + 1j * rng.standard_normal((2, 2)))
    return q


@pytest.mark.parametrize("release", list(LINK_T2))
def test_type2_reports_hold_under_power_of_two_scales(release):
    # the searches normalize the channel by a power of two, so 2^k changes
    # no step of the search and every report is a law here, not a
    # regression pin; without it, 2^-40 changed most r16, r17 and r18
    # reports
    cfg, search = LINK_T2[release]
    for trial in range(6):
        h = _link_channel(trial)
        expected = cli.pmi_to_fields(search(h, cfg))
        for k in (-1000, -40, -20, -13, -1, 1, 7, 64, 255, 500):
            assert cli.pmi_to_fields(search(h * 2.0 ** k, cfg)) == expected


@pytest.mark.parametrize("release", list(LINK_T2))
def test_type2_reports_hold_under_a_phase_and_a_receive_unitary(release):
    # a global phase and a receive-side unitary leave every covariance and
    # target unchanged in exact arithmetic; on these seeds no report moves
    # in rounding either
    cfg, search = LINK_T2[release]
    for trial in range(6):
        h = _link_channel(trial)
        expected = cli.pmi_to_fields(search(h, cfg))
        assert cli.pmi_to_fields(search(h * np.exp(0.7j), cfg)) == expected
        rotated = _receive_unitary(trial) @ h
        assert cli.pmi_to_fields(search(rotated, cfg)) == expected


@pytest.mark.parametrize("search, cfg, n4", [
    (search_type1, Type1Config(GEOM, rank=2), 1),
    (type2_r15.search_t2_r15, _r15_config(rank=2), 1),
    (search_r16, type2_r16.R16Config(1, 1, 8, rank=2, geom=GEOM), 1),
    (search_r17, type2_r17.R17Config(16, 5, 8, rank=2), 1),
    (search_r18, type2_r18.R18Config(GEOM, 1, 1, 8, 2, rank=2), 2),
], ids=["type1", "r15", "r16", "r17", "r18"])
def test_every_search_rejects_a_rank_above_nr(search, cfg, n4):
    # Type I and Rel-15 returned a rank-2 report for one receive antenna
    h = draw_channel(ChannelModel(n_subcarriers=8, seed=3), GEOM, nr=1,
                     n4=n4).h
    with pytest.raises(DomainError, match="rank 2 exceeds 1 receive antennas"):
        search(h, cfg)


def test_search_r16_reads_an_array_as_a_channel():
    h = _channel(8)
    assert (cli.pmi_to_fields(search_r16(h, R16_CFG))
            == cli.pmi_to_fields(search_r16(ChannelRealization(h), R16_CFG)))


@pytest.mark.parametrize("h, kw, match", [
    (np.ones((2, 16)), {}, r"\(2, 16\) is not \(N4=1, M, Nr, 16\)"),
    (np.ones((1, 1, 2, 2, 16)), {}, "is not"),
    (np.ones((2, 2, 8)), {}, r"\(1, 2, 2, 8\) is not \(N4=1, M, Nr, 16"),
    (np.full((2, 2, 16), "x"), {}, "non-numeric"),
    (np.ones((2, 2, 16)), {"n4": 2}, r"is not \(N4=2"),
    (np.ones((2, 2, 16)), {"n3": 8}, "M=2 subcarriers, N3=8"),
    (np.ones((2, 2, 16)), {"subbands": 3}, "< 3 subbands"),
    (np.full((2, 2, 16), np.inf), {}, "non-finite"),
    (np.zeros((2, 2, 16)), {}, "all zero"),
    (np.ones((2, 1, 16)), {"rank": 2}, "rank 2 exceeds 1 receive antennas"),
])
def test_search_channel_names_the_problem(h, kw, match):
    with pytest.raises(DomainError, match=match):
        channel_sim._search_channel(h, 16, **kw)


def test_search_channel_reads_one_interval_as_n4_1():
    h = _channel(4)
    for channel in (h, h[0], ChannelRealization(h)):
        read = channel_sim._search_channel(channel, 16, n3=4, subbands=4)
        assert read.shape == (1, 4, 2, 16) and np.array_equal(read, h)
