import itertools

import numpy as np
import pytest

from nrpmi.bases import ArrayGeometry, dft_beam
from nrpmi.errors import DomainError, RestrictionError
from nrpmi.type1 import (
    _codebook,
    _codeword_rates,
    _subband_rate,
    Type1Config,
    Type1Pmi,
    build_precoder,
    check_beam_restriction,
    check_rank_restriction,
    i13_range,
    k_offsets,
    random_valid_pmi,
    search_type1,
)


def all_pmis(config):
    i13s = range(i13_range(config.geom)) if config.rank == 2 else (None,)
    for i11, i12, i13 in itertools.product(
            range(config.i11_range), range(config.i12_range), i13s):
        for i2 in range(config.i2_range):
            yield Type1Pmi(i11, i12, (i2,) * config.subband_count, i13)


def test_k_offsets_regimes():
    g42 = ArrayGeometry(4, 2, 4, 4)   # N1 > N2 > 1
    assert k_offsets(1, g42) == (4, 0)
    assert k_offsets(3, g42) == (8, 0)
    g22 = ArrayGeometry(2, 2, 4, 4)   # N1 = N2
    assert k_offsets(2, g22) == (0, 4)
    assert k_offsets(3, g22) == (4, 4)
    g41 = ArrayGeometry(4, 1, 4, 1)   # N1 > 2, N2 = 1
    assert k_offsets(2, g41) == (8, 0)
    assert k_offsets(3, g41) == (12, 0)
    g21 = ArrayGeometry(2, 1, 4, 1)   # reduced regime: two offsets only
    assert i13_range(g21) == 2
    assert k_offsets(1, g21) == (4, 0)
    with pytest.raises(DomainError):
        k_offsets(2, g21)


def test_mode2_requires_n2():
    with pytest.raises(DomainError):
        Type1Config(ArrayGeometry(4, 1, 4, 1), mode=2)
    Type1Config(ArrayGeometry(2, 2, 4, 4), mode=2)


def test_rank1_known_precoders():
    g = ArrayGeometry(2, 1, 4, 1)
    cfg = Type1Config(g, rank=1)
    w = build_precoder(cfg, Type1Pmi(0, 0, (0,)))
    np.testing.assert_allclose(w[:, 0], 0.5 * np.ones(4))
    w = build_precoder(cfg, Type1Pmi(0, 0, (1,)))
    np.testing.assert_allclose(w[:, 0], 0.5 * np.array([1, 1, 1j, 1j]), atol=1e-15)
    # i11 = 2 -> v = [1, j]
    w = build_precoder(cfg, Type1Pmi(2, 0, (1,)))
    phi = np.exp(1j * np.pi / 2)
    np.testing.assert_allclose(w[:, 0], 0.5 * np.array([1, 1j, phi, phi * 1j]),
                               atol=1e-15)


def test_rank2_same_beam_when_i13_zero():
    g = ArrayGeometry(4, 1, 4, 1)
    cfg = Type1Config(g, rank=2)
    w = build_precoder(cfg, Type1Pmi(3, 0, (0,), 0))
    v = dft_beam(g, 3, 0)
    np.testing.assert_allclose(np.sqrt(16) * w[:4, 0], v / np.sqrt(1), atol=1e-12)
    np.testing.assert_allclose(w[:4, 0], w[:4, 1], atol=1e-15)


def test_mode2_beam_selection():
    g = ArrayGeometry(2, 2, 4, 4)
    cfg = Type1Config(g, mode=2, rank=2)
    # i2 = 2 -> first beam horizontal index 2*i11 + 1
    w = build_precoder(cfg, Type1Pmi(1, 0, (2,), 0))
    v = dft_beam(g, 3, 0)
    np.testing.assert_allclose(w[:4, 0] * np.sqrt(2 * 8), v, atol=1e-12)


@pytest.mark.parametrize("n1,n2,mode", [(4, 1, 1), (2, 2, 1), (2, 2, 2)])
@pytest.mark.parametrize("rank", [1, 2])
def test_exhaustive_norm_and_orthogonality(n1, n2, mode, rank):
    cfg = Type1Config(ArrayGeometry.from_antennas(n1, n2), mode=mode, rank=rank)
    for pmi in all_pmis(cfg):
        w = build_precoder(cfg, pmi)
        for col in range(rank):
            assert abs(np.linalg.norm(w[:, col]) - 1 / np.sqrt(rank)) < 1e-12
        if rank == 2:
            assert abs(np.vdot(w[:, 0], w[:, 1])) <= 1e-12


def test_combining_identity():
    # applying w to [H1, H2] equals H1 v + phi_n H2 v (scaled by 1/sqrt(P))
    rng = np.random.default_rng(7)
    g = ArrayGeometry(4, 1, 4, 1)
    cfg = Type1Config(g, rank=1)
    h1 = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    h2 = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    pmi = Type1Pmi(5, 0, (3,))
    w = build_precoder(cfg, pmi)
    v = dft_beam(g, 5, 0)
    phi = np.exp(1j * np.pi * 3 / 2)
    lhs = np.hstack([h1, h2]) @ w[:, 0] * np.sqrt(g.n_ports)
    np.testing.assert_allclose(lhs, h1 @ v + phi * (h2 @ v), atol=1e-12)


def test_beam_restriction_layout():
    g = ArrayGeometry(2, 2, 4, 4)
    bits = np.ones(g.beams_h * g.beams_v, dtype=int)
    assert check_beam_restriction(bits, g, 3, 5)
    bits[0] = 0
    assert not check_beam_restriction(bits, g, 0, 0)
    # bit for (l=1, m=0) sits at index N2*O2
    bits = np.ones(g.beams_h * g.beams_v, dtype=int)
    bits[g.beams_v] = 0
    assert not check_beam_restriction(bits, g, 1, 0)
    assert check_beam_restriction(bits, g, 0, 1)


def test_rank_restriction():
    r = [1, 1, 0, 1, 0, 0, 0, 0]
    allowed = [check_rank_restriction(r, k) for k in range(1, 9)]
    assert allowed == [True, True, False, True, False, False, False, False]
    assert check_rank_restriction([1] * 8, 5)
    assert not check_rank_restriction([0] + [1] * 7, 1)


def brute_force_argmax(channel, config, noise_power=1.0, restriction=None):
    # independent per-candidate scan: rebuild every precoder and integrate
    # the rate.  Each subband keeps its first strictly best admissible i2
    # (the i2 of one subband do not interact), then the wideband total must
    # beat the best so far by 1e-12.  A joint scan over i2 tuples can break
    # exact ties differently: at i13 = 0 every rank-2 co-phase spans the
    # same subspace.  Returns None when every PMI is restricted.
    best, best_rate = None, -np.inf
    n_sb = config.subband_count
    edges = np.linspace(0, channel.shape[0], n_sb + 1).astype(int)
    i13s = range(i13_range(config.geom)) if config.rank == 2 else (None,)
    for i11, i12, i13 in itertools.product(
            range(config.i11_range), range(config.i12_range), i13s):
        i2s, total = [], 0.0
        for s in range(n_sb):
            rates = {}
            for i2 in range(config.i2_range):
                pmi = Type1Pmi(i11, i12, (i2,) * n_sb, i13)
                try:
                    w = build_precoder(config, pmi, s, restriction)
                except RestrictionError:
                    continue
                rates[i2] = _subband_rate(channel[edges[s]:edges[s + 1]], w,
                                          noise_power)
            if not rates:
                break
            pick = max(rates, key=rates.get)   # first of the maxima
            i2s.append(pick)
            total += rates[pick]
        if len(i2s) == n_sb and total > best_rate + 1e-12:
            best, best_rate = Type1Pmi(i11, i12, tuple(i2s), i13), total
    return best


SEARCH_CASES = [pytest.param(n1, n2, mode, id=f"{n1}x{n2}-mode{mode}")
                for n1, n2, mode in [(2, 1, 1), (4, 1, 1), (2, 2, 1), (2, 2, 2),
                                     (3, 2, 1), (4, 2, 2)]]
RANKS = pytest.mark.parametrize("rank", [1, 2], ids=["rank1", "rank2"])


def oracle_codeword(config, pmi, subband=0):
    """One codeword, rebuilt from ``dft_beam`` with the per-codeword
    rank-1 and rank-2 expressions of TS 38.214 Tables 5.2.2.2.1-5/-6."""
    g = config.geom
    i2 = pmi.i2[subband]
    if config.mode == 1:
        l, m, n = pmi.i11, pmi.i12, i2
    else:
        l, m, n = 2 * pmi.i11 + (i2 // 2) % 2, 2 * pmi.i12 + i2 // 4, i2 % 2
    v = dft_beam(g, l, m)
    phi = np.exp(1j * np.pi * n / 2)
    p = g.n_ports
    if config.rank == 1:
        return (np.concatenate([v, phi * v]) / np.sqrt(p)).reshape(p, 1)
    k1, k2 = k_offsets(pmi.i13, g)
    vp = dft_beam(g, (l + k1) % g.beams_h, (m + k2) % g.beams_v)
    w1 = np.concatenate([v, phi * v])
    w2 = np.concatenate([vp, -phi * vp])
    return np.column_stack([w1, w2]) / np.sqrt(2 * p)


@pytest.mark.parametrize("n1,n2,mode", SEARCH_CASES)
@RANKS
def test_every_codeword_matches_the_oracle(n1, n2, mode, rank):
    cfg = Type1Config(ArrayGeometry.from_antennas(n1, n2), mode=mode,
                      rank=rank, subband_count=2)
    for pmi in all_pmis(cfg):
        # the second subband reads its own i2
        pmi = Type1Pmi(pmi.i11, pmi.i12, (0, pmi.i2[1]), pmi.i13)
        w = build_precoder(cfg, pmi, 1)
        expected = oracle_codeword(cfg, pmi, 1)
        assert np.array_equal(w, expected)
        assert w.tobytes() == expected.tobytes()   # signed zeros too
        assert w.shape == (cfg.geom.n_ports, rank)


def _search_case(n1, n2, mode, rank, seed=3):
    rng = np.random.default_rng(seed)
    g = ArrayGeometry.from_antennas(n1, n2)
    cfg = Type1Config(g, mode=mode, rank=rank, subband_count=2)
    shape = (4, 2, g.n_ports)
    h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return rng, cfg, h


@pytest.mark.parametrize("n1,n2,mode", SEARCH_CASES)
@RANKS
def test_search_matches_brute_force(n1, n2, mode, rank):
    rng, cfg, h = _search_case(n1, n2, mode, rank)
    assert search_type1(h, cfg, noise_power=0.5) == brute_force_argmax(h, cfg, 0.5)

    # restrict about half the beams: whole groups lose every i2, in every
    # subband, while others keep some
    g = cfg.geom
    bits = (rng.random(g.beams_h * g.beams_v) < 0.5).astype(int)
    book = _codebook(g, cfg.mode, cfg.rank)
    per_group = bits[book.beam_bits].all(axis=2).sum(axis=1)
    assert (per_group == 0).any() and (per_group > 0).any()
    expected = brute_force_argmax(h, cfg, 0.5, bits)
    assert search_type1(h, cfg, restriction=bits, noise_power=0.5) == expected

    blocked = np.zeros_like(bits)
    assert brute_force_argmax(h, cfg, 0.5, blocked) is None
    with pytest.raises(RestrictionError):
        search_type1(h, cfg, restriction=blocked)


@pytest.mark.parametrize("n1,n2,mode", SEARCH_CASES)
@RANKS
def test_batched_scores_match_subband_rate(n1, n2, mode, rank):
    _, cfg, h = _search_case(n1, n2, mode, rank, seed=11)
    book = _codebook(cfg.geom, cfg.mode, cfg.rank)
    w = book.precoders.reshape(-1, *book.precoders.shape[2:])
    for h_sub in (h[:2], h[2:]):
        rates = _codeword_rates(h_sub, w, 0.5)
        for c in range(w.shape[0]):
            assert rates[c] == _subband_rate(h_sub, w[c], 0.5)
    # the stack holds build_precoder's codewords in scan order
    for (i11, i12, i13), stack in zip(book.groups, book.precoders):
        for i2, w_c in enumerate(stack):
            pmi = Type1Pmi(i11, i12, (i2,) * cfg.subband_count, i13)
            assert np.array_equal(w_c, build_precoder(cfg, pmi))
    assert not book.precoders.flags.writeable


@pytest.mark.xfail(strict=True, reason="the search score adds I_Nr, not I_rank, "
                   "to the rank x rank Gram matrix")
@pytest.mark.parametrize("rank,nr", [(1, 2), (2, 1), (2, 4)])
def test_search_score_is_the_rate(rank, nr):
    rng = np.random.default_rng(5)
    cfg = Type1Config(ArrayGeometry(4, 1, 4, 1), rank=rank)
    h = rng.standard_normal((3, nr, 8)) + 1j * rng.standard_normal((3, nr, 8))
    w = build_precoder(cfg, Type1Pmi(5, 0, (1,), 1 if rank == 2 else None))
    expected = 0.0
    for hk in h:
        g = hk @ w
        expected += np.log2(np.linalg.det(np.eye(rank) + g.conj().T @ g / 0.5).real)
    assert _subband_rate(h, w, 0.5) == pytest.approx(expected, rel=1e-12)
    assert _codeword_rates(h, w[None], 0.5)[0] == pytest.approx(expected, rel=1e-12)


def test_search_plant_and_recover():
    g = ArrayGeometry(4, 1, 4, 1)
    cfg = Type1Config(g, rank=1)
    l_true, n_true = 9, 2
    v = dft_beam(g, l_true, 0)
    phi = np.exp(1j * np.pi * n_true / 2)
    h = np.concatenate([v, phi * v]).conj()[None, None, :]
    pmi = search_type1(h, cfg)
    assert (pmi.i11, pmi.i12) == (l_true, 0)
    assert pmi.i2 == (n_true,)
    # masking the planted beam forces another choice
    bits = np.ones(g.beams_h * g.beams_v, dtype=int)
    bits[g.beams_v * l_true] = 0
    pmi2 = search_type1(h, cfg, restriction=bits)
    assert pmi2.i11 != l_true


def test_search_near_tie_keeps_scan_order():
    # two orthogonal beams planted with equal gain score within rounding of
    # each other; the later one must beat the earlier by more than 1e-12
    g = ArrayGeometry(8, 1, 4, 1)
    cfg = Type1Config(g, rank=1)
    v, vp = dft_beam(g, 6, 0), dft_beam(g, 30, 0)
    h = (np.concatenate([v, v]) + np.concatenate([vp, vp])).conj()[None, None, :]
    rates = [_subband_rate(h, build_precoder(cfg, Type1Pmi(l, 0, (0,))), 1.0)
             for l in (6, 30)]
    assert abs(rates[1] - rates[0]) < 1e-12
    assert search_type1(h, cfg) == Type1Pmi(6, 0, (0,))


def test_search_rejects_zero_channel():
    cfg = Type1Config(ArrayGeometry(2, 1, 4, 1))
    with pytest.raises(DomainError):
        search_type1(np.zeros((1, 1, 4), dtype=complex), cfg)


def test_search_rank_restricted():
    cfg = Type1Config(ArrayGeometry(2, 1, 4, 1), rank=2)
    h = np.ones((1, 2, 4), dtype=complex)
    with pytest.raises(RestrictionError):
        search_type1(h, cfg, rank_restriction=[1, 0, 1, 1, 1, 1, 1, 1])


@pytest.mark.parametrize("subband", [2, -1])
def test_subband_outside_the_report_is_rejected(subband):
    cfg = Type1Config(ArrayGeometry(4, 2, 4, 4), rank=2, subband_count=2)
    pmi = random_valid_pmi(cfg, np.random.default_rng(0))
    with pytest.raises(DomainError, match=f"subband {subband} outside"):
        build_precoder(cfg, pmi, subband)



@pytest.mark.parametrize("noise_power", [0, -1, 0.0, np.nan, np.inf, "1"])
def test_search_rejects_noise_power_outside_zero_inf(noise_power):
    cfg = Type1Config(ArrayGeometry(2, 1, 4, 1))
    h = np.ones((1, 2, 4), dtype=complex)
    with pytest.raises(DomainError, match="noise_power"):
        search_type1(h, cfg, noise_power=noise_power)


@pytest.mark.parametrize("kw, match", [
    ({"mode": 3}, "codebook mode 3"),
    ({"mode": 2, "geom": ArrayGeometry(4, 1, 4, 1)}, "mode 2 requires N2"),
    ({"rank": 3}, "rank 3"),
    ({"subband_count": 0}, "subband_count"),
])
def test_config_rejections_name_the_field(kw, match):
    with pytest.raises(DomainError, match=match):
        Type1Config(**{"geom": ArrayGeometry(2, 2, 4, 4), **kw})
