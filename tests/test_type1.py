import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrpmi.bases import ArrayGeometry, dft_beam
from nrpmi.channel_sim import _first_best
from nrpmi.errors import DomainError, RestrictionError
from nrpmi.type1 import (
    _codebook,
    _codeword_rates,
    _offset_table,
    _restriction_bits,
    _screen_bound,
    _screen_rates,
    _subband_rate,
    Type1Config,
    Type1Pmi,
    build_precoder,
    check_beam_restriction,
    check_rank_restriction,
    i13_range,
    random_valid_pmi,
    search_type1,
)


def all_pmis(config):
    i13s = range(i13_range(config.geom)) if config.rank == 2 else (None,)
    for i11, i12, i13 in itertools.product(
            range(config.i11_range), range(config.i12_range), i13s):
        for i2 in range(config.i2_range):
            yield Type1Pmi(i11, i12, (i2,) * config.subband_count, i13)


def test_offset_table_regimes():
    g42 = ArrayGeometry(4, 2, 4, 4)   # N1 > N2 > 1
    assert _offset_table(g42)[1] == (4, 0)
    assert _offset_table(g42)[3] == (8, 0)
    g22 = ArrayGeometry(2, 2, 4, 4)   # N1 = N2
    assert _offset_table(g22)[2] == (0, 4)
    assert _offset_table(g22)[3] == (4, 4)
    g41 = ArrayGeometry(4, 1, 4, 1)   # N1 > 2, N2 = 1
    assert _offset_table(g41)[2] == (8, 0)
    assert _offset_table(g41)[3] == (12, 0)
    g21 = ArrayGeometry(2, 1, 4, 1)   # reduced regime: two offsets only
    assert i13_range(g21) == 2
    assert _offset_table(g21)[1] == (4, 0)
    with pytest.raises(DomainError):
        Type1Pmi(0, 0, (0,), 2).validate(Type1Config(g21, rank=2))


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
    k1, k2 = _offset_table(g)[pmi.i13]
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


GEOMETRY_MODES = [(n1, n2, mode) for n1, n2 in sorted(
    {case.values[:2] for case in SEARCH_CASES}) for mode in (1, 2)
    if mode == 1 or n2 > 1]   # mode 2 requires N2 > 1


@pytest.mark.parametrize("n1,n2,mode", GEOMETRY_MODES)
def test_rank2_cophase_pairs_tie_at_i13_zero(n1, n2, mode):
    # at i13 = 0 both layers take the same beam v, so i2 = 2j and 2j + 1
    # are B U and B U' with B = blockdiag(v, v) and U, U' unitary: their
    # scores are equal and only rounding tells them apart.  A search that
    # reorders its products must break this tie by an explicit rule.
    h = _search_case(n1, n2, mode, 2, seed=5)[2]
    cfg = Type1Config(ArrayGeometry.from_antennas(n1, n2), mode=mode, rank=2)
    assert cfg.i2_range % 2 == 0
    for i11, i12 in itertools.product(range(cfg.i11_range),
                                      range(cfg.i12_range)):
        w = np.stack([build_precoder(cfg, Type1Pmi(i11, i12, (i2,), 0))
                      for i2 in range(cfg.i2_range)])
        for h_sub in (h[:2], h[2:]):
            rates = _codeword_rates(h_sub, w, 0.5)
            np.testing.assert_allclose(rates[0::2], rates[1::2], rtol=1e-12,
                                       atol=0)


def full_scan_oracle(channel, config, restriction=None, noise_power=1.0):
    """The search without a screen: every codeword of every subband scored
    by ``_codeword_rates``, each group's first best admissible i2 per
    subband, and ``_first_best`` over every group in scan order.
    RestrictionError when every group is restricted."""
    book = _codebook(config.geom, config.mode, config.rank)
    n_groups, n_i2 = book.beam_bits.shape[:2]
    allowed = np.ones((n_groups, n_i2), dtype=bool)
    if restriction is not None:
        allowed = _restriction_bits(restriction, config.geom)[
            book.beam_bits].all(axis=2)
    edges = np.linspace(0, channel.shape[0], config.subband_count + 1).astype(int)
    w = book.precoders.reshape(n_groups * n_i2, *book.precoders.shape[2:])
    total = np.zeros(n_groups)
    picks = []
    for sb in range(config.subband_count):
        rates = _codeword_rates(channel[edges[sb]:edges[sb + 1]], w, noise_power)
        rates = np.where(allowed, rates.reshape(n_groups, n_i2), -np.inf)
        pick = rates.argmax(axis=1)
        total += rates[np.arange(n_groups), pick]
        picks.append(pick)
    best = _first_best(range(n_groups), total.tolist().__getitem__)
    if best is None:
        raise RestrictionError("no admissible PMI under the given restriction")
    i11, i12, i13 = book.groups[best]
    return Type1Pmi(i11, i12, tuple(int(p[best]) for p in picks), i13)


def assert_search_matches_full_scan(h, cfg, restriction, noise_power):
    try:
        expected = full_scan_oracle(h, cfg, restriction, noise_power)
    except RestrictionError:
        with pytest.raises(RestrictionError):
            search_type1(h, cfg, restriction=restriction,
                         noise_power=noise_power)
        return
    assert search_type1(h, cfg, restriction=restriction,
                        noise_power=noise_power) == expected


def sweep_channels(rng, cfg, nr, m=4):
    """Channels of M subcarriers, each scaled by 10^-3 to 10^3 and given
    noise powers that put ||H_m||_F^2 / sigma at 1e-6 to 1e12:

    - random;
    - single-path (rank 1);
    - one polarization only: every i2 of a group ties, and on a 2x2 array
      every rank-2 group with i13 > 0 ties with its twin, which holds the
      same two beams in the other order (l + 2 O1 = l mod N1 O1);
    - one beam on both polarizations: the (v, v, i13 = 0) group leads and
      its co-phase pairs tie;
    - two neighbouring beams, the second stronger by a relative 1e-10 to
      1e-6: their groups lead, apart by less than the rounding error of
      ``_codeword_rates`` at high ||H_m||_F^2 / sigma, so the exact scorer
      may rank the weaker one first (a band without Delta drops it).

    Exact ties leave the pick to rounding in ``_codeword_rates`` and to
    scan order, never to the screen.
    """
    geom, p = cfg.geom, cfg.geom.n_ports

    def cn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    half = np.zeros((m, nr, p // 2))
    l, k = rng.integers(geom.beams_h), rng.integers(geom.beams_v)
    v = dft_beam(geom, l, k).conj()
    beam = np.zeros((nr, p), dtype=complex)
    beam[0::2, :p // 2] = v
    beam[1::2, p // 2:] = v
    pair = v + (1 + 10.0 ** rng.uniform(-10, -6)) * dft_beam(
        geom, (l + 1) % geom.beams_h, k).conj()
    for h in (cn(m, nr, p), cn(m, nr, 1) * cn(p),
              np.concatenate([cn(m, nr, p // 2), half], axis=-1),
              cn(m, nr, 1) * beam,
              cn(m, nr, 1) * np.concatenate([pair, pair])):
        h = h * 10.0 ** rng.integers(-3, 4)
        energy = np.vdot(h, h).real / m
        for ratio in 10.0 ** np.arange(-6, 13, 3):
            yield h, energy / ratio


@pytest.mark.parametrize("n1,n2,mode", GEOMETRY_MODES)
@RANKS
def test_screened_search_matches_the_full_scan(n1, n2, mode, rank):
    cfg = Type1Config(ArrayGeometry.from_antennas(n1, n2), mode=mode,
                      rank=rank, subband_count=2)
    rng = np.random.default_rng(17 * n1 + 5 * n2 + 3 * mode + rank)
    n_bits = cfg.geom.beams_h * cfg.geom.beams_v
    for nr in ((1, 2, 4) if rank == 1 else (2,)):
        for h, noise_power in sweep_channels(rng, cfg, nr):
            assert_search_matches_full_scan(h, cfg, None, noise_power)
            bits = (rng.random(n_bits) < rng.choice([0.1, 0.5, 0.9])).astype(int)
            assert_search_matches_full_scan(h, cfg, bits, noise_power)


def group_totals(rates):
    """Each group's total from per-subband codeword rates (S, G, i2)."""
    return rates.max(axis=2).sum(axis=0)


@pytest.mark.parametrize("n1,n2,mode", GEOMETRY_MODES)
@RANKS
def test_screen_stays_within_its_bound(n1, n2, mode, rank):
    # the search keeps every group within 2 Delta + G * 1e-12 of the best
    # screened total, so it needs |screened - exact| <= Delta for every
    # group (measured errors stay below about 2e-3 Delta)
    cfg = Type1Config(ArrayGeometry.from_antennas(n1, n2), mode=mode,
                      rank=rank, subband_count=2)
    book = _codebook(cfg.geom, mode, rank)
    shape = book.beam_bits.shape[:2]
    w = book.precoders.reshape(-1, *book.precoders.shape[2:])
    rng = np.random.default_rng(29 * n1 + 7 * n2 + mode + rank)
    for nr in ((1, 2, 4) if rank == 1 else (2,)):
        for h, noise_power in sweep_channels(rng, cfg, nr):
            exact = group_totals(np.stack(
                [_codeword_rates(h[k:k + 2], w, noise_power).reshape(shape)
                 for k in (0, 2)]))
            # the screen's codewords run i2-major
            screened = group_totals(np.add.reduceat(
                _screen_rates(h, book.columns, rank, noise_power), [0, 2],
                axis=0).reshape(2, *shape[::-1]).swapaxes(1, 2))
            assert np.abs(screened - exact).max() <= _screen_bound(h, noise_power)


@pytest.mark.parametrize("mode", [1, 2])
def test_search_keeps_the_first_of_two_swapped_beam_groups(mode):
    # a channel on one polarization makes each 2x2 rank-2 group with
    # i13 > 0 tie with its twin (``sweep_channels``): their exact totals
    # differ by rounding alone, so the earlier group must win, even where
    # the screen rates the later one higher
    cfg = Type1Config(ArrayGeometry(2, 2, 4, 4), mode=mode, rank=2,
                      subband_count=2)
    rng = np.random.default_rng(mode)
    for _ in range(24):
        a = rng.standard_normal((4, 2, 4)) + 1j * rng.standard_normal((4, 2, 4))
        h = np.concatenate([a, np.zeros_like(a)], axis=-1)
        assert_search_matches_full_scan(h, cfg, None, 0.1)


@RANKS
def test_screen_overflow_keeps_every_group(rank):
    # at ||H||^2 / sigma ~ 1e290 the rank-2 screen's |det g|^2 overflows to
    # inf (no warning); an inf screened total keeps every group, and the
    # exact scores, which take logs, still pick
    cfg = Type1Config(ArrayGeometry(2, 2, 4, 4), rank=rank, subband_count=2)
    rng = np.random.default_rng(rank)
    h = 1e140 * (rng.standard_normal((4, 2, 8)) + 1j * rng.standard_normal((4, 2, 8)))
    assert_search_matches_full_scan(h, cfg, None, 1e-10)


@pytest.mark.parametrize("nr", [3, 4])
def test_rank2_search_names_rank_and_nr(nr):
    # the rank x rank score matrix met I_Nr as a bare numpy ValueError
    cfg = Type1Config(ArrayGeometry(2, 2, 4, 4), rank=2, subband_count=2)
    h = np.random.default_rng(nr).standard_normal((4, nr, cfg.geom.n_ports))
    with pytest.raises(DomainError, match=f"rank 2 .* Nr = {nr}"):
        search_type1(h, cfg)


@pytest.mark.parametrize("n1,n2,mode", SEARCH_CASES)
@RANKS
def test_codeword_rates_of_a_subset_are_bit_equal(n1, n2, mode, rank):
    # the search scores only its contenders; each must get the bits the
    # full stack gives it
    _, cfg, h = _search_case(n1, n2, mode, rank, seed=13)
    book = _codebook(cfg.geom, cfg.mode, cfg.rank)
    w = book.precoders.reshape(-1, *book.precoders.shape[2:])
    rng = np.random.default_rng(n1 + n2 + mode + rank)
    for h_sub in (h[:2], h[2:], h[:1]):
        full = _codeword_rates(h_sub, w, 0.5)
        start = int(rng.integers(len(w) - 8))
        for idx in ([int(rng.integers(len(w)))], [len(w) - 1],
                    np.arange(start, start + 8),
                    np.sort(rng.choice(len(w), 9, replace=False)),
                    rng.choice(len(w), 9, replace=False)):
            assert full[idx].tobytes() == _codeword_rates(h_sub, w[idx], 0.5).tobytes()


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(data=st.data())
def test_dropping_values_far_below_the_best_keeps_the_first_best(data):
    # values below max - (n - 1) * 1e-12 cannot change _first_best's pick,
    # through any chain of 1e-12 margins: dropping any of them keeps it
    steps = data.draw(st.lists(st.integers(0, 48), min_size=1, max_size=8))
    values = [k * 0.25e-12 for k in steps]
    floor = max(values) - (len(values) - 1) * 1e-12
    far = [i for i, v in enumerate(values) if v < floor]
    dropped = set(data.draw(st.lists(st.sampled_from(far), unique=True))
                  if far else [])
    kept = [i for i in range(len(values)) if i not in dropped]
    pick = _first_best(kept, values.__getitem__)
    assert pick == _first_best(range(len(values)), values.__getitem__)


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


@pytest.mark.parametrize("subband", [0.5, True, np.float64(1.0)])
def test_subband_that_is_no_integer_is_rejected(subband):
    # 0.5 raised a bare TypeError and True was read as subband 1
    cfg = Type1Config(ArrayGeometry(4, 2, 4, 4), subband_count=2)
    pmi = random_valid_pmi(cfg, np.random.default_rng(0))
    with pytest.raises(DomainError, match=r"subband .* outside \[0, 2\)"):
        build_precoder(cfg, pmi, subband)


def test_rank_restriction_reads_a_bit_string():
    # "0" was read as a set bit: every rank of "00000000" was allowed
    assert not check_rank_restriction("00000000", 1)
    assert check_rank_restriction("01000000", 2)
    assert not check_rank_restriction("01000000", 1)
    with pytest.raises(DomainError, match="rank restriction"):
        check_rank_restriction("0000000", 1)
    with pytest.raises(DomainError, match="rank restriction"):
        check_rank_restriction([2, 1, 1, 1, 1, 1, 1, 1], 1)
    # a rank that is no integer indexed the bits with a bare error
    for rank in (1.5, 2.0, True):
        with pytest.raises(DomainError, match=f"rank {rank} outside"):
            check_rank_restriction("11111111", rank)


def test_beam_restriction_reads_a_bit_string():
    cfg = Type1Config(ArrayGeometry(2, 1, 4, 1))
    h = np.ones((1, 2, 4), dtype=complex)
    # a string of 0/1 characters is a bit string
    assert check_beam_restriction("01111111", cfg.geom, 1, 0)
    assert not check_beam_restriction("01111111", cfg.geom, 0, 0)
    with pytest.raises(RestrictionError):
        search_type1(h, cfg, restriction="00000000")
    with pytest.raises(RestrictionError):
        build_precoder(cfg, Type1Pmi(0, 0, (0,)), restriction="01111111")
    # an array of "0" strings was read as all bits set
    with pytest.raises(DomainError, match="beam restriction"):
        search_type1(h, cfg, restriction=np.array(["0"] * 8))


@pytest.mark.parametrize("l, m, name", [(8, 0, "l"), (-8, 0, "l"),
                                        (-1, 0, "l"), (0, 5, "m"),
                                        (0, 1, "m"), (0, -1, "m")])
def test_beam_restriction_names_a_beam_outside_the_grid(l, m, name):
    # a 2x1 array has an 8 x 1 beam grid; (8, 0), (-8, 0) and (0, 5) used
    # to wrap onto beam (0, 0) and read its bit
    geom = ArrayGeometry(2, 1, 4, 1)
    value = m if name == "m" else l
    with pytest.raises(DomainError, match=rf"^{name} {value} outside"):
        check_beam_restriction("01111111", geom, l, m)


def test_beam_restriction_rejects_a_2d_array():
    # search_type1 flattened it; check_beam_restriction raised IndexError
    cfg = Type1Config(ArrayGeometry(2, 1, 4, 1))
    bits = np.ones((2, 4), dtype=int)
    with pytest.raises(DomainError, match="beam restriction"):
        check_beam_restriction(bits, cfg.geom, 1, 0)
    with pytest.raises(DomainError, match="beam restriction"):
        search_type1(np.ones((1, 2, 4), dtype=complex), cfg, restriction=bits)



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


@pytest.mark.parametrize("pmi, match", [
    (Type1Pmi(16, 0, (0, 0)), r"i_1,1=16 outside \[0, 16\)"),
    (Type1Pmi(0, 8, (0, 0)), r"i_1,2=8 outside \[0, 8\)"),
    (Type1Pmi(0, 0, (0,)), "one i_2 value per subband required"),
    (Type1Pmi(0, 0, (0, 4)), r"i_2=4 outside \[0, 4\)"),
    (Type1Pmi(0, 0, (0, 0), 0), "i_1,3 present in a rank-1 report"),
], ids=["i11", "i12", "i2-count", "i2", "i13-rank1"])
def test_validate_names_the_bad_field(pmi, match):
    cfg = Type1Config(ArrayGeometry(4, 2, 4, 4), subband_count=2)
    with pytest.raises(DomainError, match=f"^{match}$"):
        pmi.validate(cfg)
