import itertools

import numpy as np
import pytest

from nrpmi.bases import ArrayGeometry
from nrpmi.combinadics import binomial
from nrpmi.enhanced import (
    compute_mv,
    decode_taps,
    encode_strongest,
    encode_taps,
    strongest,
    tap_choices,
)
from nrpmi.errors import BudgetError, ConsistencyError, DomainError, FormatError
from nrpmi.type2_r16 import (
    PARAM_COMBINATIONS,
    PORT_SELECTION,
    REGULAR,
    R16Config,
    R16Pmi,
    derive_n3,
    random_valid_pmi,
    reconstruct_all,
    validate_budget,
)

GEOM = ArrayGeometry(4, 2, 4, 4)


def make_config(**kw):
    base = dict(param_combination=2, r=1, n3=8, rank=1, geom=GEOM)
    base.update(kw)
    return R16Config(**base)


def minimal_pmi(config, i_star=0, taps=None):
    """Single nonzero coefficient at (i_star, tap 0)."""
    two_l, mv = 2 * config.l, config.mv
    bitmap = np.zeros((config.rank, two_l, mv), dtype=np.int8)
    k1 = np.ones((config.rank, 2), dtype=int)
    k2 = np.zeros((config.rank, two_l, mv), dtype=int)
    c = np.zeros((config.rank, two_l, mv), dtype=int)
    i18 = []
    for layer in range(config.rank):
        bitmap[layer, i_star, 0] = 1
        k2[layer, i_star, 0] = 7
        k1[layer, i_star // config.l] = 15
        i18.append(encode_strongest(config, bitmap[layer], i_star))
    i16 = (0,) * config.rank
    i15 = 0 if config.window_mode else None
    return R16Pmi(
        i11=(0, 0) if config.variant == REGULAR else 0,
        i12=0 if config.variant == REGULAR else None,
        i15=i15, i16=i16, i18=tuple(i18), bitmap=bitmap, k1=k1, k2=k2, c=c)


def test_param_combinations_table():
    assert PARAM_COMBINATIONS[5] == (4, 1 / 4, 1 / 4, 3 / 4)
    assert PARAM_COMBINATIONS[1][0] == 2
    assert PARAM_COMBINATIONS[7][2] is None
    with pytest.raises(DomainError):
        make_config(param_combination=7, rank=3)


def test_derive_n3():
    assert derive_n3(273, 16, 1) == 18
    assert derive_n3(273, 16, 2) == 36
    assert derive_n3(24, 4, 1) == 6
    with pytest.raises(DomainError):
        derive_n3(273, 8, 1)
    with pytest.raises(DomainError):
        derive_n3(20, 4, 1)


def test_compute_mv():
    assert compute_mv(1 / 4, 18, 1) == 5
    assert compute_mv(1 / 8, 18, 1) == 3
    assert compute_mv(1 / 4, 4, 2) == 1


def test_k0():
    cfg = make_config(param_combination=4, n3=18)  # L=4, beta=1/2, p=1/4 -> M1=5
    assert cfg.k0 == 20


def test_tap_decode_mv1():
    cfg = make_config(param_combination=1, n3=8)  # p=1/4, R=1 -> Mv=2
    assert cfg.mv == 2
    cfg1 = make_config(param_combination=1, n3=4)  # Mv=1
    assert cfg1.mv == 1
    pmi = minimal_pmi(cfg1)
    assert decode_taps(cfg1, pmi)[0] == (0,)


def brute_force_tap_sets(config):
    """All decodable tap sets, enumerated independently."""
    mv, n3 = config.mv, config.n3
    if mv == 1:
        return {(None, 0): (0,)}
    out = {}
    if not config.window_mode:
        for rest in itertools.combinations(range(1, n3), mv - 1):
            out[(None, rest)] = (0,) + rest
    else:
        for m_init in range(-2 * mv + 1, 1):
            for rest in itertools.combinations(range(1, 2 * mv), mv - 1):
                taps = tuple(n if n <= m_init + 2 * mv - 1 else n + n3 - 2 * mv
                             for n in rest)
                out[(m_init, rest)] = (0,) + taps
    return out


@pytest.mark.parametrize("n3,combo,r", [(6, 1, 1), (13, 2, 1), (18, 4, 1),
                                        (20, 2, 1), (20, 4, 1), (36, 2, 2)])
def test_tap_roundtrip_bijective(n3, combo, r):
    cfg = make_config(param_combination=combo, n3=n3, r=r)
    mv = cfg.mv
    if not cfg.window_mode:
        seen = set()
        for i16 in range(cfg.i16_count):
            pmi = minimal_pmi(cfg)
            pmi = R16Pmi(pmi.i11, pmi.i12, None, (i16,), pmi.i18,
                         pmi.bitmap, pmi.k1, pmi.k2, pmi.c)
            taps = decode_taps(cfg, pmi)[0]
            assert taps[0] == 0 and len(set(taps)) == mv
            assert encode_taps(cfg, taps)[0] == i16
            seen.add(taps)
        assert len(seen) == cfg.i16_count
    else:
        for i15 in range(2 * mv):
            m_init = 0 if i15 == 0 else i15 - 2 * mv
            seen = set()
            for i16 in range(cfg.i16_count):
                pmi = minimal_pmi(cfg)
                pmi = R16Pmi(pmi.i11, pmi.i12, i15, (i16,), pmi.i18,
                             pmi.bitmap, pmi.k1, pmi.k2, pmi.c)
                taps = decode_taps(cfg, pmi)[0]
                assert taps[0] == 0 and len(set(taps)) == mv
                got_i16, got_i15 = encode_taps(cfg, taps, m_init)
                assert (got_i16, got_i15) == (i16, i15)
                seen.add(taps)
            assert len(seen) == cfg.i16_count


def test_window_adjustment_example():
    # N3=36, Mv=5, i15=1 -> M_initial=-9; raw values above M_init+2Mv-1=0
    # wrap by N3-2Mv=26
    cfg = make_config(param_combination=4, n3=36)
    assert cfg.mv == 9  # ceil(36/4)
    cfg = make_config(param_combination=3, n3=36, r=2)  # p=1/4, R=2 -> Mv=5
    assert cfg.mv == 5
    pmi = minimal_pmi(cfg)
    pmi = R16Pmi(pmi.i11, pmi.i12, 1, (0,), pmi.i18,
                 pmi.bitmap, pmi.k1, pmi.k2, pmi.c)
    taps = decode_taps(cfg, pmi)[0]
    assert taps[0] == 0
    # M_initial = 1 - 10 = -9: every decoded raw tap 1..9 > 0 wraps up
    assert all(t == 0 or t >= 27 for t in taps)


def test_tap_choices_are_the_taps_i16_picks_from():
    # N3 <= 19: any nonzero tap; N3 = 36, Mv = 5: raw n = 1..9, those above
    # M_initial + 9 wrapped by N3 - 2Mv = 26
    assert tap_choices(make_config(n3=8)) == list(range(1, 8))
    cfg = make_config(param_combination=3, n3=36, r=2)
    assert tap_choices(cfg) == list(range(1, 10))
    assert tap_choices(cfg, -3) == [1, 2, 3, 4, 5, 6, 33, 34, 35]
    assert tap_choices(cfg, -9) == list(range(27, 36))


def test_encode_taps_rejects_a_tap_outside_the_window():
    # N3 = 24, Mv = 3, M_initial = 0: the window holds taps 1..5, so tap 19
    # has no i16 (it used to encode to taps (0, 1, 4))
    cfg = make_config(param_combination=1, n3=24, r=2)
    assert cfg.mv == 3 and tap_choices(cfg) == [1, 2, 3, 4, 5]
    with pytest.raises(DomainError, match="tap 19 outside"):
        encode_taps(cfg, (0, 4, 19))
    with pytest.raises(DomainError, match="tap 8 outside"):
        encode_taps(make_config(n3=8), (0, 8))
    # an unhashable entry is no tap either, not a TypeError
    with pytest.raises(DomainError, match=r"tap \[4\] outside"):
        encode_taps(cfg, (0, 1, [4]))


def test_single_coefficient_is_one_beam():
    cfg = make_config()
    pmi = minimal_pmi(cfg, i_star=0)
    w = reconstruct_all(cfg, pmi)[0]
    half = cfg.n_ports // 2
    assert np.linalg.norm(w[half:, 0]) < 1e-12
    assert abs(np.linalg.norm(w[:, 0]) - 1) < 1e-12


def test_mv1_precoders_flat():
    cfg = make_config(param_combination=1, n3=4)  # Mv = 1
    rng = np.random.default_rng(0)
    pmi = random_valid_pmi(cfg, rng)
    ws = reconstruct_all(cfg, pmi)
    for t in range(1, cfg.n3):
        np.testing.assert_allclose(ws[t], ws[0], atol=1e-12)


@pytest.mark.parametrize("variant,extra", [
    (REGULAR, {}),
    (PORT_SELECTION, {"geom": None, "p_csirs": 16, "d": 1}),
])
@pytest.mark.parametrize("rank", [1, 2, 4])
def test_layer_norms_random(variant, extra, rank):
    cfg = make_config(param_combination=4, n3=13, rank=rank, **extra)
    assert cfg.variant == variant
    rng = np.random.default_rng(9)
    for _ in range(25):
        pmi = random_valid_pmi(cfg, rng)
        ws = reconstruct_all(cfg, pmi)
        norms = np.linalg.norm(ws, axis=1) * np.sqrt(rank)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)


def test_strongest_indicator_branches():
    # rank 2: direct index
    cfg = make_config(rank=2)
    pmi = minimal_pmi(cfg, i_star=3)
    assert pmi.i18 == (3, 3)
    assert strongest(cfg, pmi)[0] == (3, 0)
    # rank 1: prefix count over the tap-0 bitmap column
    cfg1 = make_config(rank=1)
    pmi1 = minimal_pmi(cfg1, i_star=2)
    bitmap = np.array(pmi1.bitmap)
    bitmap[0, 0, 0] = 1  # extra reported coefficient below i*
    assert encode_strongest(cfg1, bitmap[0], 2) == 1
    pmi1 = R16Pmi(pmi1.i11, pmi1.i12, pmi1.i15, pmi1.i16, (1,),
                  bitmap, pmi1.k1,
                  _with(pmi1.k2, (0, 0, 0), 3), _with(pmi1.c, (0, 0, 0), 5))
    assert strongest(cfg1, pmi1)[0] == (2, 0)
    validate_budget(cfg1, pmi1)


def _with(arr, idx, value):
    out = np.array(arr)
    out[idx] = value
    return out


def test_budget_validation():
    cfg = make_config(param_combination=1, n3=8)  # L=2, beta=1/4, Mv=2 -> K0=2
    assert cfg.k0 == 2
    pmi = minimal_pmi(cfg)
    bitmap = np.array(pmi.bitmap)
    bitmap[0, :, :] = 1  # 8 nonzeros > K0
    k2 = np.where(bitmap > 0, np.maximum(pmi.k2, 1), 0)
    with pytest.raises(BudgetError):
        validate_budget(cfg, R16Pmi(pmi.i11, pmi.i12, pmi.i15, pmi.i16, pmi.i18,
                                    bitmap, pmi.k1, k2, pmi.c))


def test_bitmap_consistency():
    cfg = make_config()
    pmi = minimal_pmi(cfg)
    bad_k2 = _with(pmi.k2, (0, 1, 0), 5)  # nonzero value where bitmap is 0
    with pytest.raises(ConsistencyError):
        validate_budget(cfg, R16Pmi(pmi.i11, pmi.i12, pmi.i15, pmi.i16, pmi.i18,
                                    pmi.bitmap, pmi.k1, bad_k2, pmi.c))


def test_defaults_after_generation():
    cfg = make_config(param_combination=4, n3=18, rank=2)
    rng = np.random.default_rng(4)
    for _ in range(20):
        pmi = random_valid_pmi(cfg, rng)
        validate_budget(cfg, pmi)
        for layer in range(2):
            i_star, _ = strongest(cfg, pmi)[layer]
            assert pmi.k1[layer, i_star // cfg.l] == 15
            assert pmi.k2[layer, i_star, 0] == 7
            assert pmi.c[layer, i_star, 0] == 0
            assert pmi.bitmap[layer, i_star, 0] == 1


def test_i16_out_of_range():
    cfg = make_config(param_combination=1, n3=8)
    pmi = minimal_pmi(cfg)
    bad = R16Pmi(pmi.i11, pmi.i12, pmi.i15, (binomial(7, 1),), pmi.i18,
                 pmi.bitmap, pmi.k1, pmi.k2, pmi.c)
    with pytest.raises(FormatError):
        decode_taps(cfg, bad)[0]


@pytest.mark.parametrize("kw, match", [
    ({"param_combination": 9}, r"paramCombination-r16 9 outside \[1, 8\]"),
    ({"r": 3}, "R=3"),
    ({"n3": 2}, "N3=2"),
    ({"n3": 37}, "N3=37"),
    ({"rank": 5}, "rank 5"),
    ({"param_combination": 7, "rank": 3}, "paramCombination-r16 7 forbids "
                                          "rank > 2"),
    ({"geom": None}, "requires p_csirs"),
    ({"p_csirs": 16, "d": 1}, "geom given with p_csirs=16"),
    ({"d": 1}, "d=1 given without p_csirs"),
])
def test_config_rejections_name_the_field(kw, match):
    with pytest.raises(DomainError, match=match):
        make_config(**kw)


def test_p_v_rejects_a_rank_its_row_lacks():
    with pytest.raises(DomainError, match="rank > 2"):
        make_config(param_combination=7).p_v(3)


def test_derive_n3_rejects_r():
    with pytest.raises(DomainError, match="R=3"):
        derive_n3(273, 16, 3)
