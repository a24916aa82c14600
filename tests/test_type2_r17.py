import itertools

import numpy as np
import pytest

from nrpmi.bases import ArrayGeometry, orthogonal_group
from nrpmi.combinadics import binomial
from nrpmi.enhanced import encode_strongest, strongest
from nrpmi.errors import BudgetError, DomainError, FormatError
from nrpmi.type2_r16 import R16Config, R16Pmi
from nrpmi.type2_r16 import reconstruct_all as r16_reconstruct_all
from nrpmi.type2_r17 import (
    PARAM_COMBINATIONS,
    R17Config,
    R17Pmi,
    decode_ports,
    decode_tap_offset,
    encode_ports,
    random_valid_pmi,
    reconstruct,
    reconstruct_all,
    validate_budget,
)


def make_config(**kw):
    base = dict(p_csirs=8, param_combination=7, n3=8, n_threshold=2, rank=1)
    base.update(kw)
    return R17Config(**base)


def test_param_table():
    assert PARAM_COMBINATIONS[1] == (1, 3 / 4, 1 / 2)
    assert PARAM_COMBINATIONS[5] == (2, 1 / 2, 1 / 2)
    cfg = make_config(p_csirs=32, param_combination=5)
    assert cfg.k1_beams == 16 and cfg.k0 == 16


def test_k1_must_be_even_integer():
    with pytest.raises(DomainError):
        make_config(p_csirs=4, param_combination=1)  # K1 = 3
    cfg = make_config(p_csirs=8, param_combination=1)  # K1 = 6
    assert cfg.l == 3


def test_decode_ports_alpha1():
    cfg = make_config(p_csirs=8, param_combination=7)  # alpha = 1
    pmi = random_valid_pmi(cfg, np.random.default_rng(0))
    assert pmi.i12 is None
    assert decode_ports(cfg, pmi) == (0, 1, 2, 3)
    assert encode_ports(cfg, (0, 1, 2, 3)) is None


def test_decode_ports_free_selection():
    cfg = make_config(p_csirs=8, param_combination=1)  # L = 3 of 4
    base = random_valid_pmi(cfg, np.random.default_rng(1))

    def with_i12(i12):
        return R17Pmi(i12, base.i16, base.i18, base.bitmap, base.k1,
                      base.k2, base.c)

    assert decode_ports(cfg, with_i12(0)) == (1, 2, 3)
    assert decode_ports(cfg, with_i12(binomial(4, 3) - 1)) == (0, 1, 2)


@pytest.mark.parametrize("p,combo", [(8, 1), (8, 5), (16, 6), (32, 5), (12, 5)])
def test_port_roundtrip_bijective(p, combo):
    cfg = make_config(p_csirs=p, param_combination=combo)
    if cfg.alpha == 1.0:
        pytest.skip("no i_1,2 when alpha = 1")
    half = p // 2
    seen = set()
    for ports in itertools.combinations(range(half), cfg.l):
        i12 = encode_ports(cfg, ports)
        assert 0 <= i12 < binomial(half, cfg.l)
        assert i12 not in seen
        seen.add(i12)
        pmi = R17Pmi(i12, None if cfg.m == 1 else None, (0,),
                     np.zeros((1, cfg.k1_beams, cfg.m)), None, None, None)
        assert decode_ports(cfg, pmi) == ports
    assert len(seen) == binomial(half, cfg.l)


def test_tap_offsets():
    cfg1 = make_config(param_combination=1)  # M = 1
    pmi = random_valid_pmi(cfg1, np.random.default_rng(2))
    assert decode_tap_offset(cfg1, pmi) == (0,)
    cfg2 = make_config(param_combination=7, n_threshold=2)  # M = 2, N = 2
    pmi2 = random_valid_pmi(cfg2, np.random.default_rng(3))
    assert pmi2.i16 is None
    assert decode_tap_offset(cfg2, pmi2) == (0, 1)
    cfg4 = make_config(param_combination=7, n_threshold=4)
    pmi4 = random_valid_pmi(cfg4, np.random.default_rng(4))
    base = R17Pmi(pmi4.i12, 2, pmi4.i18, pmi4.bitmap, pmi4.k1, pmi4.k2, pmi4.c)
    assert decode_tap_offset(cfg4, base) == (0, 3)
    with pytest.raises(FormatError):
        decode_tap_offset(cfg4, R17Pmi(pmi4.i12, 3, pmi4.i18, pmi4.bitmap,
                                       pmi4.k1, pmi4.k2, pmi4.c))


def test_single_coefficient_single_port():
    cfg = make_config(p_csirs=8, param_combination=2)  # alpha=1, M=1, L=4
    k1b = cfg.k1_beams
    bitmap = np.zeros((1, k1b, 1), dtype=np.int8)
    k2 = np.zeros((1, k1b, 1), dtype=int)
    c = np.zeros((1, k1b, 1), dtype=int)
    bitmap[0, 2, 0] = 1
    k2[0, 2, 0] = 7
    k1 = np.array([[15, 1]])
    pmi = R17Pmi(None, None, (2,), bitmap, k1, k2, c)
    w = reconstruct(cfg, pmi, 0)
    expected = np.zeros(8)
    expected[2] = 1.0
    np.testing.assert_allclose(np.abs(w[:, 0]), expected, atol=1e-12)


def test_m1_frequency_flat():
    cfg = make_config(param_combination=3)  # M = 1
    pmi = random_valid_pmi(cfg, np.random.default_rng(5))
    ws = reconstruct_all(cfg, pmi)
    for t in range(1, cfg.n3):
        np.testing.assert_allclose(ws[t], ws[0], atol=1e-12)


def test_strongest_indicator():
    cfg = make_config(param_combination=7)
    pmi = random_valid_pmi(cfg, np.random.default_rng(6))
    i_star, f_star = strongest(cfg, pmi)[0]
    assert pmi.i18[0] == cfg.k1_beams * f_star + i_star
    assert pmi.bitmap[0, i_star, f_star] == 1
    assert pmi.k2[0, i_star, f_star] == 7


@pytest.mark.parametrize("rank", [1, 2, 4])
def test_layer_norms_random(rank):
    cfg = make_config(p_csirs=16, param_combination=6, rank=rank)
    rng = np.random.default_rng(7)
    for _ in range(25):
        pmi = random_valid_pmi(cfg, rng)
        ws = reconstruct_all(cfg, pmi)
        norms = np.linalg.norm(ws, axis=1) * np.sqrt(rank)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)


def test_budget_violation():
    cfg = make_config(p_csirs=8, param_combination=5)  # K1=4, M=2, K0=4
    assert cfg.k0 == 4
    pmi = random_valid_pmi(cfg, np.random.default_rng(8))
    bitmap = np.ones((1, cfg.k1_beams, cfg.m), dtype=np.int8)  # 8 > K0
    k2 = np.where(bitmap > 0, np.maximum(pmi.k2, 1), 0)
    with pytest.raises(BudgetError):
        validate_budget(cfg, R17Pmi(pmi.i12, pmi.i16, pmi.i18, bitmap,
                                    pmi.k1, k2, pmi.c))


def test_r16_subspace_equivalence():
    # with a DFT port-external beamformer, the R17 reconstruction spans the
    # same direction as an R16 regular reconstruction on the matched beams
    from nrpmi.combinadics import encode_combination
    from nrpmi.enhanced import encode_taps

    geom = ArrayGeometry(4, 2, 4, 4)
    p = geom.n_ports
    half = p // 2
    f = orthogonal_group(geom, 0, 0)
    # M=2 taps and L=4 beams on both sides: R17 combo 5 (alpha=1/2) against
    # R16 combo 6 with N3=4 (Mv = 2)
    cfg17 = make_config(p_csirs=p, param_combination=5, n3=4, n_threshold=4)
    cfg16 = R16Config(param_combination=6, r=1, n3=4, rank=1, geom=geom)
    assert cfg16.l == cfg17.l and cfg16.mv == cfg17.m

    rng = np.random.default_rng(9)
    for _ in range(10):
        ports = tuple(sorted(rng.choice(half, size=cfg17.l, replace=False).tolist()))
        i_star = int(rng.integers(cfg17.k1_beams))
        bitmap = rng.integers(0, 2, size=(1, cfg17.k1_beams, 2)).astype(np.int8)
        bitmap[0, i_star, 0] = 1
        k2 = np.where(bitmap > 0, rng.integers(0, 8, size=bitmap.shape), 0)
        c = np.where(bitmap > 0, rng.integers(0, 16, size=bitmap.shape), 0)
        k2[0, i_star, 0] = 7
        c[0, i_star, 0] = 0
        k1 = np.array([[1, 1]])
        k1[0, i_star // cfg17.l] = 15
        k1[0, 1 - i_star // cfg17.l] = int(rng.integers(1, 16))
        if int(bitmap.sum()) > cfg17.k0:
            continue
        pmi17 = R17Pmi(encode_ports(cfg17, ports), 0, (i_star,),
                       bitmap, k1, k2, c)
        i12 = encode_combination(ports, geom.n1 * geom.n2, cfg16.l)
        i16, _ = encode_taps(cfg16, decode_tap_offset(cfg17, pmi17))
        pmi16 = R16Pmi((0, 0), i12, None, (i16,),
                       (encode_strongest(cfg16, bitmap[0], i_star),),
                       bitmap, k1, k2, c)
        w17 = reconstruct_all(cfg17, pmi17)
        w16 = r16_reconstruct_all(cfg16, pmi16)
        for t in range(cfg17.n3):
            a = np.concatenate([f @ w17[t, :half, 0], f @ w17[t, half:, 0]])
            a = a / np.linalg.norm(a)
            assert abs(abs(np.vdot(a, w16[t, :, 0])) - 1) < 1e-9


@pytest.mark.parametrize("kw, match", [
    ({"p_csirs": 6}, "nrofPorts 6"),
    ({"param_combination": 9}, r"paraCombination-r17 9 outside \[1, 8\]"),
    ({"n_threshold": 3}, "N=3"),
    ({"n3": 2}, "N3=2"),
    ({"rank": 5}, "rank 5"),
    ({"p_csirs": 12, "param_combination": 6}, r"K1 = alpha \* P = 9.0"),
])
def test_config_rejections_name_the_field(kw, match):
    with pytest.raises(DomainError, match=match):
        make_config(**kw)
