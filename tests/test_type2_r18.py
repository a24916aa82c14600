import dataclasses

import numpy as np
import pytest

from nrpmi.bases import ArrayGeometry
from nrpmi.enhanced import encode_strongest, strongest
from nrpmi.errors import BudgetError, DomainError, FormatError
from nrpmi.type2_r16 import R16Config, R16Pmi
from nrpmi.type2_r16 import reconstruct_all as r16_reconstruct_all
from nrpmi.type2_r18 import (
    PARAM_COMBINATIONS,
    R18Config,
    R18Pmi,
    check_ri_restriction,
    decode_shifts,
    random_valid_pmi,
    reconstruct,
    reconstruct_all,
    validate_budget,
)

GEOM = ArrayGeometry(4, 2, 4, 4)


def make_config(**kw):
    base = dict(geom=GEOM, param_combination=2, r=1, n3=8, n4=4, rank=1)
    base.update(kw)
    return R18Config(**base)


def test_param_table():
    assert PARAM_COMBINATIONS[1] == (2, 1 / 8, 1 / 16, 1 / 4)
    assert PARAM_COMBINATIONS[7] == (4, 1 / 2, 1 / 4, 1 / 2)
    with pytest.raises(DomainError):
        make_config(param_combination=8, rank=3)


def test_k0_formula():
    # L=2, beta=1/2, M1=5, Q=2 -> K0 = 20
    cfg = make_config(param_combination=2, n3=18)
    assert cfg.m1 == 5 and cfg.k0 == 20


def test_decode_shifts():
    cfg = make_config(n4=4)
    pmi = random_valid_pmi(cfg, np.random.default_rng(0))
    base = R18Pmi(pmi.i11, pmi.i12, pmi.i15, pmi.i16, pmi.i18, (0,),
                  pmi.bitmap, pmi.k1, pmi.k2, pmi.c)
    assert decode_shifts(cfg, base)[0] == (0, 1)
    top = R18Pmi(pmi.i11, pmi.i12, pmi.i15, pmi.i16, pmi.i18, (cfg.n4 - 2,),
                 pmi.bitmap, pmi.k1, pmi.k2, pmi.c)
    assert decode_shifts(cfg, top)[0] == (0, cfg.n4 - 1)
    with pytest.raises(FormatError):
        decode_shifts(cfg, R18Pmi(pmi.i11, pmi.i12, pmi.i15, pmi.i16, pmi.i18,
                                  (cfg.n4 - 1,), pmi.bitmap, pmi.k1, pmi.k2,
                                  pmi.c))[0]
    cfg2 = make_config(n4=2)
    pmi2 = random_valid_pmi(cfg2, np.random.default_rng(1))
    assert decode_shifts(cfg2, pmi2)[0] in ((0, 1),)


def test_n4_1_rejects_i110():
    cfg = make_config(n4=1)
    pmi = random_valid_pmi(cfg, np.random.default_rng(2))
    assert pmi.i110 is None
    bad = R18Pmi(pmi.i11, pmi.i12, pmi.i15, pmi.i16, pmi.i18, (0,),
                 pmi.bitmap, pmi.k1, pmi.k2, pmi.c)
    with pytest.raises(FormatError):
        decode_shifts(cfg, bad)[0]


def test_missing_per_layer_fields_are_named_by_their_spec_names():
    cfg = make_config(n4=4)
    pmi = random_valid_pmi(cfg, np.random.default_rng(2))
    for field, name in (("i16", "i_1,6"), ("i18", "i_1,8"), ("i110", "i_1,10")):
        with pytest.raises(FormatError, match=name):
            reconstruct_all(cfg, dataclasses.replace(pmi, **{field: None}))


def test_ri_restriction():
    assert all(check_ri_restriction("1111", r) for r in range(1, 5))
    assert not check_ri_restriction("1110", 1)  # r0 = 0
    assert check_ri_restriction("0001", 1)
    assert not check_ri_restriction("0001", 2)
    with pytest.raises(DomainError):
        check_ri_restriction("111", 1)


@pytest.mark.parametrize("bits", ["0201", [0, 2, 0, 1], "01 1", [1, 1, 0.5, 1]])
def test_ri_restriction_names_an_entry_other_than_0_or_1(bits):
    # "2" was read as a set bit
    with pytest.raises(DomainError, match="RI restriction"):
        check_ri_restriction(bits, 3)


@pytest.mark.parametrize("rank", [1.5, 2.0, True])
def test_ri_restriction_names_a_rank_that_is_no_integer(rank):
    with pytest.raises(DomainError, match=f"rank {rank} outside"):
        check_ri_restriction("1111", rank)


def test_degenerates_to_r16_when_n4_1():
    # same coefficient grid -> exactly equal reconstructions
    cfg18 = make_config(param_combination=2, n3=8, n4=1, rank=2)
    cfg16 = R16Config(param_combination=2, r=1, n3=8, rank=2, geom=GEOM)
    assert cfg18.l == cfg16.l and cfg18.mv == cfg16.mv
    rng = np.random.default_rng(3)
    for _ in range(10):
        pmi18 = random_valid_pmi(cfg18, rng)
        # R18 budget with frozen Q=2 can exceed the R16 one; keep shared grids
        if any(pmi18.bitmap[layer].sum() > cfg16.k0 for layer in range(2)):
            continue
        pmi16 = R16Pmi(pmi18.i11, pmi18.i12, pmi18.i15, pmi18.i16, pmi18.i18,
                       pmi18.bitmap[:, :, :, 0], pmi18.k1,
                       pmi18.k2[:, :, :, 0], pmi18.c[:, :, :, 0])
        w18 = reconstruct_all(cfg18, pmi18)   # (N3, 1, P, rank)
        w16 = r16_reconstruct_all(cfg16, pmi16)
        np.testing.assert_allclose(w18[:, 0], w16, atol=1e-12)


def test_static_coefficients_constant_over_intervals():
    # all shift-1 coefficients zero -> precoders identical for every iota
    cfg = make_config(n4=4)
    rng = np.random.default_rng(4)
    pmi = random_valid_pmi(cfg, rng)
    bitmap = np.array(pmi.bitmap)
    k2 = np.array(pmi.k2)
    c = np.array(pmi.c)
    bitmap[:, :, :, 1] = 0
    k2[:, :, :, 1] = 0
    c[:, :, :, 1] = 0
    i_star, tau_star = strongest(cfg, pmi)[0]
    if tau_star == 1:
        bitmap[0, i_star, 0, 0] = 1
        k2[0, i_star, 0, 0] = 7
        c[0, i_star, 0, 0] = 0
    i18 = (encode_strongest(cfg, bitmap[0], i_star, 0),)
    pmi = R18Pmi(pmi.i11, pmi.i12, pmi.i15, pmi.i16, i18, pmi.i110,
                 bitmap, pmi.k1, k2, c)
    ws = reconstruct_all(cfg, pmi)
    for iota in range(1, cfg.n4):
        np.testing.assert_allclose(ws[:, iota], ws[:, 0], atol=1e-12)


@pytest.mark.parametrize("rank", [1, 2, 4])
@pytest.mark.parametrize("n4", [2, 4, 8])
def test_layer_norms_random(rank, n4):
    cfg = make_config(param_combination=4, n3=13, n4=n4, rank=rank)
    rng = np.random.default_rng(5)
    for _ in range(10):
        pmi = random_valid_pmi(cfg, rng)
        ws = reconstruct_all(cfg, pmi)
        norms = np.linalg.norm(ws, axis=2) * np.sqrt(rank)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)


def test_strongest_indicator_branches():
    cfg = make_config(rank=2, n4=4)
    pmi = random_valid_pmi(cfg, np.random.default_rng(6))
    for layer in range(2):
        i_star, tau_star = strongest(cfg, pmi)[layer]
        assert pmi.i18[layer] == 2 * cfg.l * tau_star + i_star
    # rank 1: prefix count across the concatenated (tau, beam) order at tap 0
    cfg1 = make_config(rank=1, n4=4)
    pmi1 = random_valid_pmi(cfg1, np.random.default_rng(7))
    i_star, tau_star = strongest(cfg1, pmi1)[0]
    concat = np.concatenate([pmi1.bitmap[0, :, 0, tau] for tau in range(2)])
    expected = int(concat[:2 * cfg1.l * tau_star + i_star + 1].sum()) - 1
    assert pmi1.i18[0] == expected


def test_budget_violation():
    cfg = make_config(param_combination=1, n3=8, n4=2)  # L=2, beta=1/4
    pmi = random_valid_pmi(cfg, np.random.default_rng(8))
    bitmap = np.ones_like(pmi.bitmap)
    k2 = np.where(bitmap > 0, np.maximum(pmi.k2, 1), 0)
    with pytest.raises(BudgetError):
        validate_budget(cfg, R18Pmi(pmi.i11, pmi.i12, pmi.i15, pmi.i16,
                                    pmi.i18, pmi.i110, bitmap, pmi.k1, k2,
                                    pmi.c))


def test_reconstruct_single_point():
    cfg = make_config(n4=4)
    pmi = random_valid_pmi(cfg, np.random.default_rng(9))
    ws = reconstruct_all(cfg, pmi)
    np.testing.assert_allclose(reconstruct(cfg, pmi, 3, 2), ws[3, 2], atol=0)
    with pytest.raises(DomainError):
        reconstruct(cfg, pmi, cfg.n3, 0)
    with pytest.raises(DomainError):
        reconstruct(cfg, pmi, 0, cfg.n4)


@pytest.mark.parametrize("kw, match", [
    ({"param_combination": 10},
     r"paramCombination-Doppler-r18 10 outside \[1, 9\]"),
    ({"r": 0}, "R=0"),
    ({"n3": 40}, "N3=40"),
    ({"rank": 0}, "rank 0"),
    ({"param_combination": 8, "rank": 4}, "forbids rank > 2"),
    ({"n4": 3}, "N4=3"),
])
def test_config_rejections_name_the_field(kw, match):
    with pytest.raises(DomainError, match=match):
        make_config(**kw)
