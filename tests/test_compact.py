import numpy as np
import pytest

from nrpmi.bases import ArrayGeometry
from nrpmi.combinadics import decode_combination
from nrpmi.errors import DomainError
from nrpmi import enhanced, type2_r15, type2_r16, type2_r17, type2_r18
from nrpmi.compact import (
    compact_r15,
    compact_r16,
    compact_r18_tucker,
    embed_sparse,
    frequency_effective,
    frequency_full,
    spatial_effective_ps,
    spatial_effective_regular,
    spatial_full_ps,
    spatial_full_regular,
    temporal_effective,
    temporal_full,
    tucker_flatten_identity,
)

GEOM = ArrayGeometry(4, 2, 4, 4)


def random_core(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_r15_forms_agree():
    rng = np.random.default_rng(0)
    l = 3
    beams = [0, 2, 5]
    eff = spatial_effective_regular(GEOM, 1, 2, beams)
    full = spatial_full_regular(GEOM, 1, 2)
    half = GEOM.n1 * GEOM.n2
    for _ in range(50):
        w_c = random_core(rng, 2 * l)
        w_pmi = embed_sparse(w_c, beams, half)
        assert np.count_nonzero(w_pmi) == 2 * l  # sparsity 2L
        np.testing.assert_allclose(compact_r15(eff, w_c),
                                   compact_r15(full, w_pmi), atol=1e-12)


def test_embed_sparse_rejects_a_core_of_the_wrong_shape():
    half = GEOM.n1 * GEOM.n2
    with pytest.raises(DomainError):
        embed_sparse(np.ones(3), [0, 2], half)
    with pytest.raises(DomainError):
        embed_sparse(np.ones((4, 2)), [0, 2], half, (range(3), 9))


def test_r15_single_nonzero_is_one_beam():
    l = 2
    beams = [1, 4]
    eff = spatial_effective_regular(GEOM, 0, 0, beams)
    w_c = np.zeros(2 * l, dtype=complex)
    w_c[0] = 1.0
    w = compact_r15(eff, w_c)
    half = GEOM.n1 * GEOM.n2
    np.testing.assert_allclose(w[half:], 0, atol=1e-15)
    assert np.count_nonzero(np.round(np.abs(w), 12)) == half


def test_r16_forms_agree():
    rng = np.random.default_rng(1)
    l, mv, n3 = 2, 3, 9
    beams = [1, 6]
    taps = [0, 2, 7]
    eff_s = spatial_effective_regular(GEOM, 3, 0, beams)
    full_s = spatial_full_regular(GEOM, 3, 0)
    eff_f = frequency_effective(n3, taps)
    full_f = frequency_full(n3)
    half = GEOM.n1 * GEOM.n2
    for _ in range(50):
        w_c = random_core(rng, 2 * l, mv)
        w_pmi = embed_sparse(w_c, beams, half, (taps, n3))
        a = compact_r16(eff_s, w_c, eff_f)
        b = compact_r16(full_s, w_pmi, full_f)
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_r16_mv1_rank_one_frequency_structure():
    l, n3 = 2, 6
    eff_s = spatial_effective_regular(GEOM, 0, 0, [0, 1])
    rng = np.random.default_rng(2)
    w_c = random_core(rng, 2 * l, 1)
    w = compact_r16(eff_s, w_c, frequency_effective(n3, [0]))
    for t in range(1, n3):
        np.testing.assert_allclose(w[:, t], w[:, 0], atol=1e-12)


def test_r18_tucker_forms_and_flattening():
    rng = np.random.default_rng(3)
    l, mv, q, n3, n4 = 2, 2, 2, 6, 4
    beams = [0, 3]
    taps = [0, 4]
    shifts = [0, 1]
    eff_s = spatial_effective_regular(GEOM, 1, 1, beams)
    eff_f = frequency_effective(n3, taps)
    eff_t = temporal_effective(n4, shifts)
    full_s = spatial_full_regular(GEOM, 1, 1)
    full_f = frequency_full(n3)
    full_t = temporal_full(n4)
    half = GEOM.n1 * GEOM.n2
    for _ in range(20):
        core = random_core(rng, 2 * l, mv, q)
        w_a = compact_r18_tucker(core, eff_s, eff_f, eff_t)
        sparse = embed_sparse(core, beams, half, (taps, n3), (shifts, n4))
        w_b = compact_r18_tucker(sparse, full_s, full_f, full_t)
        np.testing.assert_allclose(w_a, w_b, atol=1e-12)
        flat = tucker_flatten_identity(core, eff_s, eff_f, eff_t)
        np.testing.assert_allclose(w_a, flat, atol=1e-12)


def test_r18_single_core_entry_separable():
    eff_s = spatial_effective_regular(GEOM, 0, 0, [2])
    eff_f = frequency_effective(4, [1])
    eff_t = temporal_effective(2, [1])
    core = np.zeros((2, 1, 1), dtype=complex)
    core[0, 0, 0] = 2.0
    w = compact_r18_tucker(core, eff_s, eff_f, eff_t)
    # rank-1 separable tensor: w[p,t,n] = 2 * s[p] f[t] z[n]
    s = eff_s[:, 0]
    f = eff_f[:, 0]
    z = eff_t[:, 0]
    np.testing.assert_allclose(w, 2 * np.einsum("p,t,n->ptn", s, f, z), atol=1e-12)


def normalized(x):
    return x / np.linalg.norm(x)


def test_protocol_equivalence_r15():
    cfg = type2_r15.T2R15Config(l=2, n_psk=8, rank=1, subband_count=2,
                                geom=GEOM)
    rng = np.random.default_rng(4)
    half = GEOM.n1 * GEOM.n2
    for _ in range(20):
        pmi = type2_r15.random_valid_pmi(cfg, rng)
        beams = decode_combination(pmi.i12, half, cfg.l)
        eff = spatial_effective_regular(GEOM, *pmi.i11, beams)
        for sb in range(cfg.subband_count):
            w_proto = type2_r15.reconstruct(cfg, pmi, sb)[:, 0]
            w_c = type2_r15.layer_coefficients(cfg, pmi)[sb, 0]
            w_cmp = compact_r15(eff, w_c)
            np.testing.assert_allclose(normalized(w_cmp), normalized(w_proto),
                                       atol=1e-9)


def test_protocol_equivalence_r16():
    cfg = type2_r16.R16Config(param_combination=2, r=1, n3=9, rank=1, geom=GEOM)
    rng = np.random.default_rng(5)
    half = GEOM.n1 * GEOM.n2
    for _ in range(20):
        pmi = type2_r16.random_valid_pmi(cfg, rng)
        beams = decode_combination(pmi.i12, half, cfg.l)
        taps = enhanced.decode_taps(cfg, pmi)[0]
        eff_s = spatial_effective_regular(GEOM, *pmi.i11, beams)
        eff_f = frequency_effective(cfg.n3, taps)
        w_c = enhanced.layer_coefficients(cfg, pmi)[0]
        w_cmp = compact_r16(eff_s, w_c, eff_f)
        w_proto = type2_r16.reconstruct_all(cfg, pmi)
        for t in range(cfg.n3):
            np.testing.assert_allclose(normalized(w_cmp[:, t]),
                                       normalized(w_proto[t, :, 0]), atol=1e-9)


def test_protocol_equivalence_r17():
    cfg = type2_r17.R17Config(p_csirs=16, param_combination=6, n3=6,
                              n_threshold=4)
    rng = np.random.default_rng(6)
    for _ in range(20):
        pmi = type2_r17.random_valid_pmi(cfg, rng)
        ports = type2_r17.decode_ports(cfg, pmi)
        taps = type2_r17.decode_tap_offset(cfg, pmi)
        eff_s = spatial_effective_ps(cfg.p_csirs, ports)
        eff_f = frequency_effective(cfg.n3, taps)
        w_c = enhanced.layer_coefficients(cfg, pmi)[0]
        w_cmp = compact_r16(eff_s, w_c, eff_f)
        w_proto = type2_r17.reconstruct_all(cfg, pmi)
        for t in range(cfg.n3):
            np.testing.assert_allclose(normalized(w_cmp[:, t]),
                                       normalized(w_proto[t, :, 0]), atol=1e-9)
        # full-bases form agrees too
        sparse = embed_sparse(w_c, ports, cfg.p_csirs // 2, (taps, cfg.n3))
        w_full = compact_r16(spatial_full_ps(cfg.p_csirs), sparse,
                             frequency_full(cfg.n3))
        np.testing.assert_allclose(w_full, w_cmp, atol=1e-12)


def test_protocol_equivalence_r18_tucker():
    cfg = type2_r18.R18Config(geom=GEOM, param_combination=2, r=1, n3=9, n4=4,
                              rank=1)
    rng = np.random.default_rng(7)
    half = GEOM.n1 * GEOM.n2
    for _ in range(20):
        pmi = type2_r18.random_valid_pmi(cfg, rng)
        beams = decode_combination(pmi.i12, half, cfg.l)
        taps = enhanced.decode_taps(cfg, pmi)[0]
        shifts = type2_r18.decode_shifts(cfg, pmi)[0]
        eff_s = spatial_effective_regular(GEOM, *pmi.i11, beams)
        eff_f = frequency_effective(cfg.n3, taps)
        eff_t = temporal_effective(cfg.n4, shifts)
        core = enhanced.layer_coefficients(cfg, pmi)[0][:, :, :len(shifts)]
        w_cmp = compact_r18_tucker(core, eff_s, eff_f, eff_t)
        w_proto = type2_r18.reconstruct_all(cfg, pmi)
        for t in range(cfg.n3):
            for n in range(cfg.n4):
                np.testing.assert_allclose(normalized(w_cmp[:, t, n]),
                                           normalized(w_proto[t, n, :, 0]),
                                           atol=1e-9)
