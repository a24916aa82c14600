"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run with `pytest -s tests/test_acceptance.py`
to see them.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from nrpmi import compact, enhanced, type1, type2_r15, type2_r16, type2_r17, type2_r18
from nrpmi.bases import ArrayGeometry, orthogonal_group
from nrpmi.channel_sim import (
    search_r16,
    search_r17,
    search_r18,
    spectral_efficiency_experiment,
)
from nrpmi.combinadics import (
    binomial,
    decode_combination,
    decode_group_restriction,
    encode_combination,
    encode_group_restriction,
)
from nrpmi.beamforming import (
    achieved_sinr,
    gmd,
    harmonic_mean_allocation,
    mu_beamformer,
    qos_power_allocation,
    waterfilling,
    wmmse_beamformer,
)
from nrpmi.overhead import OverheadConfig, total_bits

GEOM = ArrayGeometry(4, 2, 4, 4)


def report(criterion, ok, detail=""):
    stamp = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {stamp} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_01_combinadic_bijection():
    start = time.time()
    ok = True
    for n in range(1, 13):
        for k in range(1, min(n, 6) + 1):
            seen = set()
            for subset in itertools.combinations(range(n), k):
                rank = sum(binomial(n - 1 - v, k - i)
                           for i, v in enumerate(subset))
                idx = encode_combination(subset, n, k)
                ok &= idx == rank
                decoded = decode_combination(idx, n, k)
                ok &= decoded == subset
                ok &= all(a < b for a, b in zip(decoded, decoded[1:]))
                seen.add(idx)
            ok &= sorted(seen) == list(range(binomial(n, k)))
    elapsed = time.time() - start
    report(1, ok and elapsed < 5.0,
           f"(bijection over all n<=12, k<=6 in {elapsed:.2f}s)")


def test_02_group_restriction_roundtrip():
    start = time.time()
    ok = True
    for o1, o2 in ((4, 4), (2, 2)):
        count = 0
        for groups in itertools.combinations(range(o1 * o2), 4):
            beta1 = encode_group_restriction(groups, o1, o2)
            decoded = tuple(g for g, _, _ in
                            decode_group_restriction(beta1, o1, o2))
            ok &= decoded == groups
            count += 1
        ok &= count == binomial(o1 * o2, 4)
    elapsed = time.time() - start
    report(2, ok and elapsed < 1.0,
           f"(all 1820 + 1 subsets, {elapsed:.2f}s)")


def test_03_type1_exhaustive_sweep():
    ok = True
    worst_norm = 0.0
    worst_orth = 0.0
    for n1, n2 in ((4, 1), (2, 2)):
        geom = ArrayGeometry.from_antennas(n1, n2)
        modes = (1, 2) if n2 > 1 else (1,)
        for mode in modes:
            for rank in (1, 2):
                cfg = type1.Type1Config(geom, mode=mode, rank=rank)
                i13s = (range(type1.i13_range(geom)) if rank == 2 else (None,))
                for i11 in range(cfg.i11_range):
                    for i12 in range(cfg.i12_range):
                        for i13 in i13s:
                            for i2 in range(cfg.i2_range):
                                pmi = type1.Type1Pmi(i11, i12, (i2,), i13)
                                w = type1.build_precoder(cfg, pmi)
                                for col in range(rank):
                                    err = abs(np.linalg.norm(w[:, col])
                                              * math.sqrt(rank) - 1)
                                    worst_norm = max(worst_norm, err)
                                if rank == 2:
                                    worst_orth = max(
                                        worst_orth,
                                        abs(np.vdot(w[:, 0], w[:, 1])))
    ok = worst_norm < 1e-12 and worst_orth <= 1e-12
    report(3, ok, f"(norm err {worst_norm:.2e}, orthogonality "
                  f"{worst_orth:.2e})")


def test_04_type2_normalization_1000_random():
    rng = np.random.default_rng(2024)
    worst = 0.0
    n = 1000
    setups = [
        ("r15", type2_r15.T2R15Config(l=3, n_psk=8, rank=2, subband_count=3,
                                      variant=type2_r15.REGULAR, geom=GEOM)),
        ("r15-ps", type2_r15.T2R15Config(l=2, n_psk=4, rank=1,
                                         subband_count=2,
                                         variant=type2_r15.PORT_SELECTION,
                                         p_csirs=16, d=2)),
        ("r16", type2_r16.R16Config(param_combination=4, r=1, n3=9, rank=2,
                                    geom=GEOM)),
        ("r16-ps", type2_r16.R16Config(param_combination=2, r=1, n3=8, rank=1,
                                       variant=type2_r16.PORT_SELECTION,
                                       p_csirs=16, d=1)),
        ("r17", type2_r17.R17Config(p_csirs=16, param_combination=6, n3=6,
                                    n_threshold=4, rank=2)),
        ("r18", type2_r18.R18Config(geom=GEOM, param_combination=2, r=1,
                                    n3=8, n4=4, rank=2)),
    ]
    for name, cfg in setups:
        for _ in range(n):
            if name.startswith("r15"):
                pmi = type2_r15.random_valid_pmi(cfg, rng)
                for sb in range(cfg.subband_count):
                    w = type2_r15.reconstruct(cfg, pmi, sb)
                    norms = np.linalg.norm(w, axis=0) * math.sqrt(cfg.rank)
                    worst = max(worst, float(np.abs(norms - 1).max()))
            elif name.startswith("r16"):
                pmi = type2_r16.random_valid_pmi(cfg, rng)
                ws = type2_r16.reconstruct_all(cfg, pmi)
                norms = np.linalg.norm(ws, axis=1) * math.sqrt(cfg.rank)
                worst = max(worst, float(np.abs(norms - 1).max()))
            elif name == "r17":
                pmi = type2_r17.random_valid_pmi(cfg, rng)
                ws = type2_r17.reconstruct_all(cfg, pmi)
                norms = np.linalg.norm(ws, axis=1) * math.sqrt(cfg.rank)
                worst = max(worst, float(np.abs(norms - 1).max()))
            else:
                pmi = type2_r18.random_valid_pmi(cfg, rng)
                ws = type2_r18.reconstruct_all(cfg, pmi)
                norms = np.linalg.norm(ws, axis=2) * math.sqrt(cfg.rank)
                worst = max(worst, float(np.abs(norms - 1).max()))
    report(4, worst < 1e-9, f"(worst layer-norm error {worst:.2e} over "
                            f"{n} reports x {len(setups)} releases)")


def test_05_regular_vs_port_selection():
    rng = np.random.default_rng(7)
    geom = GEOM
    half = geom.n_ports // 2
    f = orthogonal_group(geom, 0, 0)
    worst = 0.0
    for _ in range(100):
        l = 2
        ports = sorted(rng.choice(half, size=l, replace=False).tolist())
        # R15-style single-tap coefficients and R16-style per-tap grids
        a = crandn(rng, 2 * l)
        h1 = crandn(rng, 2, half)
        h2 = crandn(rng, 2, half)
        w_ps = np.zeros(2 * half, dtype=complex)
        for i, d in enumerate(ports):
            w_ps[d] += a[i]
            w_ps[half + d] += a[l + i]
        y_ps = np.hstack([h1 @ f, h2 @ f]) @ w_ps
        y_reg = sum(a[i] * (h1 @ f[:, d]) + a[l + i] * (h2 @ f[:, d])
                    for i, d in enumerate(ports))
        worst = max(worst, float(np.abs(y_ps - y_reg).max()))
        # R16 variant: coefficients over 2 taps, synthesized per unit
        n3, taps = 6, (0, 3)
        grid = crandn(rng, 2 * l, 2)
        eff_ps = compact.spatial_effective_ps(2 * half, ports)
        eff_reg = compact.spatial_effective_regular(geom, 0, 0, ports)
        freq = compact.frequency_effective(n3, taps)
        w_ps16 = compact.compact_r16(eff_ps, grid, freq)     # port domain
        w_reg16 = compact.compact_r16(eff_reg, grid, freq)   # beam domain
        fw = np.vstack([f @ w_ps16[:half], f @ w_ps16[half:]])
        worst = max(worst, float(np.abs(fw - w_reg16).max()))
    report(5, worst < 1e-10, f"(worst deviation {worst:.2e})")


def normalized_cols(x):
    return x / np.linalg.norm(x, axis=0, keepdims=True)


def test_06_compact_model_equivalence():
    rng = np.random.default_rng(11)
    worst = 0.0
    n = 200
    half = GEOM.n1 * GEOM.n2
    # R15
    cfg15 = type2_r15.T2R15Config(l=2, n_psk=8, rank=1, subband_count=2,
                                  variant=type2_r15.REGULAR, geom=GEOM)
    for _ in range(n):
        pmi = type2_r15.random_valid_pmi(cfg15, rng)
        beams = decode_combination(pmi.i12, half, cfg15.l)
        eff = compact.spatial_effective_regular(GEOM, *pmi.i11, beams)
        full = compact.spatial_full_regular(GEOM, *pmi.i11)
        for sb in range(2):
            w_c = type2_r15.layer_coefficients(cfg15, pmi)[sb, 0]
            wa = compact.compact_r15(eff, w_c)
            wb = compact.compact_r15(
                full, compact.embed_sparse(w_c, beams, half))
            worst = max(worst, float(np.abs(wa - wb).max()))
            proto = type2_r15.reconstruct(cfg15, pmi, sb)[:, 0]
            diff = _aligned_diff(wa, proto)
            worst = max(worst, diff)
    # R16
    cfg16 = type2_r16.R16Config(param_combination=2, r=1, n3=9, rank=1,
                                geom=GEOM)
    for _ in range(n):
        pmi = type2_r16.random_valid_pmi(cfg16, rng)
        beams = decode_combination(pmi.i12, half, cfg16.l)
        taps = enhanced.decode_taps(cfg16, pmi)[0]
        eff_s = compact.spatial_effective_regular(GEOM, *pmi.i11, beams)
        eff_f = compact.frequency_effective(cfg16.n3, taps)
        w_c = enhanced.layer_coefficients(cfg16, pmi)[0]
        wa = compact.compact_r16(eff_s, w_c, eff_f)
        wb = compact.compact_r16(
            compact.spatial_full_regular(GEOM, *pmi.i11),
            compact.embed_sparse(w_c, beams, half, (taps, cfg16.n3)),
            compact.frequency_full(cfg16.n3))
        worst = max(worst, float(np.abs(wa - wb).max()))
        proto = type2_r16.reconstruct_all(cfg16, pmi)
        for t in range(cfg16.n3):
            worst = max(worst, _aligned_diff(wa[:, t], proto[t, :, 0]))
    # R17 (port selection)
    cfg17 = type2_r17.R17Config(p_csirs=16, param_combination=6, n3=6,
                                n_threshold=4)
    for _ in range(n):
        pmi = type2_r17.random_valid_pmi(cfg17, rng)
        ports = type2_r17.decode_ports(cfg17, pmi)
        taps = type2_r17.decode_tap_offset(cfg17, pmi)
        eff_s = compact.spatial_effective_ps(cfg17.p_csirs, ports)
        eff_f = compact.frequency_effective(cfg17.n3, taps)
        w_c = enhanced.layer_coefficients(cfg17, pmi)[0]
        wa = compact.compact_r16(eff_s, w_c, eff_f)
        wb = compact.compact_r16(
            compact.spatial_full_ps(cfg17.p_csirs),
            compact.embed_sparse(w_c, ports, cfg17.p_csirs // 2,
                                 (taps, cfg17.n3)),
            compact.frequency_full(cfg17.n3))
        worst = max(worst, float(np.abs(wa - wb).max()))
        proto = type2_r17.reconstruct_all(cfg17, pmi)
        for t in range(cfg17.n3):
            worst = max(worst, _aligned_diff(wa[:, t], proto[t, :, 0]))
    # R18 Tucker
    cfg18 = type2_r18.R18Config(geom=GEOM, param_combination=2, r=1, n3=8,
                                n4=4, rank=1)
    for _ in range(n):
        pmi = type2_r18.random_valid_pmi(cfg18, rng)
        beams = decode_combination(pmi.i12, half, cfg18.l)
        taps = enhanced.decode_taps(cfg18, pmi)[0]
        shifts = type2_r18.decode_shifts(cfg18, pmi)[0]
        eff_s = compact.spatial_effective_regular(GEOM, *pmi.i11, beams)
        eff_f = compact.frequency_effective(cfg18.n3, taps)
        eff_t = compact.temporal_effective(cfg18.n4, shifts)
        core = enhanced.layer_coefficients(cfg18, pmi)[0]
        wa = compact.compact_r18_tucker(core, eff_s, eff_f, eff_t)
        sparse = compact.embed_sparse(core, beams, half, (taps, cfg18.n3),
                                      (shifts, cfg18.n4))
        wb = compact.compact_r18_tucker(
            sparse, compact.spatial_full_regular(GEOM, *pmi.i11),
            compact.frequency_full(cfg18.n3), compact.temporal_full(cfg18.n4))
        worst = max(worst, float(np.abs(wa - wb).max()))
        proto = type2_r18.reconstruct_all(cfg18, pmi)
        for t in range(cfg18.n3):
            for iota in range(cfg18.n4):
                worst = max(worst,
                            _aligned_diff(wa[:, t, iota], proto[t, iota, :, 0]))
    report(6, worst < 1e-9,
           f"(worst normalized deviation {worst:.2e}, {n} reports/release)")


def _aligned_diff(compact_vec, proto_vec):
    a = compact_vec / np.linalg.norm(compact_vec)
    b = proto_vec / np.linalg.norm(proto_vec)
    # remove the free global phase before comparing
    phase = np.vdot(a, b)
    phase /= abs(phase)
    return float(np.abs(a * phase - b).max())


def test_07_r18_degenerates_to_r16():
    cfg18 = type2_r18.R18Config(geom=GEOM, param_combination=2, r=1, n3=8,
                                n4=1, rank=2)
    cfg16 = type2_r16.R16Config(param_combination=2, r=1, n3=8, rank=2,
                                geom=GEOM)
    rng = np.random.default_rng(5)
    worst = 0.0
    done = 0
    while done < 50:
        pmi18 = type2_r18.random_valid_pmi(cfg18, rng)
        if any(pmi18.bitmap[layer].sum() > cfg16.k0 for layer in range(2)):
            continue
        pmi16 = type2_r16.R16Pmi(pmi18.i11, pmi18.i12, pmi18.i15, pmi18.i16,
                                 pmi18.i18, pmi18.bitmap[:, :, :, 0],
                                 pmi18.k1, pmi18.k2[:, :, :, 0],
                                 pmi18.c[:, :, :, 0])
        w18 = type2_r18.reconstruct_all(cfg18, pmi18)[:, 0]
        w16 = type2_r16.reconstruct_all(cfg16, pmi16)
        worst = max(worst, float(np.abs(w18 - w16).max()))
        done += 1
    report(7, worst < 1e-12, f"(worst deviation {worst:.2e})")


def test_08_overhead_reproduction():
    start = time.time()
    fig = dict(rank=2, n1n2=16, o1o2=4, n3=18, subband_count=18, n4=4, q=2,
               mv=5, n_psk=4, k2_cap=6, k_nz=20)
    ok = True
    totals = {}
    for release in ("r15-type2", "r16", "r18"):
        totals[release] = [total_bits(OverheadConfig(release=release, l=l,
                                                     **fig))
                           for l in (1, 2, 3, 4)]
        ok &= all(a < b for a, b in zip(totals[release], totals[release][1:]))
    for i in range(4):
        ok &= totals["r15-type2"][i] > 10 * totals["r16"][i]
        ok &= totals["r18"][i] < totals["r16"][i]
    elapsed = time.time() - start
    report(8, ok and elapsed < 1.0,
           f"(R15 {totals['r15-type2']}, R16 {totals['r16']}, "
           f"R18 {totals['r18']}, {elapsed:.2f}s)")


def test_09_spectral_efficiency_property():
    start = time.time()
    trials = 500
    rows = spectral_efficiency_experiment(antenna_configs=((4, 1), (16, 1)),
                                          snr_db=(10,), trials=trials, seed=3)
    stats = {(r["antennas"], r["scheme"]): r for r in rows}
    gaps = {}
    ok = True
    for ant in ("4x1", "16x1"):
        t1 = stats[(ant, "type1")]
        t2 = stats[(ant, "type2")]
        diff = t2["mean_rate"] - t1["mean_rate"]
        # 95 % confidence on the (unpaired, conservative) difference
        margin = math.sqrt(t1["ci95"] ** 2 + t2["ci95"] ** 2)
        ok &= diff - margin >= 0
        gaps[ant] = diff
    ok &= gaps["16x1"] > gaps["4x1"]
    elapsed = time.time() - start
    report(9, ok and elapsed < 180,
           f"(gap 4x1 {gaps['4x1']:.3f}, gap 16x1 {gaps['16x1']:.3f} "
           f"bit/s/Hz, {elapsed:.1f}s)")


def test_10_beamforming_suite():
    rng = np.random.default_rng(99)
    ok = True
    detail = []
    # ZF residual
    worst_zf = 0.0
    for _ in range(20):
        channels = [crandn(rng, 2, 8) for _ in range(3)]
        blocks = mu_beamformer("zf", channels)
        for i in range(3):
            for k in range(3):
                if i != k:
                    worst_zf = max(worst_zf,
                                   float(np.linalg.norm(channels[i] @ blocks[k])))
    ok &= worst_zf <= 1e-10
    detail.append(f"zf {worst_zf:.1e}")
    # water-filling vs bisection oracle + KKT, 1000 random sets, D <= 4
    from test_beamforming import waterfill_oracle
    worst_wf, worst_kkt, worst_sum = 0.0, 0.0, 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        gains = rng.uniform(0.05, 10.0, size=d)
        pt = float(rng.uniform(0.1, 10.0))
        p, mu = waterfilling(gains, pt)
        p_ref, _ = waterfill_oracle(gains, pt)
        worst_wf = max(worst_wf, float(np.abs(p - p_ref).max()))
        worst_sum = max(worst_sum, abs(p.sum() - pt))
        for i in range(d):
            if p[i] > 0:
                worst_kkt = max(worst_kkt, abs(p[i] + 1 / gains[i] - mu))
            else:
                worst_kkt = max(worst_kkt, max(0.0, mu - 1 / gains[i]))
    ok &= worst_wf < 1e-6 and worst_kkt < 1e-10 and worst_sum < 1e-12
    detail.append(f"wf {worst_wf:.1e}/kkt {worst_kkt:.1e}")
    # harmonic: P_i * lambda_i constant
    worst_h = 0.0
    for _ in range(100):
        gains = rng.uniform(0.1, 10.0, size=4)
        p = harmonic_mean_allocation(gains, 2.0)
        prods = p * np.sqrt(gains)
        worst_h = max(worst_h, float(np.abs(prods - prods[0]).max()))
    ok &= worst_h < 1e-10
    detail.append(f"harmonic {worst_h:.1e}")
    # GMD
    worst_diag, worst_unit, worst_rec = 0.0, 0.0, 0.0
    for _ in range(50):
        h = crandn(rng, 4, 4)
        q, r, p = gmd(h)
        s = np.linalg.svd(h, compute_uv=False)
        target = np.exp(np.mean(np.log(s)))
        worst_diag = max(worst_diag,
                         float(np.abs(np.real(np.diag(r)) - target).max()))
        worst_unit = max(worst_unit,
                         float(np.abs(q.conj().T @ q - np.eye(4)).max()),
                         float(np.abs(p.conj().T @ p - np.eye(4)).max()))
        worst_rec = max(worst_rec,
                        float(np.abs(q @ r @ p.conj().T - h).max()))
    ok &= worst_diag < 1e-9 and worst_unit < 1e-10 and worst_rec < 1e-9
    detail.append(f"gmd {worst_diag:.1e}")
    # WMMSE monotone + power
    worst_mono, worst_pow = 0.0, 0.0
    for trial in range(5):
        channels = [crandn(rng, 2, 6) for _ in range(3)]
        blocks, history = wmmse_beamformer(
            channels, pt=5.0, noise_power=1.0, n_iter=50,
            rng=np.random.default_rng(500 + trial))
        worst_mono = max(worst_mono, float(-np.min(np.diff(history))))
        power = sum(np.sum(np.abs(w) ** 2) for w in blocks)
        worst_pow = max(worst_pow, abs(power - 5.0))
    ok &= worst_mono <= 1e-9 and worst_pow < 1e-10
    detail.append(f"wmmse {worst_mono:.1e}")
    # QoS targets
    worst_qos = 0.0
    for _ in range(20):
        gains = rng.uniform(1.0, 5.0, size=3)
        cross = rng.uniform(0.0, 0.05, size=(3, 3))
        np.fill_diagonal(cross, 0.0)
        targets = rng.uniform(0.5, 2.0, size=3)
        p = qos_power_allocation(gains, targets, cross, 1.0)
        sinr = achieved_sinr(p, gains, cross, 1.0)
        worst_qos = max(worst_qos, float(np.abs(sinr - targets).max()))
    ok &= worst_qos < 1e-8
    detail.append(f"qos {worst_qos:.1e}")
    report(10, ok, "(" + ", ".join(detail) + ")")


def test_11_plant_and_recover():
    from test_channel_sim import plant_r16, plant_r17, plant_r18
    from test_type2_r15 import plant_channel as plant_r15

    trials = 200
    results = {}
    # R15 Type II regular
    cfg15 = type2_r15.T2R15Config(l=2, n_psk=8, rank=1, subband_count=2,
                                  variant=type2_r15.REGULAR, geom=GEOM)
    rng = np.random.default_rng(41)
    hits = 0
    for _ in range(trials):
        pmi = type2_r15.random_valid_pmi(cfg15, rng)
        h = plant_r15(cfg15, pmi)
        found = type2_r15.search_t2_r15(h, cfg15)
        good = True
        for sb in range(cfg15.subband_count):
            w0 = type2_r15.reconstruct(cfg15, pmi, sb)[:, 0]
            w1 = type2_r15.reconstruct(cfg15, found, sb)[:, 0]
            good &= abs(np.vdot(w0, w1)) > 0.99
        hits += good
    results["r15"] = hits
    # R16
    cfg16 = type2_r16.R16Config(param_combination=2, r=1, n3=9, rank=1,
                                geom=GEOM)
    rng = np.random.default_rng(42)
    hits = 0
    for _ in range(trials):
        pmi = type2_r16.random_valid_pmi(cfg16, rng)
        found = search_r16(plant_r16(cfg16, pmi), cfg16)
        w0 = type2_r16.reconstruct_all(cfg16, pmi)
        w1 = type2_r16.reconstruct_all(cfg16, found)
        hits += all(abs(np.vdot(w0[t, :, 0], w1[t, :, 0])) > 0.99
                    for t in range(cfg16.n3))
    results["r16"] = hits
    # R17 port selection
    cfg17 = type2_r17.R17Config(p_csirs=16, param_combination=6, n3=6,
                                n_threshold=4, rank=1)
    rng = np.random.default_rng(43)
    hits = 0
    for _ in range(trials):
        pmi = type2_r17.random_valid_pmi(cfg17, rng)
        found = search_r17(plant_r17(cfg17, pmi), cfg17)
        w0 = type2_r17.reconstruct_all(cfg17, pmi)
        w1 = type2_r17.reconstruct_all(cfg17, found)
        hits += all(abs(np.vdot(w0[t, :, 0], w1[t, :, 0])) > 0.99
                    for t in range(cfg17.n3))
    results["r17"] = hits
    # R18
    cfg18 = type2_r18.R18Config(geom=GEOM, param_combination=2, r=1, n3=9,
                                n4=4, rank=1)
    rng = np.random.default_rng(44)
    hits = 0
    for _ in range(trials):
        pmi = type2_r18.random_valid_pmi(cfg18, rng)
        found = search_r18(plant_r18(cfg18, pmi), cfg18)
        w0 = type2_r18.reconstruct_all(cfg18, pmi)
        w1 = type2_r18.reconstruct_all(cfg18, found)
        hits += all(abs(np.vdot(w0[t, n, :, 0], w1[t, n, :, 0])) > 0.99
                    for t in range(cfg18.n3) for n in range(cfg18.n4))
    results["r18"] = hits
    # Type I
    cfg1 = type1.Type1Config(ArrayGeometry(4, 1, 4, 1), rank=1)
    rng = np.random.default_rng(45)
    hits = 0
    for _ in range(trials):
        l_true = int(rng.integers(16))
        n_true = int(rng.integers(4))
        from nrpmi.bases import dft_beam
        v = dft_beam(cfg1.geom, l_true, 0)
        phi = np.exp(1j * np.pi * n_true / 2)
        h = np.concatenate([v, phi * v]).conj()[None, None, :]
        found = type1.search_type1(h, cfg1)
        w0 = type1.build_precoder(
            cfg1, type1.Type1Pmi(l_true, 0, (n_true,)))[:, 0]
        w1 = type1.build_precoder(cfg1, found)[:, 0]
        hits += abs(np.vdot(w0, w1)) > 0.99
    results["type1"] = hits
    ok = all(h >= 0.95 * trials for h in results.values())
    report(11, ok, f"(hits/{trials}: {results})")


def test_12_conformance_roundtrip(tmp_path):
    from nrpmi.cli import main
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n1": 4, "n2": 2, "o1": 4, "o2": 4,
                                  "param_combination": 2, "r": 1, "n3": 8,
                                  "rank": 1}))
    out = tmp_path / "vectors.jsonl"
    ok = main(["gen-vectors", "--release", "r16", "--config", str(config),
               "--seed", "21", "--samples", "10", "--out", str(out)]) == 0
    ok &= main(["validate", str(out)]) == 0
    # single-bit perturbation of the beam combination; the changed beam must
    # carry nonzero coefficients for the precoder to differ
    record = None
    for line in out.read_text().splitlines():
        candidate = json.loads(line)
        bitmap = np.asarray(candidate["pmi"]["bitmap"])[0]
        l = bitmap.shape[0] // 2
        active = [(bitmap[j].any() or bitmap[j + l].any()) for j in range(l)]
        if all(active):
            record = candidate
            break
    ok &= record is not None
    record["pmi"]["i12"] ^= 1
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(record) + "\n")
    ok &= main(["validate", str(bad)]) == 1
    report(12, ok, "(gen-vectors -> validate roundtrip and perturbation)")
