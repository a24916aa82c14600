import math
import re

import numpy as np
import pytest

from nrpmi.beamforming import (
    achieved_sinr,
    bd_beamformer,
    gmd,
    harmonic_mean_allocation,
    mu_beamformer,
    normalize_blocks,
    qos_power_allocation,
    su_beamformer,
    user_rates,
    waterfilling,
    wmmse_beamformer,
)
from nrpmi.errors import DomainError, FeasibilityError, SingularityError


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_rate_scalar_channel():
    # 1x1 channel H=[1], W=[1], sigma^2=1 -> 1 bit/s/Hz
    r = user_rates([np.array([[1.0]])], [np.array([[1.0]])], 1.0)
    np.testing.assert_allclose(r, [1.0], atol=1e-12)
    r0 = user_rates([np.array([[1.0]])], [np.array([[0.0]])], 1.0)
    np.testing.assert_allclose(r0, [0.0], atol=1e-12)


def test_rate_zf_interference_free():
    rng = np.random.default_rng(0)
    channels = [crandn(rng, 1, 4), crandn(rng, 1, 4)]
    blocks = mu_beamformer("zf", channels)
    # interference term vanishes: rate equals the single-user log det
    rates = user_rates(channels, blocks, 1.0)
    for k in range(2):
        g = channels[k] @ blocks[k]
        solo = np.log2(np.abs(1 + g @ g.conj().T)).item()
        assert abs(rates[k] - solo) < 1e-10


def rates_oracle(channels, beamformers, noise_powers):
    """One solve and one slogdet per (user, subcarrier), each 2-D array
    shared across the M subcarriers of the 3-D ones."""
    k_users = len(channels)
    noise = np.broadcast_to(np.asarray(noise_powers, dtype=float), (k_users,))
    arrays = [np.asarray(a) for a in list(channels) + list(beamformers)]
    m_carriers = max([a.shape[0] for a in arrays if a.ndim == 3], default=1)
    arrays = [np.broadcast_to(a, (m_carriers,) + a.shape[-2:]) for a in arrays]
    hs, ws = arrays[:k_users], arrays[k_users:]
    rates = np.zeros(k_users)
    for k in range(k_users):
        nr = hs[k].shape[1]
        for m in range(m_carriers):
            cov = noise[k] * np.eye(nr, dtype=complex)
            for i in range(k_users):
                if i == k:
                    continue
                g = hs[k][m] @ ws[i][m]
                cov += g @ g.conj().T
            g = hs[k][m] @ ws[k][m]
            sig = g @ g.conj().T
            sign, logdet = np.linalg.slogdet(
                np.eye(nr) + np.linalg.solve(cov, sig))
            rates[k] += logdet / math.log(2)
    return rates


def test_rates_match_the_per_subcarrier_oracle_bit_for_bit():
    rng = np.random.default_rng(10)
    for _ in range(300):
        k_users = int(rng.integers(1, 4))
        m_carriers = int(rng.integers(1, 49))
        nt = int(rng.integers(1, 17))
        channels, beamformers = [], []
        for _ in range(k_users):
            nr, v = (int(x) for x in rng.integers(1, 5, size=2))
            lead = (m_carriers,) if rng.random() < 0.6 else ()
            channels.append(crandn(rng, *lead, nr, nt))
            lead = (m_carriers,) if rng.random() < 0.5 else ()
            beamformers.append(crandn(rng, *lead, nt, v))
        noise = (rng.uniform(0.01, 2.0) if rng.random() < 0.5
                 else rng.uniform(0.01, 2.0, size=k_users))
        assert np.array_equal(user_rates(channels, beamformers, noise),
                              rates_oracle(channels, beamformers, noise))


@pytest.mark.parametrize("channels, beamformers, noise, named", [
    pytest.param([], [], 1.0, "channels", id="no-user"),
    pytest.param([(2, 4)], [(4, 1), (4, 1)], 1.0, "beamformers",
                 id="more-beamformers-than-users"),
    pytest.param([(2, 2, 4)], [(3, 4, 1)], 1.0, "beamformers[0]",
                 id="beamformer-has-more-subcarriers"),
    pytest.param([(3, 2, 4)], [(2, 4, 1)], 1.0, "beamformers[0]",
                 id="beamformer-has-fewer-subcarriers"),
    pytest.param([(3, 2, 4), (2, 2, 4)], [(4, 1), (4, 1)], 1.0,
                 "channels[1]", id="users-differ-in-subcarriers"),
    pytest.param([(2, 4), (2, 4)], [(4, 1), (4, 1)], [1.0, 1.0, 1.0],
                 "noise_powers", id="noise-of-wrong-length"),
    pytest.param([(1, 3, 2, 4)], [(4, 1)], 1.0, "channels[0]",
                 id="4-d-channel"),
    pytest.param([(2, 4)], [(3, 1)], 1.0, "beamformers[0]",
                 id="beamformer-of-wrong-nt"),
    pytest.param([(2, 4)], [(4, 1)], 0.0, "noise_powers", id="zero-noise"),
    pytest.param([(2, 4), (2, 4)], [(4, 1), (4, 1)], [1.0, -0.5],
                 "noise_powers", id="negative-noise"),
])
def test_malformed_rate_inputs_name_the_bad_argument(channels, beamformers,
                                                     noise, named):
    rng = np.random.default_rng(11)
    channels = [crandn(rng, *shape) for shape in channels]
    beamformers = [crandn(rng, *shape) for shape in beamformers]
    with pytest.raises(DomainError, match=re.escape(named)):
        user_rates(channels, beamformers, noise)


@pytest.mark.parametrize("target, named", [
    ("channel", "channels[1]"),
    ("beamformer", "beamformers[0]"),
])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf,
                                   complex(0, np.nan)])
def test_non_finite_rate_inputs_name_the_bad_argument(target, named, value):
    # a NaN or inf entry used to come back as a nan rate after numpy's
    # slogdet warning
    rng = np.random.default_rng(14)
    channels = [crandn(rng, 3, 2, 4), crandn(rng, 2, 4)]
    beamformers = [crandn(rng, 3, 4, 1), crandn(rng, 4, 2)]
    (channels[1] if target == "channel" else beamformers[0])[0, 0] = value
    with pytest.raises(DomainError,
                       match=re.escape(f"{named} must hold finite numbers")):
        user_rates(channels, beamformers, 1.0)


@pytest.mark.parametrize("noise, message", [
    pytest.param(True, "hold real numbers, not True", id="bool"),
    pytest.param(np.True_, "hold real numbers, not", id="numpy-bool"),
    pytest.param("0.5", "hold real numbers, not '0.5'", id="string"),
    pytest.param(b"2", "hold real numbers, not b'2'", id="bytes"),
    pytest.param(1 + 0j, "hold real numbers, not (1+0j)", id="complex"),
    pytest.param(None, "hold real numbers, not None", id="none"),
    pytest.param([0.5, True], "hold real numbers, not True", id="bool-entry"),
    pytest.param([0.5, "1"], "hold real numbers, not '1'", id="string-entry"),
    pytest.param([None, 0.5], "hold real numbers, not None", id="none-entry"),
    pytest.param(np.array([0.5, 1.0], dtype=complex), "hold real numbers, not",
                 id="complex-array"),
    pytest.param(np.array([True, False]), "hold real numbers, not True",
                 id="bool-array"),
    pytest.param(10 ** 400, "be positive and finite", id="int-beyond-double"),
])
def test_noise_that_is_no_real_number_names_noise_powers(noise, message):
    # True was read as 1.0, '0.5' as 0.5 and b'2' as 2.0; 1+0j escaped as
    # a bare TypeError, 10**400 as an OverflowError and None as "positive
    # and finite, got [nan]"
    rng = np.random.default_rng(15)
    channels = [crandn(rng, 3, 2, 4), crandn(rng, 2, 4)]
    beamformers = [crandn(rng, 3, 4, 1), crandn(rng, 4, 2)]
    match = re.escape(f"noise_powers must {message}")
    with pytest.raises(DomainError, match=match):
        user_rates(channels, beamformers, noise)
    if np.ndim(noise) == 0:   # and as the entry of a one-user list
        with pytest.raises(DomainError, match=match):
            user_rates(channels[:1], beamformers[:1], [noise])


def test_non_numeric_rate_input_names_the_bad_argument():
    with pytest.raises(DomainError,
                       match=re.escape("channels[0] must hold finite numbers")):
        user_rates([np.array([["a", "b"]])], [np.ones((2, 1))], 1.0)


def test_su_svd_and_mrt():
    h = np.diag([2.0, 1.0]).astype(complex)
    w = su_beamformer("svd", h, n_streams=1)
    assert abs(abs(w[0, 0]) - 1) < 1e-12 and abs(w[1, 0]) < 1e-12
    w_mrt = su_beamformer("mrt", h)
    np.testing.assert_allclose(w_mrt, h.conj().T)


def test_su_zf_inverts_channel():
    rng = np.random.default_rng(1)
    h = crandn(rng, 3, 5)
    w = su_beamformer("zf", h)
    np.testing.assert_allclose(h @ w, np.eye(3), atol=1e-10)
    with pytest.raises(SingularityError):
        su_beamformer("zf", np.ones((2, 4), dtype=complex))  # rank deficient


def test_rzf_limits():
    rng = np.random.default_rng(2)
    h = crandn(rng, 2, 4)
    w_inf = su_beamformer("rzf", h, xi=1e9)
    w_mrt = su_beamformer("mrt", h)
    for col in range(2):
        a = w_inf[:, col] / np.linalg.norm(w_inf[:, col])
        b = w_mrt[:, col] / np.linalg.norm(w_mrt[:, col])
        assert abs(abs(np.vdot(a, b)) - 1) < 1e-6
    w0 = su_beamformer("rzf", h, xi=0.0)
    np.testing.assert_allclose(w0, su_beamformer("zf", h), atol=1e-10)
    w_mmse = su_beamformer("mmse", h, pt=4.0, noise_power=2.0)
    np.testing.assert_allclose(w_mmse, su_beamformer("rzf", h, xi=0.5),
                               atol=1e-12)


def su_linear_ref(scheme, h, xi, pt, noise_power):
    # the SU closed forms before SU ZF, RZF and MMSE became MU with one user
    if scheme == "zf":
        return h.conj().T @ np.linalg.inv(h @ h.conj().T)
    reg = xi if scheme == "rzf" else noise_power / pt
    return h.conj().T @ np.linalg.inv(h @ h.conj().T
                                      + reg * np.eye(h.shape[0]))


@pytest.mark.parametrize("scheme", ["zf", "rzf", "mmse"])
def test_su_linear_schemes_are_the_one_user_mu_forms(scheme):
    rng = np.random.default_rng(20)
    for trial in range(200):
        nr = int(rng.integers(1, 4))
        h = crandn(rng, nr, int(rng.integers(nr, 9)))
        if trial % 2:
            h = np.asfortranarray(h)
        xi, pt, noise = rng.uniform(0.01, 2, size=3).tolist()
        w = su_beamformer(scheme, h, xi=xi, pt=pt, noise_power=noise)
        mu = mu_beamformer(scheme, [h], xi=xi, pt=pt, noise_power=noise)[0]
        ref = su_linear_ref(scheme, h, xi, pt, noise)
        assert w.shape == ref.shape
        assert w.tobytes() == mu.tobytes() == ref.tobytes()
    with pytest.raises(DomainError, match="xi"):
        su_beamformer("rzf", h)


@pytest.mark.parametrize("shape", [(2, 2), (3, 4), (4, 4), (4, 6)])
def test_gmd_properties(shape, ):
    rng = np.random.default_rng(3)
    for _ in range(20):
        h = crandn(rng, *shape)
        q, r, p = gmd(h)
        k = min(shape)
        s = np.linalg.svd(h, compute_uv=False)
        target = np.exp(np.mean(np.log(s)))
        diag = np.real(np.diag(r))
        np.testing.assert_allclose(diag, target, atol=1e-9)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(k), atol=1e-10)
        np.testing.assert_allclose(p.conj().T @ p, np.eye(k), atol=1e-10)
        np.testing.assert_allclose(q @ r @ p.conj().T, h, atol=1e-9)
        np.testing.assert_allclose(np.tril(r, -1), 0, atol=1e-12)


def test_mu_zf_residual_interference():
    rng = np.random.default_rng(4)
    for _ in range(20):
        channels = [crandn(rng, 2, 8) for _ in range(3)]
        blocks = mu_beamformer("zf", channels)
        for i in range(3):
            for k in range(3):
                if i != k:
                    assert np.linalg.norm(channels[i] @ blocks[k]) <= 1e-10


def test_mu_zf_orthogonal_single_antenna():
    channels = [np.array([[1.0, 0, 0, 0]], dtype=complex),
                np.array([[0, 1.0, 0, 0]], dtype=complex)]
    blocks = mu_beamformer("zf", channels)
    np.testing.assert_allclose(channels[0] @ blocks[1], 0, atol=1e-12)
    np.testing.assert_allclose(channels[1] @ blocks[0], 0, atol=1e-12)
    assert abs((channels[0] @ blocks[0])[0, 0] - 1) < 1e-12


def test_ezf_reduces_interference():
    rng = np.random.default_rng(5)
    channels = [crandn(rng, 2, 8) for _ in range(3)]
    blocks = mu_beamformer("ezf", channels, n_streams=1, xi=0.0)
    # with xi = 0 the effective eigen-channels are perfectly separated
    for k in range(3):
        _, _, vh = np.linalg.svd(channels[k])
        v1 = vh.conj().T[:, :1]
        for i in range(3):
            val = v1.conj().T @ blocks[i]
            if i == k:
                assert abs(val[0, 0] - 1) < 1e-10
            else:
                assert abs(val[0, 0]) < 1e-10


def test_bd_null_space():
    rng = np.random.default_rng(6)
    channels = [crandn(rng, 2, 8) for _ in range(3)]
    blocks = bd_beamformer(channels, n_streams=2)
    for k in range(3):
        for i in range(3):
            if i != k:
                assert np.linalg.norm(channels[i] @ blocks[k]) <= 1e-10
    # infeasible: aggregate interference fills the whole space
    with pytest.raises(FeasibilityError):
        bd_beamformer([crandn(rng, 2, 4) for _ in range(3)], n_streams=2)


def test_wmmse_monotone_and_power():
    rng = np.random.default_rng(7)
    for trial in range(5):
        channels = [crandn(rng, 2, 6) for _ in range(3)]
        pt = 10.0
        blocks, history = wmmse_beamformer(
            channels, pt=pt, noise_power=1.0, n_iter=60,
            rng=np.random.default_rng(100 + trial))
        deltas = np.diff(history)
        assert np.all(deltas >= -1e-9)
        power = sum(np.sum(np.abs(w) ** 2) for w in blocks)
        assert abs(power - pt) < 1e-10


def test_wmmse_beats_rzf_often():
    rng = np.random.default_rng(8)
    wins = 0
    trials = 20
    for trial in range(trials):
        channels = [crandn(rng, 2, 6) for _ in range(3)]
        pt, noise = 100.0, 1.0
        w_blocks = mu_beamformer("rzf", channels, xi=noise / pt)
        scale = np.sqrt(pt / sum(np.sum(np.abs(w) ** 2) for w in w_blocks))
        w_blocks = [w * scale for w in w_blocks]
        r_rzf = user_rates(channels, w_blocks, noise).sum()
        blocks, _ = wmmse_beamformer(channels, pt=pt, noise_power=noise,
                                     n_iter=100,
                                     rng=np.random.default_rng(3000 + trial))
        r_wmmse = user_rates(channels, blocks, noise).sum()
        wins += r_wmmse >= r_rzf
    assert wins >= 0.9 * trials


def waterfill_oracle(gains, pt, iters=200):
    """Bisection on the water level."""
    g = np.asarray(gains, dtype=float)
    lo, hi = 0.0, pt + np.max(1 / g) + 1
    for _ in range(iters):
        mu = (lo + hi) / 2
        total = np.sum(np.maximum(mu - 1 / g, 0.0))
        if total > pt:
            hi = mu
        else:
            lo = mu
    mu = (lo + hi) / 2
    return np.maximum(mu - 1 / g, 0.0), mu


def test_waterfilling_known_values():
    p, _ = waterfilling([1.0, 1.0], 2.0)
    np.testing.assert_allclose(p, [1.0, 1.0], atol=1e-12)
    p, _ = waterfilling([4.0, 1.0], 1.0)
    np.testing.assert_allclose(p, [0.875, 0.125], atol=1e-12)


def test_waterfilling_against_oracle_and_kkt():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        gains = rng.uniform(0.05, 10.0, size=d)
        pt = float(rng.uniform(0.1, 10.0))
        p, mu = waterfilling(gains, pt)
        p_ref, _ = waterfill_oracle(gains, pt)
        np.testing.assert_allclose(p, p_ref, atol=1e-6)
        assert abs(p.sum() - pt) < 1e-12
        for i in range(d):
            if p[i] > 0:
                assert abs(p[i] + 1 / gains[i] - mu) < 1e-10
            else:
                assert mu <= 1 / gains[i] + 1e-10


def test_harmonic_allocation():
    p = harmonic_mean_allocation([4.0, 1.0], 1.0)  # lambda = [2, 1]
    np.testing.assert_allclose(p, [1 / 3, 2 / 3], atol=1e-12)
    rng = np.random.default_rng(10)
    for _ in range(100):
        gains = rng.uniform(0.1, 10.0, size=4)
        pt = float(rng.uniform(0.5, 5.0))
        p = harmonic_mean_allocation(gains, pt)
        assert abs(p.sum() - pt) < 1e-12
        prods = p * np.sqrt(gains)
        assert np.max(np.abs(prods - prods[0])) < 1e-10


def test_qos_allocation():
    rng = np.random.default_rng(11)
    n = 3
    for _ in range(20):
        gains = rng.uniform(1.0, 5.0, size=n)
        cross = rng.uniform(0.0, 0.05, size=(n, n))
        np.fill_diagonal(cross, 0.0)
        targets = rng.uniform(0.5, 2.0, size=n)
        p = qos_power_allocation(gains, targets, cross, noise_power=1.0)
        sinr = achieved_sinr(p, gains, cross, 1.0)
        np.testing.assert_allclose(sinr, targets, atol=1e-8)
    # infeasible: overwhelming cross-interference
    cross = np.full((2, 2), 50.0)
    np.fill_diagonal(cross, 0.0)
    with pytest.raises(FeasibilityError):
        qos_power_allocation([1.0, 1.0], [1.0, 1.0], cross, 1.0)


def test_normalize_power():
    rng = np.random.default_rng(12)
    w = crandn(rng, 4, 2)
    wn = normalize_blocks([w], 3.0)[0]
    assert abs(np.sum(np.abs(wn) ** 2) - 3.0) < 1e-12
    with pytest.raises(DomainError):
        normalize_blocks([np.zeros((2, 2))], 1.0)
    # the form it had before it scaled a list of one block
    assert wn.tobytes() == (w * math.sqrt(
        3.0 / float(np.sum(np.abs(w) ** 2)))).tobytes()


def test_normalize_blocks_scales_every_block_by_one_factor():
    rng = np.random.default_rng(13)
    blocks = [crandn(rng, 4, 2), crandn(rng, 4, 1), crandn(rng, 4, 3)]
    scaled = normalize_blocks(blocks, 5.0)
    assert abs(sum(np.sum(np.abs(w) ** 2) for w in scaled) - 5.0) < 1e-12
    ratios = [w / b for w, b in zip(scaled, blocks)]
    np.testing.assert_allclose(np.concatenate(ratios, axis=1),
                               ratios[0][0, 0], rtol=1e-15)
    with pytest.raises(DomainError):
        normalize_blocks([np.zeros((2, 1)), np.zeros((2, 2))], 1.0)
