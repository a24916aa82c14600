"""Full-CSI beamforming baselines and power allocation.

Single-user schemes (SVD, MRT, ZF, RZF, MMSE, GMD) and multi-user schemes
(ZF, RZF, MMSE, EZF, BD, WMMSE) in their standard closed forms, plus
water-filling, harmonic-mean, and QoS-targeted power allocation.  Rates are
evaluated treating inter-user interference as noise.
"""

import functools
import math
from numbers import Real

import numpy as np

from .errors import DomainError, FeasibilityError, SingularityError

SU_SCHEMES = ("svd", "mrt", "zf", "rzf", "mmse", "gmd")
MU_SCHEMES = ("zf", "rzf", "mmse", "ezf", "bd", "wmmse")


# ---------------------------------------------------------------------------
# rate evaluation

_LOG2 = math.log(2)


@functools.cache
def _identity(nr: int) -> np.ndarray:
    """The read-only complex Nr x Nr identity that every rate adds."""
    eye = np.eye(nr, dtype=complex)
    eye.flags.writeable = False
    return eye


def _noise_list(noise_powers, k_users: int) -> list[float]:
    """``noise_powers`` as one Python float per user; DomainError names it
    when it has the wrong length or an entry that is no real number (a
    bool, string, bytes, complex or None)."""
    if isinstance(noise_powers, (float, int)) and not isinstance(
            noise_powers, bool):
        return [float(noise_powers)] * k_users
    entries = np.asarray(noise_powers, dtype=object)
    if entries.shape not in ((), (1,), (k_users,)):
        raise DomainError(f"noise_powers must be a scalar or {k_users} "
                          f"values, one per user")
    entries = entries.reshape(-1).tolist()
    for n in entries:
        if not isinstance(n, Real) or isinstance(n, bool):
            raise DomainError(f"noise_powers must hold real numbers, "
                              f"not {n!r}")
    # a scalar serves every user
    return [float(n) for n in entries] * (k_users // len(entries))


def user_rates(channels, beamformers, noise_powers) -> np.ndarray:
    """Per-user achievable rates, summed over subcarriers.

    ``channels[k]`` is (Nr, Nt) or (M, Nr, Nt); ``beamformers[k]`` is
    (Nt, v_k) or (M, Nt, v_k); ``noise_powers`` is a real scalar or one
    real value per user.  Every 3-D channel and beamformer must hold the
    same M subcarriers; a 2-D one is shared across all M (M = 1 when every
    array is 2-D).  Interference from other users' beams is treated as
    noise.

    Raises ``DomainError`` naming the bad argument when there is no user,
    the beamformer count differs from the user count, ``noise_powers`` has
    the wrong length, an entry that is no real number (a bool, string,
    bytes, complex or None) or a value that is not positive and finite, an
    array is neither 2-D nor 3-D, the subcarrier counts or Nt disagree, or
    an array holds a non-finite or non-numeric entry.

    A single user sees no interference, so its signal covariance is divided
    by its noise power; with interference, each user's subcarriers are
    solved against their covariance as one stack.  Either way the log-dets
    are added to the rate one by one in subcarrier order, so the result is
    bit for bit that of a per-subcarrier loop (``np.sum`` would not be).
    """
    k_users = len(channels)
    if k_users == 0:
        raise DomainError("channels must hold at least one user")
    if len(beamformers) != k_users:
        raise DomainError(f"beamformers must hold one block per user, "
                          f"{len(beamformers)} for {k_users} users")
    try:
        noise = _noise_list(noise_powers, k_users)
    except OverflowError:   # an int beyond the largest double
        raise DomainError(f"noise_powers must be positive and finite, "
                          f"got {noise_powers!r}") from None
    if not all(math.isfinite(n) and n > 0 for n in noise):
        raise DomainError(f"noise_powers must be positive and finite, "
                          f"got {noise}")
    # every channel, then every beamformer; a channel holds Nt on its last
    # axis, a beamformer on its second last
    arrays = [np.asarray(a) for a in (*channels, *beamformers)]

    def name(i):
        return (f"channels[{i}]" if i < k_users
                else f"beamformers[{i - k_users}]")

    m_carriers = nt = None
    for i, a in enumerate(arrays):
        if a.ndim not in (2, 3):
            raise DomainError(f"{name(i)} must be 2-D or 3-D, not {a.ndim}-D")
        a_nt = a.shape[-1 if i < k_users else -2]
        if nt is None:
            nt = a_nt
        elif a_nt != nt:
            raise DomainError(f"{name(i)} has Nt = {a_nt}, "
                              f"channels[0] has {nt}")
        if a.ndim == 3 and m_carriers is None:
            m_carriers, m_first = a.shape[0], i
        elif a.ndim == 3 and a.shape[0] != m_carriers:
            raise DomainError(f"{name(i)} has {a.shape[0]} subcarriers, "
                              f"{name(m_first)} has {m_carriers}")
    for i, a in enumerate(arrays):
        if a.dtype.kind not in "biufc" or not np.isfinite(a).all():
            raise DomainError(f"{name(i)} must hold finite numbers")
    if m_carriers is None:
        m_carriers = 1
    stacks = [a if a.ndim == 3 else np.broadcast_to(a, (m_carriers,) + a.shape)
              for a in arrays]
    hs, ws = stacks[:k_users], stacks[k_users:]
    rates = []
    for k in range(k_users):
        eye = _identity(hs[k].shape[1])
        g = hs[k] @ ws[k]
        sig = g @ g.conj().swapaxes(1, 2)
        if k_users == 1:  # the covariance is noise * I: solve(cov) divides
            # in complex arithmetic, as solve does, whatever sig's dtype
            x = np.divide(sig, noise[k], dtype=complex)
        else:
            cov = noise[k] * eye  # + and solve broadcast it over subcarriers
            for i in range(k_users):
                if i != k:
                    g = hs[k] @ ws[i]
                    cov = cov + g @ g.conj().swapaxes(1, 2)
            x = np.linalg.solve(cov, sig)
        _, logdets = np.linalg.slogdet(eye + x)
        rate = 0.0
        for logdet in (logdets / _LOG2).tolist():
            rate += logdet  # subcarrier order: np.sum would change the bits
        rates.append(rate)
    return np.array(rates)


def normalize_power(w: np.ndarray, pt: float) -> np.ndarray:
    """Scale so trace(W W^H) = pt."""
    return normalize_blocks([w], pt)[0]


def normalize_blocks(blocks, pt: float) -> list[np.ndarray]:
    """Scale every user's block by one factor so their total power is pt."""
    power = sum(np.sum(np.abs(w) ** 2) for w in blocks)
    if power == 0:
        raise DomainError("cannot normalize an all-zero beamformer")
    scale = math.sqrt(pt / power)
    return [w * scale for w in blocks]


# ---------------------------------------------------------------------------
# single-user schemes

def su_beamformer(scheme: str, h: np.ndarray, n_streams: int | None = None,
                  xi: float | None = None, pt: float = 1.0,
                  noise_power: float = 1.0) -> np.ndarray:
    """Closed-form SU-MIMO beamformer; columns are per-stream vectors."""
    h = np.asarray(h, dtype=complex)
    scheme = scheme.lower()
    if scheme == "svd":
        _, _, vh = np.linalg.svd(h)
        return vh.conj().T[:, :n_streams or min(h.shape)]
    if scheme == "mrt":
        return h.conj().T
    if scheme in ("zf", "rzf", "mmse"):
        if scheme == "rzf" and xi is None:
            raise DomainError("rzf requires a regularization factor xi")
        return mu_beamformer(scheme, [h], xi=xi, pt=pt,
                             noise_power=noise_power)[0]
    if scheme == "gmd":
        _, _, p = gmd(h)
        return p[:, :n_streams or p.shape[1]]
    raise DomainError(f"unknown SU scheme {scheme!r} (choose from {SU_SCHEMES})")


def _inv_or_raise(a: np.ndarray) -> np.ndarray:
    if np.linalg.cond(a) > 1e12:
        raise SingularityError("channel Gram matrix is singular")
    return np.linalg.inv(a)


def gmd(h: np.ndarray, tol: float = 1e-12):
    """Geometric mean decomposition H = Q R P^H.

    R is upper triangular with every diagonal entry equal to the geometric
    mean of the singular values; Q and P have orthonormal columns.  Built
    from the SVD by pairwise Givens rotations that average the singular
    values without breaking triangularity.
    """
    h = np.asarray(h, dtype=complex)
    u, s, vh = np.linalg.svd(h, full_matrices=False)
    if np.any(s <= tol * s[0]):
        raise SingularityError("GMD requires a full-rank channel")
    k = s.size
    sigma_bar = float(np.exp(np.mean(np.log(s))))
    r = np.diag(s).astype(complex)
    q = u.copy()
    p = vh.conj().T.copy()
    for i in range(k - 1):
        d1 = float(np.real(r[i, i]))
        # pick a partner so sigma_bar lies between the pair
        tail = np.real(np.diag(r)[i + 1:])
        j = (i + 1 + int(np.argmin(tail)) if d1 >= sigma_bar
             else i + 1 + int(np.argmax(tail)))
        if j != i + 1:
            perm = list(range(k))
            perm[i + 1], perm[j] = perm[j], perm[i + 1]
            r = r[perm][:, perm]
            q = q[:, perm]
            p = p[:, perm]
        d1 = float(np.real(r[i, i]))
        d2 = float(np.real(r[i + 1, i + 1]))
        if abs(d1 - d2) < tol * sigma_bar:
            c, t = 1.0, 0.0
        else:
            c = math.sqrt(min(1.0, max(0.0, (sigma_bar**2 - d2**2)
                                       / (d1**2 - d2**2))))
            t = math.sqrt(max(0.0, 1.0 - c * c))
        g1 = np.array([[c, -t], [t, c]])
        g2 = np.array([[c * d1 / sigma_bar, -t * d2 / sigma_bar],
                       [t * d2 / sigma_bar, c * d1 / sigma_bar]])
        r[:, [i, i + 1]] = r[:, [i, i + 1]] @ g1
        r[[i, i + 1], :] = g2.T @ r[[i, i + 1], :]
        q[:, [i, i + 1]] = q[:, [i, i + 1]] @ g2
        p[:, [i, i + 1]] = p[:, [i, i + 1]] @ g1
        r[i + 1, i] = 0.0  # exact zero by construction
    return q, r, p


# ---------------------------------------------------------------------------
# multi-user schemes

def _stack(channels) -> np.ndarray:
    return np.vstack([np.asarray(h, dtype=complex) for h in channels])


def _split_columns(w, channels):
    blocks = []
    col = 0
    for h in channels:
        nr = np.asarray(h).shape[0]
        blocks.append(w[:, col:col + nr])
        col += nr
    return blocks


def mu_beamformer(scheme: str, channels, n_streams: int | None = None,
                  xi: float = 0.0, pt: float = 1.0, noise_power=1.0,
                  priorities=None, n_iter: int = 100, tol: float = 1e-8,
                  rng: np.random.Generator | None = None):
    """Multi-user beamformer; returns a list of per-user column blocks."""
    scheme = scheme.lower()
    channels = [np.asarray(h, dtype=complex) for h in channels]
    if scheme in ("zf", "rzf", "mmse"):
        h = _stack(channels)
        if scheme == "zf":
            w = h.conj().T @ _inv_or_raise(h @ h.conj().T)
        else:
            reg = xi if scheme == "rzf" else float(np.mean(noise_power)) / pt
            w = h.conj().T @ np.linalg.inv(
                h @ h.conj().T + reg * np.eye(h.shape[0]))
        return _split_columns(w, channels)
    if scheme == "ezf":
        return ezf_beamformer(channels, n_streams or 1, xi)
    if scheme == "bd":
        return bd_beamformer(channels, n_streams)
    if scheme == "wmmse":
        w, _ = wmmse_beamformer(channels, pt=pt, noise_power=noise_power,
                                priorities=priorities, n_streams=n_streams,
                                n_iter=n_iter, tol=tol, rng=rng)
        return w
    raise DomainError(f"unknown MU scheme {scheme!r} (choose from {MU_SCHEMES})")


def ezf_beamformer(channels, n_streams: int, xi: float = 0.0):
    """Eigen zero-forcing: per-user dominant right singular vectors,
    aggregated and jointly inverted."""
    vs = []
    for h in channels:
        _, _, vh = np.linalg.svd(h)
        vs.append(vh.conj().T[:, :n_streams])
    v_eff = np.hstack(vs)
    w = v_eff @ np.linalg.inv(
        v_eff.conj().T @ v_eff + xi * np.eye(v_eff.shape[1]))
    return [w[:, k * n_streams:(k + 1) * n_streams] for k in range(len(channels))]


def bd_beamformer(channels, n_streams: int | None = None):
    """Block diagonalization: project each user into the others' null space."""
    k_users = len(channels)
    nt = channels[0].shape[1]
    blocks = []
    for k in range(k_users):
        others = [channels[i] for i in range(k_users) if i != k]
        h_bar = _stack(others)
        rank = np.linalg.matrix_rank(h_bar, tol=1e-10)
        null_dim = nt - rank
        streams = n_streams or min(channels[k].shape[0], null_dim)
        if null_dim < max(streams, 1):
            raise FeasibilityError(
                f"user {k}: interference channel leaves a {null_dim}-dim null "
                f"space, {streams} streams requested")
        _, _, vh = np.linalg.svd(h_bar)
        v0 = vh.conj().T[:, rank:]
        h_eff = channels[k] @ v0
        _, _, vh_eff = np.linalg.svd(h_eff)
        v1 = vh_eff.conj().T[:, :streams]
        blocks.append(v0 @ v1)
    return blocks


def wmmse_beamformer(channels, pt: float = 1.0, noise_power=1.0,
                     priorities=None, n_streams: int | None = None,
                     n_iter: int = 100, tol: float = 1e-8,
                     rng: np.random.Generator | None = None):
    """Iterative weighted-MMSE beamforming for weighted sum-rate maximization.

    Alternates the receive combiner, the MSE-weight matrix, and the transmit
    beamformer, then scales to the power budget.  Returns (per-user blocks,
    per-iteration weighted sum rates of the power-normalized beamformer).
    """
    channels = [np.asarray(h, dtype=complex) for h in channels]
    k_users = len(channels)
    nt = channels[0].shape[1]
    noise = np.broadcast_to(np.asarray(noise_power, dtype=float), (k_users,))
    chi = np.ones(k_users) if priorities is None else np.asarray(priorities,
                                                                 dtype=float)
    rng = rng or np.random.default_rng(0)
    d = n_streams or min(min(h.shape[0] for h in channels), nt)
    w_blocks = [rng.standard_normal((nt, d)) + 1j * rng.standard_normal((nt, d))
                for _ in range(k_users)]
    total = math.sqrt(sum(np.sum(np.abs(w) ** 2) for w in w_blocks))
    w_blocks = [w * math.sqrt(pt) / total for w in w_blocks]

    def wsr(blocks):
        return float(np.dot(chi, user_rates(channels, blocks, noise)))

    history = [wsr(normalize_blocks(w_blocks, pt))]
    for _ in range(n_iter):
        w_full = np.hstack(w_blocks)
        gram = w_full @ w_full.conj().T
        combiners = []
        weights = []
        for k in range(k_users):
            h = channels[k]
            gamma1 = noise[k] / pt * float(np.real(np.trace(gram)))
            c = np.linalg.solve(h @ gram @ h.conj().T
                                + gamma1 * np.eye(h.shape[0]),
                                h @ w_blocks[k])
            b = np.linalg.inv(np.eye(d) - w_blocks[k].conj().T @ h.conj().T @ c)
            combiners.append(c)
            weights.append(b)
        gamma2 = sum(chi[k] * noise[k] / pt
                     * float(np.real(np.trace(combiners[k] @ weights[k]
                                              @ combiners[k].conj().T)))
                     for k in range(k_users))
        m = gamma2 * np.eye(nt, dtype=complex)
        for k in range(k_users):
            hc = channels[k].conj().T @ combiners[k]
            m += chi[k] * hc @ weights[k] @ hc.conj().T
        m_inv = np.linalg.inv(m)
        w_blocks = [chi[k] * m_inv @ channels[k].conj().T
                    @ combiners[k] @ weights[k] for k in range(k_users)]
        history.append(wsr(normalize_blocks(w_blocks, pt)))
        if abs(history[-1] - history[-2]) < tol:
            break
    return normalize_blocks(w_blocks, pt), history


# ---------------------------------------------------------------------------
# power allocation

def waterfilling(gains, pt: float):
    """Water-filling over parallel channels with SNR gains lambda_i^2.

    Returns (powers, water level mu); active channels satisfy
    P_i + 1/lambda_i^2 = mu and the powers sum exactly to pt.
    """
    g = np.asarray(gains, dtype=float)
    if np.any(g < 0):
        raise DomainError("channel gains must be nonnegative")
    if pt <= 0:
        raise DomainError("total power must be positive")
    powers = np.zeros_like(g)
    usable = np.flatnonzero(g > 0)
    if usable.size == 0:
        raise DomainError("no usable channel")
    order = usable[np.argsort(g[usable])[::-1]]
    inv = 1.0 / g[order]
    mu = 0.0
    active = 0
    for k in range(order.size, 0, -1):
        mu = (pt + inv[:k].sum()) / k
        if mu >= inv[k - 1]:
            active = k
            break
    powers[order[:active]] = mu - inv[:active]
    return powers, mu


def harmonic_mean_allocation(gains, pt: float) -> np.ndarray:
    """Maximize the harmonic mean of P_i * lambda_i^2: P_i proportional to
    1/lambda_i."""
    lam = np.sqrt(np.asarray(gains, dtype=float))
    if np.any(lam <= 0):
        raise DomainError("harmonic allocation requires positive gains")
    if pt <= 0:
        raise DomainError("total power must be positive")
    beta = pt / np.sum(1.0 / lam)
    return beta / lam


def qos_power_allocation(gains, targets, cross_gains, noise_power: float,
                         tol: float = 1e-10, max_iter: int = 100_000):
    """Fixed point of P_i = (gamma_i / lambda_i^2) (sum_{j!=i} P_j |h_ij|^2
    + sigma^2); diverges (raises) when the targets are infeasible."""
    g = np.asarray(gains, dtype=float)
    gamma = np.asarray(targets, dtype=float)
    cross = np.asarray(cross_gains, dtype=float)
    n = g.size
    if cross.shape != (n, n):
        raise DomainError("cross_gains must be (n, n)")
    a = (gamma / g)[:, None] * cross
    np.fill_diagonal(a, 0.0)
    b = gamma * noise_power / g
    radius = float(np.max(np.abs(np.linalg.eigvals(a))))
    if radius >= 1.0:
        raise FeasibilityError(
            f"SINR targets infeasible (iteration spectral radius {radius:.3f})")
    p = b.copy()
    for _ in range(max_iter):
        p_next = a @ p + b
        if np.max(np.abs(p_next - p)) < tol:
            return p_next
        p = p_next
    raise FeasibilityError("QoS fixed point did not converge")


def achieved_sinr(powers, gains, cross_gains, noise_power: float) -> np.ndarray:
    p = np.asarray(powers, dtype=float)
    g = np.asarray(gains, dtype=float)
    cross = np.asarray(cross_gains, dtype=float)
    interference = cross @ p - np.diag(cross) * p
    return p * g / (interference + noise_power)
