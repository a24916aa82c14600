"""Random multipath OFDM MIMO channels and UE-side codebook search.

The channel model is a clustered geometric model (non-normative): each path
has a complex gain, a continuous transmit direction on the oversampled beam
grid, a delay, and a Doppler shift.  The second polarization reuses the path
geometry with independent phases scaled by a cross-coupling factor.

The release searches follow one recipe: project the per-unit channels onto
wideband receive directions, select beams/ports by projected energy, DFT
across frequency units (and slot intervals) to the delay (Doppler) domain,
keep the strongest taps (shifts), and quantize the surviving coefficients
under the nonzero-coefficient budget.
"""

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from . import enhanced, type2_r16, type2_r17, type2_r18
from .bases import ArrayGeometry, orthogonal_groups
from .combinadics import encode_combination, is_index
from .errors import DegenerateReportError, DomainError
from .quantization import R15_WB_AMPS, quantize_nearest, quantize_phase


@dataclass(frozen=True)
class ChannelModel:
    """Clustered geometric multipath model over the logical antenna array."""

    n_paths: int = 4
    delay_spread: float = 1e-6        # seconds
    doppler_max: float = 0.0          # Hz
    subcarrier_spacing: float = 15e3  # Hz
    n_subcarriers: int = 12
    cross_pol: float = 0.5
    seed: int = 0

    def __post_init__(self):
        _check_int("n_paths", self.n_paths, 1)
        _check_int("n_subcarriers", self.n_subcarriers, 1)
        _check_int("seed", self.seed, 0)
        for name in ("delay_spread", "doppler_max", "subcarrier_spacing",
                     "cross_pol"):
            _check_real(name, getattr(self, name))


def _check_int(name: str, value, low: int) -> None:
    if not (is_index(value) and value >= low):
        raise DomainError(f"{name}={value!r} must be an integer >= {low}")


def _check_real(name: str, value) -> None:
    if not (isinstance(value, Real) and math.isfinite(value) and value >= 0):
        raise DomainError(f"{name}={value!r} must be a finite nonnegative "
                          "number")


def _check_draw(nr, trial, n4, interval_duration) -> None:
    """Reject draw_channel arguments that would give an empty or
    meaningless channel, naming the bad one."""
    _check_int("nr", nr, 1)
    _check_int("n4", n4, 1)
    _check_int("trial", trial, 0)
    _check_real("interval_duration", interval_duration)


@dataclass(frozen=True)
class ChannelRealization:
    """Per-interval, per-subcarrier channels h with shape (N4, M, Nr, P)."""

    h: np.ndarray

    @property
    def h1(self) -> np.ndarray:
        return self.h[..., :self.h.shape[-1] // 2]

    @property
    def h2(self) -> np.ndarray:
        return self.h[..., self.h.shape[-1] // 2:]

    @property
    def flat(self) -> np.ndarray:
        """Single-interval view (M, Nr, P); requires N4 = 1."""
        if self.h.shape[0] != 1:
            raise DomainError("channel has multiple intervals")
        return self.h[0]


def _tx_response(geom: ArrayGeometry, x1, x2) -> np.ndarray:
    """Array responses at continuous beam coordinates, vertical fastest:
    shape S + (N1*N2,) for coordinates x1, x2 of one shape S."""
    x1, x2 = np.asarray(x1)[..., None], np.asarray(x2)[..., None]
    a = np.exp(2j * np.pi * x1 * np.arange(geom.n1) / geom.beams_h)
    u = np.exp(2j * np.pi * x2 * np.arange(geom.n2) / geom.beams_v)
    return (a[..., :, None] * u[..., None, :]).reshape(x1.shape[:-1] + (-1,))


def draw_channel(model: ChannelModel, geom: ArrayGeometry, nr: int,
                 trial: int = 0, n4: int = 1,
                 interval_duration: float = 5e-4) -> ChannelRealization:
    """Deterministic channel draw for (seed, trial); see the module model.

    Each path draws, in this order: 4 uniforms (x1, x2, delay, Doppler),
    2Nr + 2 normals (the receive signature's real then imaginary parts,
    then the gain g1) and 1 uniform (the phase of g2).  The paths' terms
    are added to a zero channel in draw order.
    """
    _check_draw(nr, trial, n4, interval_duration)
    rng = np.random.default_rng([model.seed, trial])
    n_paths, half, m = model.n_paths, geom.n_ports // 2, model.n_subcarriers
    uniforms = np.empty((n_paths, 4))
    normals = np.empty((n_paths, 2 * nr + 2))
    phases = np.empty(n_paths)
    for k in range(n_paths):
        uniforms[k] = rng.random(4)
        normals[k] = rng.standard_normal(2 * nr + 2)
        phases[k] = rng.random()
    low = np.array([0.0, 0.0, 0.0, -model.doppler_max])
    high = np.array([geom.beams_h, geom.beams_v, model.delay_spread,
                     model.doppler_max])
    # the arithmetic of rng.uniform(low, high), for every path at once
    x1, x2, delay, doppler = (low + (high - low) * uniforms).T
    a_rx = normals[:, :nr] + 1j * normals[:, nr:2 * nr]
    # one norm per signature: a norm along an axis rounds differently
    a_rx /= np.array([np.linalg.norm(r) for r in a_rx])[:, None]
    # normalized so the expected squared Frobenius norm per unit is Nt*Nr
    gain_var = 2 * nr / ((1 + model.cross_pol**2) * n_paths)
    # Python-scalar gains: numpy's complex loops round differently
    gains = []
    for (re, im), phase in zip(normals[:, -2:].tolist(), phases.tolist()):
        g1 = math.sqrt(gain_var / 2) * complex(re, im)
        gains.append((g1, model.cross_pol * abs(g1)
                      * np.exp(2j * np.pi * phase)))
    freq_phase = np.exp(-2j * np.pi * delay[:, None]
                        * model.subcarrier_spacing * np.arange(m))
    time_phase = np.exp(2j * np.pi * doppler[:, None] * interval_duration
                        * np.arange(n4))
    # (path, N4, M, pol) weights times (path, Nr, P/2) outer products
    weights = (np.array(gains)[:, None, None, :]
               * (time_phase[:, :, None] * freq_phase[:, None, :])[..., None])
    outer = a_rx[:, :, None] * _tx_response(geom, x1, x2).conj()[:, None]
    terms = weights[..., None, :, None] * outer[:, None, None, :, None, :]
    h = np.zeros((n4, m, nr, 2, half), dtype=complex)
    for term in terms:
        h += term
    return ChannelRealization(h=h.reshape(n4, m, nr, 2 * half))


def effective_channel(h1: np.ndarray, h2: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Beam-domain channel [H1 F, H2 F] for full-connect port beamforming."""
    h1 = np.asarray(h1)
    h2 = np.asarray(h2)
    f = np.asarray(f)
    if h1.shape != h2.shape or h1.shape[-1] != f.shape[0]:
        raise DomainError(
            f"dimension mismatch: H halves {h1.shape}/{h2.shape}, F {f.shape}")
    return np.concatenate([h1 @ f, h2 @ f], axis=-1)


# ---------------------------------------------------------------------------
# shared search helpers

def _rx_directions(h: np.ndarray, rank: int) -> np.ndarray:
    """Dominant wideband receive directions as rows, shape (rank, Nr)."""
    nr = h.shape[-2]
    if rank > nr:
        raise DomainError(f"rank {rank} exceeds {nr} receive antennas")
    cov = np.einsum("nmrp,nmsp->rs", h, h.conj())
    _, vecs = np.linalg.eigh(cov)
    return vecs[:, ::-1][:, :rank].T


def _targets(h: np.ndarray, rank: int) -> np.ndarray:
    """Matched-filter targets H^H u_l, shape (rank, N4, M, P).

    A common receive direction per layer keeps the relative phases across
    frequency units and intervals, preserving the delay and Doppler
    sparsity that per-unit eigenvectors would scramble.
    """
    u = _rx_directions(h, rank)
    return np.einsum("lr,nmrp->lnmp", u, h.conj())


def _beam_projections(targets: np.ndarray, basis: np.ndarray,
                      gain: float) -> np.ndarray:
    """Coefficients of both polarization halves, shape (..., 2L) for
    targets (..., P)."""
    half = targets.shape[-1] // 2
    b1 = np.einsum("pl,...p->...l", basis.conj(), targets[..., :half]) / gain
    b2 = np.einsum("pl,...p->...l", basis.conj(), targets[..., half:]) / gain
    return np.concatenate([b1, b2], axis=-1)


def _group_energy(targets: np.ndarray, geom: ArrayGeometry) -> np.ndarray:
    """The group scan: the energy of targets (..., P) on every beam of every
    orthogonal group, both polarization halves summed, (O1, O2, N1*N2).

    The beams of a group are orthogonal, so its best L beams capture its L
    largest energies.
    """
    rows = targets.reshape(-1, geom.n1 * geom.n2)
    return (np.abs(rows @ orthogonal_groups(geom).conj()) ** 2).sum(axis=-2)


def _group_scores(energy: np.ndarray, l: int) -> np.ndarray:
    """Each group's score: the energy of its L strongest beams, (O1, O2)."""
    return np.sort(energy, axis=-1)[..., -l:].sum(axis=-1)


def _tied_groups(energy: np.ndarray, l: int) -> list[tuple[int, int]]:
    """Tie rule: every group (q1, q2), in order, whose score is within 1e-9
    (relative) of the best.

    Degenerate beam combinations are exactly representable in several
    groups, so ties are real; every tied group gets a full evaluation.
    """
    score = _group_scores(energy, l)
    return [(int(q1), int(q2))
            for q1, q2 in np.argwhere(score >= score.max() * (1 - 1e-9))]


def _fit(unit: np.ndarray, ws: np.ndarray) -> float:
    """A report's fit: the summed squared correlations between unit-norm
    targets (rank, N4, T, P) and the layers of its precoders (T, N4, P,
    rank), where T counts subbands or frequency units.  Precoders
    (T, P, rank) have one slot interval."""
    if ws.ndim == 3:
        ws = ws[:, None]
    corr = np.einsum("lntp,tnpl->tnl", unit.conj(), ws)
    return float((np.abs(corr) ** 2).sum())


def _first_best(candidates, fit):
    """Tie rule of every search: the first candidate whose fit beats the
    best so far, from -inf, by more than 1e-12 (None if there is none)."""
    best, best_fit = None, -np.inf
    for candidate in candidates:
        value = fit(candidate)
        if value > best_fit + 1e-12:
            best, best_fit = candidate, value
    return best


def _choose(candidates, targets):
    """The report of the best candidate, each None (skipped) or (report,
    precoders) where ``precoders()`` builds the report's precoders from the
    parts the search already holds.  A lone candidate is returned without a
    fit; among several, ``_first_best`` keeps the best fit to ``targets``.
    None when no candidate remains."""
    found = [c for c in candidates if c is not None]
    if len(found) < 2:
        return found[0][0] if found else None
    unit = targets / np.linalg.norm(targets, axis=-1, keepdims=True)
    best = _first_best(found, lambda c: _fit(unit, c[1]()))
    return None if best is None else best[0]


def _pick_beams(l: int, energy: np.ndarray, beam_cap: np.ndarray) -> np.ndarray:
    """Beam rule: the L beams of highest energy, ties toward the lowest
    index, zero caps last.  The strongest coefficient needs a cap-free beam:
    when no pick has one, the best cap-free beam replaces the weakest."""
    order = np.argsort(-np.where(beam_cap == 0, -1.0, energy), kind="stable")
    free = order[beam_cap[order] == 1]
    if (beam_cap[order[:l]] < 1).all() and free.size:
        return np.append(order[:l - 1], free[0])
    return order[:l]


def _search_groups(config, scan, targets, finish, caps=None):
    """The spatial stage W1 of every Type II search: scan the groups with
    ``scan``, pick L beams in each tied group q (under ``caps``, an (O1N1,
    O2N2) grid, all ones when None), ``finish(q, i12, beams, beam_caps)``
    each pick into a candidate for ``_choose`` (None for a report the
    codebook rejects), and keep the best fit to ``targets``.  A
    port-selection config has one candidate: the port block that carries
    the most energy of ``scan``, with no i12 and no caps."""
    if config.variant != enhanced.REGULAR:
        i11 = _pick_port_block(scan, config.p_csirs, config.l, config.d)
        return _choose([finish(i11, None, enhanced.port_block(config, i11),
                               np.ones(config.l))], targets)
    g, l = config.geom, config.l
    n = g.n1 * g.n2
    energy = _group_energy(scan, g)
    flat = np.arange(n)
    if caps is None:
        caps = np.ones((g.beams_h, g.beams_v))

    def candidate(q):
        beam_cap = caps[enhanced.grid_coordinates(g, q, flat)]
        flats = np.sort(_pick_beams(l, energy[q], beam_cap))
        return finish(q, encode_combination(flats.tolist(), n, l),
                      orthogonal_groups(g)[q][:, flats], beam_cap[flats])

    return _choose(map(candidate, _tied_groups(energy, l)), targets)


def _pick_port_block(targets: np.ndarray, p_csirs: int, l: int,
                     d: int) -> int:
    """Port-selection i11: the block of L ports, starting at a multiple of
    d, that carries the most energy of targets (..., P) in both halves."""
    half = p_csirs // 2
    per_port = (np.abs(targets.reshape(-1, half)) ** 2).sum(axis=0)
    starts = np.arange(0, half - l + 1, d)
    return int(np.argmax(per_port[starts[:, None] + np.arange(l)].sum(axis=1)))


def _quantize_layers(config, coefs):
    """Quantize every layer's (K, Mv, Q) coefficient grid against the
    Rel-16 amplitude tables, all layers in one array pass; returns (i18,
    bitmap, k1, k2, c) with arrays of ``config.coef_shape``.

    Per layer, the largest coefficient in the slots that may hold the
    strongest one is the reference: the grid is turned by its phase and
    scaled by its magnitude.  Budget: each layer reports at most
    ``enhanced.layer_cap`` coefficients, the reference first, then by
    magnitude.
    """
    rank, l = config.rank, config.l
    rows = np.arange(rank)
    tail = np.stack(coefs).reshape(rank, 2 * l, -1)    # (rank, K, Mv*Q)
    # the (Mv, Q) slots that may hold the strongest coefficient
    slots = np.zeros(coefs[0].shape[1:], dtype=bool)
    slots[enhanced.strongest_cell(config, 0, slice(None))[1:]] = True
    mag = np.abs(tail)
    star_mag = np.round(mag, 12)
    star_mag[:, :, ~slots.reshape(-1)] = -1.0
    star = star_mag.reshape(rank, -1).argmax(axis=1)   # flat (K, Mv*Q) cell
    scale = mag.reshape(rank, -1)[rows, star]
    if (scale == 0).any():
        raise DomainError("no usable coefficient at the reference tap")
    turn = np.exp(-1j * np.angle(tail.reshape(rank, -1)[rows, star]))
    tail = tail * turn[:, None, None]
    mag = np.abs(tail) / scale[:, None, None]
    i_star, t_star = np.divmod(star, tail.shape[2])
    p_star = i_star // l
    k1 = np.ones((rank, 2), dtype=int)
    k1[rows, p_star] = 15
    other = 1 - p_star
    other_max = mag.reshape(rank, 2, -1).max(axis=2)[rows, other]
    k1[rows, other] = np.where(
        other_max > 0, quantize_nearest(np.minimum(other_max, 1.0),
                                        enhanced.WB_AMPS[1:]) + 1, 1)
    ratio = mag / np.repeat(enhanced.WB_AMPS[k1], l, axis=1)[:, :, None]
    k2 = quantize_nearest(np.minimum(ratio, 1.0), enhanced.SB_AMPS)
    keep = (ratio >= enhanced.SB_AMPS[0] / 2).reshape(rank, -1)
    keep[rows, star] = True
    # budget: each layer's limit, from what the earlier layers report
    kept, left = keep.sum(axis=1), 2 * config.k0
    limit = np.empty(rank, dtype=int)
    for layer in rows:
        limit[layer] = enhanced.layer_cap(config, layer, left)
        left -= min(kept[layer], limit[layer])
    over = np.flatnonzero(kept > limit)
    if over.size:
        # a layer over its limit keeps the reference and the limit - 1
        # largest other kept cells
        at = over[:, None]
        order = np.argsort(mag.reshape(rank, -1)[over], axis=1)[:, ::-1]
        ranked = keep[at, order] & (order != star[at])
        ranked &= np.cumsum(ranked, axis=1) < limit[at]
        keep[at, order] = ranked
        keep[over, star[over]] = True
    phases = quantize_phase(np.angle(tail), enhanced.N_PSK16).reshape(rank, -1)
    k2 = np.where(keep, k2.reshape(rank, -1), 0)
    c = np.where(keep, phases, 0)
    k2[rows, star] = 7
    c[rows, star] = 0
    shape = config.coef_shape
    bitmap = keep.astype(np.int8).reshape(shape)
    # the strongest coefficient's position along its free axis
    s_star = np.unravel_index(t_star, slots.shape)[config.strongest_axis - 1]
    i18 = tuple(enhanced.encode_strongest(config, bitmap[layer], i_star[layer],
                                          s_star[layer]) for layer in rows)
    return i18, bitmap, k1, k2.reshape(shape), c.reshape(shape)


def _pick_taps(ref_metric: np.ndarray, energy: np.ndarray, config):
    """Reference tap (strongest coefficient) plus the best representable
    companions by energy; returns (ref, relative taps in decode order,
    M_init)."""
    mv, n3 = config.mv, config.n3
    ref = int(np.argmax(np.round(ref_metric, 12)))
    rel_energy = np.roll(energy, -ref)
    if mv == 1:
        return ref, (0,), 0
    if not config.window_mode or 2 * mv >= n3:
        # a window of 2Mv >= N3 taps at M_initial = 0 covers every tap
        rest = np.sort(np.argsort(rel_energy[1:])[::-1][:mv - 1] + 1)
        return ref, (0,) + tuple(int(t) for t in rest), 0
    # signed relative position; the window [M_init, M_init + 2Mv - 1] must
    # cover every pick and contain 0
    signed = {}
    for rel in range(1, n3):
        s = rel if rel <= 2 * mv - 1 else rel - n3
        if -2 * mv + 1 <= s <= 2 * mv - 1:
            signed[rel] = s
    order = sorted(signed, key=lambda rel: -rel_energy[rel])
    chosen: list[int] = []
    lo = hi = 0
    for rel in order:
        if len(chosen) == mv - 1:
            break
        s = signed[rel]
        new_lo, new_hi = min(lo, s), max(hi, s)
        if new_hi - new_lo <= 2 * mv - 2:
            chosen.append(rel)
            lo, hi = new_lo, new_hi
    m_init = min(0, lo)
    choices = enhanced.tap_choices(config, m_init)
    return ref, (0,) + tuple(sorted(chosen, key=choices.index)), m_init


def _refit_window(ref: int, energy: np.ndarray, config, m_init: int):
    """Best companion taps among ``enhanced.tap_choices`` at M_init, ties
    toward the window start M_init."""
    rel_energy = np.roll(energy, -ref)
    choices = enhanced.tap_choices(config, m_init)
    picks = sorted(choices, key=lambda rel: (-rel_energy[rel],
                                             (rel - m_init) % config.n3))
    return (0,) + tuple(sorted(picks[:config.mv - 1], key=choices.index))


def _search_channel(channel, n_ports, n4=1, n3=None, subbands=1):
    """A search's channel, an array or ``ChannelRealization``, as (N4, M, Nr,
    P); (M, Nr, P) is one interval.  DomainError names a bad shape, P, N4,
    M (not N3, or below the subbands), non-finite entry or all-zero channel."""
    h = np.asarray(getattr(channel, "h", channel))
    h = h[None] if h.ndim == 3 else h
    if h.ndim != 4 or h.shape[0] != n4 or h.shape[-1] != n_ports:
        raise DomainError(f"channel {h.shape} is not (N4={n4}, M, Nr, {n_ports})")
    if n3 not in (None, h.shape[1]):
        raise DomainError(f"M={h.shape[1]} subcarriers, N3={n3} frequency units")
    if h.shape[1] < subbands:
        raise DomainError(f"M={h.shape[1]} subcarriers < {subbands} subbands")
    if h.dtype.kind not in "iufc" or not np.isfinite(h).all():
        raise DomainError("channel has a non-finite or non-numeric entry")
    if not h.any():
        raise DomainError("channel is all zero")
    return h


def search_r16(channel: ChannelRealization, config: type2_r16.R16Config
               ) -> type2_r16.R16Pmi:
    """UE-side Enhanced Type II report selection."""
    h = _search_channel(channel, config.n_ports, n3=config.n3)
    return _search_enhanced(config, _targets(h, config.rank))


def search_r18(channel: ChannelRealization, config: type2_r18.R18Config
               ) -> type2_r18.R18Pmi:
    """UE-side predicted-PMI report over N4 slot intervals."""
    h = _search_channel(channel, config.n_ports, config.n4, config.n3)
    return _search_enhanced(config, _targets(h, config.rank))


def _search_enhanced(config, targets):
    """The Rel-16/Rel-18 search: ``_finish`` on every tied group (or on the
    one port block) through ``_search_groups``, each report checked by
    ``_candidate``."""
    return _chosen(_search_groups(
        config, targets, targets,
        lambda i11, i12, basis, _: _candidate(
            config, basis, *_finish(config, targets, i11, i12, basis))))


def _candidate(config, basis, pmi, taps, shifts=None):
    """A finished report on the beams ``basis`` as a ``_choose`` candidate,
    its precoders synthesized from the basis and the taps (and shifts) the
    report decodes to; None when the report is degenerate."""
    try:
        ct, gamma = enhanced.tap_stage(config, pmi, taps, shifts)
    except DegenerateReportError:
        return None
    return pmi, lambda: enhanced.basis_stage(config, basis, ct, gamma)


def _chosen(best):
    """The report ``_choose`` kept; raises DegenerateReportError when every
    candidate report was degenerate."""
    if best is None:
        raise DegenerateReportError("every candidate report is degenerate")
    return best


def _finish(config, targets, i11, i12, basis):
    """Shift, tap and coefficient selection for a fixed beam set; returns
    the report with each layer's taps, and shifts (None for Rel-16), as
    the report's i16 and i110 decode to.

    Works on the (2L, Mv, Q) grid of Rel-18; Rel-16 is the case of one slot
    interval and one shift.
    """
    n3 = config.n3
    proj = _beam_projections(targets, basis, enhanced.spatial_gain(config))
    n4 = proj.shape[1]                                  # (rank, N4, M, 2L)
    # 2-D DFT: frequency units -> taps, intervals -> shifts
    spectrum = np.fft.fft(proj, axis=2) / n3
    spectrum = np.fft.fft(spectrum, axis=1) / n4        # (rank, N4, N3, 2L)
    m_first = None
    i16, i110, coefs, taps, shifts = [], [], [], [], []
    for layer in range(config.rank):
        if n4 > 1:
            shift_energy = (np.abs(spectrum[layer]) ** 2).sum(axis=(1, 2))
            second = 1 + int(np.argmax(shift_energy[1:]))
            shifts.append((0, second))
            i110.append(second - 1)
        else:
            shifts.append((0,))
        sub = spectrum[layer][list(shifts[-1])]           # (Q, N3, 2L)
        tap_energy = (np.abs(sub) ** 2).sum(axis=(0, 2))
        tap_peak = np.abs(sub).max(axis=(0, 2))
        ref, rels, m_init = _pick_taps(tap_peak, tap_energy, config)
        if m_first is None:
            m_first = m_init
        elif m_init != m_first:
            # one i15 field serves the whole report: refit later layers
            # inside the window fixed by the first layer (M_init is 0
            # outside window mode)
            m_init = m_first
            rels = _refit_window(ref, tap_energy, config, m_init)
        idx, i15 = enhanced.encode_taps(config, rels, m_init)
        i16.append(idx)
        taps.append(rels)
        abs_taps = [(ref + rel) % n3 for rel in rels]
        # coefficient tensor (2L, Mv, Q): tap index then shift index
        coefs.append(np.stack([s[abs_taps].T for s in sub], axis=-1))
    i18, *arrays = _quantize_layers(config, coefs)
    if len(config.coef_shape) == 4:
        return type2_r18.R18Pmi(i11, i12, i15, tuple(i16), i18,
                                tuple(i110) if n4 > 1 else None,
                                *arrays), taps, shifts
    return (type2_r16.R16Pmi(i11, i12, i15, tuple(i16), i18, *arrays), taps,
            None)


def search_r17(channel: ChannelRealization, config: type2_r17.R17Config
               ) -> type2_r17.R17Pmi:
    """UE-side Further Enhanced port-selection report (beam-domain channel)."""
    h = _search_channel(channel, config.p_csirs, n3=config.n3)
    targets = _targets(h, config.rank)
    half = config.p_csirs // 2
    energy = (np.abs(targets) ** 2).sum(axis=(0, 1, 2))
    per_port = energy[:half] + energy[half:]
    # the searches' beam rule; alpha = 1 (L = P/2) keeps every port
    ports = tuple(np.sort(_pick_beams(config.l, per_port,
                                      np.ones(half))).tolist())
    i12 = type2_r17.encode_ports(config, ports)
    basis = enhanced.port_beams(config.p_csirs, ports)
    proj = _beam_projections(targets, basis, 1.0)[:, 0]   # (rank, M, K1)
    spectrum = np.fft.fft(proj, axis=1) / config.n3

    # M = 1 keeps tap 0, a window of 2 fixes the taps to (0, 1); a wider
    # window reports the strongest second tap in i16
    taps, i16 = tuple(range(config.m)), None
    if config.i16_reported:
        tap_energy = (np.abs(spectrum) ** 2).sum(axis=(0, 2))[:config.window]
        i16 = int(np.argmax(tap_energy[1:]))
        taps = (0, i16 + 1)
    coefs = [spectrum[layer][list(taps)].T[..., None]    # (K1, M, 1)
             for layer in range(config.rank)]
    pmi = type2_r17.R17Pmi(i12, i16, *_quantize_layers(config, coefs))
    return _chosen(_choose([_candidate(config, basis, pmi,
                                       [taps] * config.rank)], targets))


# ---------------------------------------------------------------------------
# spectral efficiency experiment (Type I vs Type II, single polarization)

def _type1_single_pol_gain(h: np.ndarray, beams: list[np.ndarray]) -> float:
    """Beamforming gain of the best single beam of ``beams``."""
    return max(abs(np.vdot(h.conj(), v)) ** 2 for v in beams)


# the experiment's channel paths, and its Type II beams and phase alphabet
SE_PATHS, SE_BEAMS, SE_PSK = 4, 4, 4


def _type2_single_pol_gain(h: np.ndarray, geom: ArrayGeometry) -> float:
    """Beamforming gain of the quantized combination of the best L beams."""
    n = geom.n1 * geom.n2
    target = h.conj()  # the matched beamformer direction
    score = _group_scores(_group_energy(target, geom), SE_BEAMS)
    best_group = orthogonal_groups(geom)[
        _first_best(np.ndindex(score.shape), score.__getitem__)]
    proj = best_group.conj().T @ target / n
    # the searches' beam rule, reversed: weakest first is the order in which
    # best_group[:, picks] @ a_hat has always summed the beams
    picks = _pick_beams(SE_BEAMS, np.abs(proj), np.ones(n))[::-1]
    coef = proj[picks]
    scale = np.abs(coef).max()
    rel = coef / (scale * np.exp(1j * np.angle(coef[np.abs(coef).argmax()])))
    amp_idx = quantize_nearest(np.abs(rel), R15_WB_AMPS)
    phase_idx = quantize_phase(np.angle(rel), SE_PSK)
    a_hat = R15_WB_AMPS[amp_idx] * np.exp(2j * np.pi * phase_idx / SE_PSK)
    w = best_group[:, picks] @ a_hat
    norm = np.linalg.norm(w)
    if norm == 0:
        return 0.0
    return abs(np.vdot(h.conj(), w / norm)) ** 2


def spectral_efficiency_experiment(antenna_configs=((4, 1), (16, 1)),
                                   snr_db=(-10, 0, 10, 20), trials: int = 500,
                                   seed: int = 0) -> list[dict]:
    """Monte-Carlo single-stream, single-polarization comparison.

    The channel has ``SE_PATHS`` paths.  Type I feeds back the single best
    oversampled beam; Type II combines the best L = ``SE_BEAMS`` beams of
    the best group with 3-bit amplitudes, QPSK phases, and no subband
    amplitude.  Returns rows of snr_db, scheme, mean_rate, ci95.
    """
    rows = []
    for n1, n2 in antenna_configs:
        geom = ArrayGeometry.from_antennas(n1, n2)
        # every unit-norm oversampled beam, built once per geometry
        beams = [_tx_response(geom, l, m_v) / math.sqrt(geom.n1 * geom.n2)
                 for l in range(geom.beams_h) for m_v in range(geom.beams_v)]
        model = ChannelModel(n_paths=SE_PATHS, n_subcarriers=1,
                             cross_pol=0.0, seed=seed)
        rates1 = np.zeros((len(snr_db), trials))
        rates2 = np.zeros((len(snr_db), trials))
        for trial in range(trials):
            ch = draw_channel(model, geom, nr=1, trial=trial)
            h = ch.h1[0, 0, 0]  # single polarization slice, (N1*N2,)
            gain1 = _type1_single_pol_gain(h, beams)
            gain2 = _type2_single_pol_gain(h, geom)
            for si, s in enumerate(snr_db):
                snr = 10 ** (s / 10)
                rates1[si, trial] = math.log2(1 + snr * gain1)
                rates2[si, trial] = math.log2(1 + snr * gain2)
        for si, s in enumerate(snr_db):
            for name, r in (("type1", rates1[si]), ("type2", rates2[si])):
                rows.append({
                    "antennas": f"{n1}x{n2}",
                    "snr_db": s,
                    "scheme": name,
                    "mean_rate": float(r.mean()),
                    "ci95": float(1.96 * r.std(ddof=1) / math.sqrt(trials)),
                })
    return rows
