"""Random multipath OFDM MIMO channels and UE-side codebook search.

The channel model (non-normative) adds independent paths: no clusters, no
angle spread and no line-of-sight path.  Each path draws its own transmit
direction, uniform over the whole oversampled beam grid, its own delay,
uniform in [0, delay_spread], its own Doppler shift, uniform in
[-doppler_max, doppler_max], a random unit-norm receive signature and a
complex Gaussian gain.  The second polarization reuses the path geometry
with a gain of cross_pol times the first's magnitude and a uniform phase.

The release searches follow one recipe: project the per-unit channels onto
wideband receive directions, select beams/ports by projected energy, DFT
across frequency units (and slot intervals) to the delay (Doppler) domain,
keep the strongest taps (shifts), and quantize the surviving coefficients
under the nonzero-coefficient budget.
"""

import bisect
import functools
import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from . import enhanced, type2_r16, type2_r17, type2_r18
from .bases import ArrayGeometry, orthogonal_groups
from .combinadics import check_int, encode_combination
from .errors import DegenerateReportError, DomainError
from .quantization import R15_WB_AMPS, quantize_nearest, quantize_phase

# the Rel-16 wideband amplitudes k1 = 1..15 as Python floats
_WB_AMPS = enhanced.WB_AMPS[1:].tolist()


@dataclass(frozen=True)
class ChannelModel:
    """Multipath model over the logical antenna array: ``n_paths``
    independent paths, each with a uniform transmit direction on the beam
    grid, a uniform delay and Doppler shift and a Gaussian gain (see the
    module docstring); no clusters and no angle spread."""

    n_paths: int = 4
    delay_spread: float = 1e-6        # seconds
    doppler_max: float = 0.0          # Hz
    subcarrier_spacing: float = 15e3  # Hz
    n_subcarriers: int = 12
    cross_pol: float = 0.5
    seed: int = 0

    def __post_init__(self):
        check_int("n_paths", self.n_paths, 1)
        check_int("n_subcarriers", self.n_subcarriers, 1)
        check_int("seed", self.seed, 0)
        for name in ("delay_spread", "doppler_max", "subcarrier_spacing",
                     "cross_pol"):
            _check_real(name, getattr(self, name))


def _check_real(name: str, value) -> None:
    if not (isinstance(value, Real) and not isinstance(value, bool)
            and math.isfinite(value) and value >= 0):
        raise DomainError(f"{name}={value!r} must be a finite nonnegative "
                          "number")


def _check_draw(nr, trial, n4, interval_duration) -> None:
    """Reject draw_channel arguments that would give an empty or
    meaningless channel, naming the bad one."""
    check_int("nr", nr, 1)
    check_int("n4", n4, 1)
    check_int("trial", trial, 0)
    _check_real("interval_duration", interval_duration)


@dataclass(frozen=True)
class ChannelRealization:
    """Per-interval, per-subcarrier channels h with shape (N4, M, Nr, P)."""

    h: np.ndarray

    @property
    def h1(self) -> np.ndarray:
        return self.h[..., :self.h.shape[-1] // 2]

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
    # uniforms[k] holds path k's x1, x2, delay and Doppler, then its g2
    # phase: that phase and path k + 1's first four uniforms are one run
    # of the stream, filled by one call
    uniforms = np.empty(5 * n_paths)
    normals = np.empty((n_paths, 2 * nr + 2))
    rng.random(out=uniforms[:4])
    for k, row in enumerate(normals):
        rng.standard_normal(out=row)
        rng.random(out=uniforms[5 * k + 4:5 * k + 9])
    uniforms = uniforms.reshape(n_paths, 5)
    # the arithmetic of rng.uniform(low, high), for every path at once:
    # low + (high - low) * u with low = 0, or -doppler_max for the Doppler
    span = np.array([geom.beams_h, geom.beams_v, model.delay_spread,
                     2 * model.doppler_max])
    x1, x2, delay, doppler = (uniforms[:, :4] * span).T
    doppler -= model.doppler_max
    a_rx = normals[:, :nr] + 1j * normals[:, nr:2 * nr]
    # each signature's squared norm as np.linalg.norm takes it: a strided
    # ddot over the real parts plus one over the imaginary parts (a ddot
    # over contiguous rows, or a sum of squares, rounds differently)
    square = (a_rx.real[:, None] @ a_rx.real[..., None]
              + a_rx.imag[:, None] @ a_rx.imag[..., None])
    a_rx /= np.sqrt(square[:, 0])
    # normalized so the expected squared Frobenius norm per unit is Nt*Nr
    gain_var = 2 * nr / ((1 + model.cross_pol**2) * n_paths)
    scale = math.sqrt(gain_var / 2)
    # Python-scalar gains: numpy's complex loops round differently
    gains = []
    for (re, im), spin in zip(normals[:, -2:].tolist(),
                              np.exp(2j * np.pi * uniforms[:, 4])):
        g1 = scale * complex(re, im)
        gains.append((g1, model.cross_pol * abs(g1) * spin))
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


# ---------------------------------------------------------------------------
# shared search helpers

def _rx_directions(h: np.ndarray, rank: int) -> np.ndarray:
    """Dominant wideband receive directions as rows, shape (rank, Nr)."""
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


@dataclass(frozen=True)
class _GroupTables:
    """One geometry's orthogonal groups in the layouts the group scan reads;
    built once per geometry, read-only."""

    conj: np.ndarray        # (O1*O2, N1*N2, N1*N2) conjugated groups
    columns: np.ndarray     # (N1*N2, O1*O2*N1*N2) the same beams, side by side
    beam_norm: float        # max ||g_b||^2 over the beams
    grid: tuple[np.ndarray, np.ndarray]   # (l, m), each (O1, O2, N1*N2)


@functools.cache
def _group_tables(geom: ArrayGeometry) -> _GroupTables:
    n = geom.n1 * geom.n2
    conj = orthogonal_groups(geom).conj().reshape(-1, n, n)
    columns = np.ascontiguousarray(conj.transpose(1, 0, 2)).reshape(n, -1)
    q = np.indices((geom.o1, geom.o2))[..., None]
    l, m = enhanced.grid_coordinates(geom, q, np.arange(n))
    for table in (conj, columns, l, m):
        table.flags.writeable = False
    beam_norm = float((np.abs(columns) ** 2).sum(axis=0).max())
    return _GroupTables(conj, columns, beam_norm, (l, m))


def _exact_energy(rows: np.ndarray, conj: np.ndarray) -> np.ndarray:
    """The exact scan kernel: the energy of rows (rows, N1*N2) on every beam
    of the K conjugated groups ``conj`` (K, N1*N2, N1*N2), (K, N1*N2).

    One product per group keeps the shapes BLAS sees; the products land
    row-major, (rows, K, N1*N2), so the sum over rows, in row order, runs
    over long contiguous rows.  A group's energies depend only on its own
    product and sum, so they are the same bits whichever groups ride along.
    """
    products = np.empty((len(rows), len(conj), conj.shape[-1]),
                        dtype=complex)
    np.matmul(rows, conj, out=products.transpose(1, 0, 2))
    energy = np.abs(products)
    energy *= energy
    return np.add.reduce(energy, axis=0)


def _group_energy(targets: np.ndarray, geom: ArrayGeometry) -> np.ndarray:
    """The group scan: the energy of targets (..., P) on every beam of every
    orthogonal group, both polarization halves summed, (O1, O2, N1*N2): the
    exact kernel over every group.

    The beams of a group are orthogonal, so its best L beams capture its L
    largest energies.
    """
    n = geom.n1 * geom.n2
    return _exact_energy(targets.reshape(-1, n),
                         _group_tables(geom).conj).reshape(geom.o1, geom.o2, n)


def _screen_energy(rows: np.ndarray, tables: _GroupTables) -> np.ndarray:
    """The screened energy of rows R (rows, N1*N2) on every beam of every
    group, (O1*O2*N1*N2,): v^H C v for each conjugated beam v of the
    ``columns``, from one Hermitian C = R^H R and one product C @ columns.
    It rounds differently from the exact scan: these energies only screen.
    An energy too large for a double is inf (or nan); ``_contender_energy``
    runs it with overflow warnings off."""
    cv = rows.conj().T @ rows @ tables.columns
    cv *= tables.columns.conj()
    return cv.real.sum(axis=0)


_EPS = np.finfo(float).eps


def _screen_bound(rows: np.ndarray, tables: _GroupTables) -> float:
    """Delta: a bound on |screened - exact| for every beam energy.

    Write the beam's column as v and R's rows as r.  The exact scan rounds
    each product r v within gamma_N |r| |v| (gamma_k about k eps, eps the
    machine epsilon, N = N1*N2), squares it and adds the rows in order, so
    its energy lies within (2N + rows + 3) eps sum_r (|r| |v|)^2 of
    v^H R^H R v, up to the complex-arithmetic constants.  The screen rounds
    C = R^H R within gamma_rows |R|^H |R| entrywise, then C v and the dot
    with v within gamma_N each, so its energy lies within
    (rows + 2N) eps |v|^T |R|^H |R| |v| of it, up to the same constants.
    By Cauchy-Schwarz, row by row, sum_r (|r| |v|)^2 <= ||R||_F^2 ||v||^2.
    Together,
    Delta = c (rows + 2 N1N2) eps ||R||_F^2 max_b ||g_b||^2,
    with c = 16 covering the constants of complex products and sums and
    the rounding of the group scores and of the contender cutoff with room
    to spare: measured errors stay below 2e-2 Delta.  A group's score sums
    L energies, so it lies within L Delta.
    """
    frob = float(np.vdot(rows, rows).real)     # nan when it overflows
    return (16 * (len(rows) + 2 * rows.shape[1]) * _EPS * frob
            * tables.beam_norm)


def _contender_energy(targets: np.ndarray, geom: ArrayGeometry,
                      l: int) -> np.ndarray:
    """The group scan the searches read: ``_group_energy``'s energies, to
    the bit, on every contender group, and -inf on every other group,
    (O1, O2, N1*N2).

    A screen (``_screen_energy``) gives every beam's energy within Delta
    (``_screen_bound``) of the exact one, so every group's screened score
    within L Delta of its exact one.  The best exact score is then at
    least best - L Delta, best the highest screened score, and every group
    ``_tied_groups`` keeps scores at least (best - L Delta)(1 - 1e-9)
    exactly and so at least (best - L Delta)(1 - 1e-9) - L Delta screened.
    Those groups are the contenders, and only they are scanned exactly.
    The best group is among them, so ``_tied_groups`` finds the same tie
    set on these energies as on the full scan's.  A screen, ||R||_F^2 or
    Delta that overflows makes every group a contender.
    """
    n = geom.n1 * geom.n2
    rows = targets.reshape(-1, n)
    tables = _group_tables(geom)
    band = l * _screen_bound(rows, tables)
    with np.errstate(over="ignore", invalid="ignore"):
        score = _group_scores(_screen_energy(rows, tables).reshape(-1, n), l)
        cutoff = (score.max() - band) * (1 - 1e-9) - band
    contenders = (np.flatnonzero(score >= cutoff) if math.isfinite(cutoff)
                  else np.arange(len(score)))
    energy = np.full((len(score), n), -np.inf)
    energy[contenders] = _exact_energy(rows, tables.conj[contenders])
    return energy.reshape(geom.o1, geom.o2, n)


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
    tied = np.flatnonzero(score >= score.max() * (1 - 1e-9)).tolist()
    return [divmod(q, score.shape[1]) for q in tied]


def _fits(unit: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """Each candidate's fit: the summed squared correlations between
    unit-norm targets (rank, N4, T, P) and the layers of its precoders, for
    C candidates' precoders (C, T, N4, P, rank), where T counts subbands or
    frequency units; (C,).  Precoders (C, T, P, rank) have one slot
    interval."""
    if ws.ndim == 4:
        ws = ws[:, :, None]
    corr = np.einsum("lntp,ctnpl->ctnl", unit.conj(), ws)
    return (np.abs(corr) ** 2).reshape(len(ws), -1).sum(axis=1)


def _first_best(candidates, fit):
    """Tie rule of every search: the first candidate whose fit beats the
    best so far, from -inf, by more than 1e-12 (None if there is none)."""
    best, best_fit = None, -np.inf
    for candidate in candidates:
        value = fit(candidate)
        if value > best_fit + 1e-12:
            best, best_fit = candidate, value
    return best


def _choose(reports, precoders, targets):
    """The best of T candidate reports, each None (skipped) or a report
    whose precoders ``precoders(kept)`` builds, for the candidates at the
    indices ``kept``, from the parts the search already holds.  A lone
    report is returned without a fit; among several, ``_first_best`` keeps
    the best fit to ``targets``.  None when no report remains."""
    found = [t for t, report in enumerate(reports) if report is not None]
    if len(found) < 2:
        return reports[found[0]] if found else None
    unit = targets / np.linalg.norm(targets, axis=-1, keepdims=True)
    fits = _fits(unit, precoders(found)).tolist()
    best = _first_best(range(len(found)), fits.__getitem__)
    return None if best is None else reports[found[best]]


def _pick_beams(l: int, energy: np.ndarray, beam_cap: np.ndarray) -> list[int]:
    """Beam rule: the L beams of highest energy, ties toward the lowest
    index, zero caps last.  The strongest coefficient needs a cap-free beam:
    when no pick has one, the best cap-free beam replaces the weakest.
    Runs on Python floats (the same doubles) and a stable sort."""
    caps = beam_cap.tolist()
    value = [-1.0 if cap == 0 else e for cap, e in zip(caps, energy.tolist())]
    order = sorted(range(len(value)), key=lambda i: -value[i])
    free = [i for i in order if caps[i] == 1]
    if free and all(caps[i] < 1 for i in order[:l]):
        return order[:l - 1] + free[:1]
    return order[:l]


def _spatial_picks(config, scan, caps=None):
    """The spatial stage W1 of every Type II search: scan the groups with
    ``scan`` (``_contender_energy``, exact on every group that can tie) and
    pick L beams in each tied group q (under ``caps``, an (O1N1, O2N2)
    grid, all ones when None), in scan order.  Returns the T candidates as
    (i11s, i12s, bases, beam_caps): their groups, combinations, (P/2, L)
    beam sets and the caps of their beams.  A port-selection config has one
    candidate: the port block that carries the most energy of ``scan``,
    with no i12 and no caps."""
    if config.variant != enhanced.REGULAR:
        i11 = _pick_port_block(scan, config)
        return ([i11], [None], [enhanced.port_block(config, i11)],
                [np.ones(config.l)])
    g, l = config.geom, config.l
    n = g.n1 * g.n2
    energy = _contender_energy(scan, g, l)
    grid_l, grid_m = _group_tables(g).grid
    if caps is None:
        caps = np.ones((g.beams_h, g.beams_v))
    groups = _tied_groups(energy, l)
    i12s, bases, beam_caps = [], [], []
    for q in groups:
        beam_cap = caps[grid_l[q], grid_m[q]]
        flats = sorted(_pick_beams(l, energy[q], beam_cap))
        i12s.append(encode_combination(flats, n, l))
        bases.append(orthogonal_groups(g)[q][:, flats])
        beam_caps.append(beam_cap[flats])
    return groups, i12s, bases, beam_caps


def _pick_port_block(targets: np.ndarray, config) -> int:
    """Port-selection i11: the port block (``enhanced.block_ports``) of
    ``config``'s p_csirs, l and d that carries the most energy of targets
    (..., P) in both halves."""
    ports = [enhanced.block_ports(config, i11)
             for i11 in range(enhanced.port_blocks(config))]
    per_port = (np.abs(targets.reshape(-1, config.p_csirs // 2)) ** 2).sum(axis=0)
    return int(np.argmax(per_port[np.array(ports)].sum(axis=1)))


def _quantize_layers(config, coefs):
    """Quantize every layer's (K, Mv, Q) coefficient grid, ``coefs`` of
    shape (rows, K, Mv, Q) for the rank layers of each of rows / rank
    candidates, against the Rel-16 amplitude tables in one array pass;
    returns (i18, bitmap, k1, k2, c), i18 one entry per row and arrays of
    shape (rows,) + ``config.coef_shape[1:]``.

    Per layer, the largest coefficient in the slots that may hold the
    strongest one is the reference: the grid is turned by its phase and
    scaled by its magnitude.  A layer whose reference is exactly zero (a
    channel of lower rank than the config) reports its reference alone.
    Budget: each layer reports at most ``enhanced.layer_cap`` coefficients
    of its candidate's 2*K0, the reference first, then by magnitude.  The
    per-layer scalar steps (the reference cell, the weaker polarization's
    k1, the limits, i18) run on Python floats, which are the same IEEE
    doubles.
    """
    rows_n, l = len(coefs), config.l
    rows = np.arange(rows_n)
    q = coefs.shape[3]
    cells = coefs.shape[2] * q
    tail = coefs.reshape(rows_n, 2 * l, cells)
    mag = np.abs(tail)
    # the reference: the first largest coefficient, in (K, Mv*Q) order, of
    # the slots that may hold the strongest one: any tap at shift 0, every
    # q-th cell (Rel-17), or any shift at tap 0, the first q cells
    if config.strongest_axis == enhanced.TAP_AXIS:
        slots, step = slice(None, None, q), q
    else:
        slots, step = slice(q), 1
    slot_mag = mag[:, :, slots].round(12).reshape(rows_n, -1)
    n_slots = slot_mag.shape[1] // (2 * l)
    # beam i*, and position s* along the free axis, of each layer
    stars = [divmod(p, n_slots) for p in slot_mag.argmax(axis=1).tolist()]
    star = [i * cells + s * step for i, s in stars]   # flat (K, Mv*Q) cell
    ref = tail.reshape(rows_n, -1)[rows, star]
    scale = mag.reshape(rows_n, -1)[rows, star]
    if not scale.all():
        # a zero layer's grid reads as zero: its reference alone is kept,
        # and its weaker polarization's zero maximum gives k1 = 1
        zero = scale == 0
        tail = np.where(zero[:, None, None], 0, tail)
        scale = np.where(zero, 1.0, scale)
    tail = tail * np.exp(-1j * np.angle(ref))[:, None, None]
    mag = np.abs(tail) / scale[:, None, None]
    # k1: 15 on the reference's polarization; the other's largest amplitude
    # to the nearest entry of the table (first on ties), a zero maximum to
    # the smallest, k1 = 1.  The table ascends by 2^(1/4), far more than the
    # rounding of a difference, so the nearest entry is one of the two
    # around the value's bisection point
    pol_max = mag.reshape(rows_n, 2, -1).max(axis=2).tolist()
    k1 = []
    for (i, _), peaks in zip(stars, pol_max):
        value = min(peaks[1 - i // l], 1.0)
        j = bisect.bisect_left(_WB_AMPS, value)
        if j and value - _WB_AMPS[j - 1] <= _WB_AMPS[j] - value:
            j -= 1
        k1.append([15, j + 1] if i < l else [j + 1, 15])
    k1 = np.array(k1)
    ratio = mag / np.repeat(enhanced.WB_AMPS[k1], l, axis=1)[:, :, None]
    k2 = quantize_nearest(np.minimum(ratio, 1.0), enhanced.SB_AMPS)
    keep = (ratio >= enhanced.SB_AMPS[0] / 2).reshape(rows_n, -1)
    keep[rows, star] = True
    # budget: each layer's cap, from what its candidate's earlier layers
    # report; a layer over its cap keeps the reference and the cap - 1
    # largest other kept cells, in the reversed argsort order
    for row, count in enumerate(keep.sum(axis=1).tolist()):
        layer = row % config.rank
        if layer == 0:
            left = 2 * config.k0
        cap = enhanced.layer_cap(config, layer, left)
        left -= min(count, cap)
        if count <= cap:
            continue
        was_kept, chosen = keep[row].tolist(), [star[row]]
        for cell in np.argsort(mag[row].reshape(-1))[::-1].tolist():
            if len(chosen) == cap:
                break
            if was_kept[cell] and cell != star[row]:
                chosen.append(cell)
        keep[row] = False
        keep[row, chosen] = True
    shape = (rows_n,) + config.coef_shape[1:]
    k2 = k2.reshape(rows_n, -1)
    k2 *= keep
    k2[rows, star] = 7
    c = quantize_phase(np.angle(tail), enhanced.N_PSK16).reshape(rows_n, -1)
    c *= keep
    c[rows, star] = 0
    bitmap = keep.astype(np.int8).reshape(shape)
    i18 = tuple(enhanced.encode_strongest(config, bitmap[row], i, s)
                for row, (i, s) in enumerate(stars))
    return i18, bitmap, k1, k2.reshape(shape), c.reshape(shape)


def _pick_taps(rel_energy: np.ndarray, config):
    """Each layer's taps in decode order, (rows, Mv), and each candidate's
    M_initial, from tap energies ``rel_energy`` (rows, N3) of the rank
    layers of each of rows / rank candidates, taken relative to each
    layer's reference tap (relative tap 0, always kept).

    Outside window mode, and with a window of 2Mv >= N3 taps (which at
    M_initial = 0 covers every tap), every layer keeps its Mv - 1 strongest
    other taps.  In window mode each layer greedily takes the strongest
    taps whose signed span fits the window; a candidate's layer 0 picks fix
    its M_initial for the one i15 field, and a later layer whose picks
    would need another M_initial is refit among ``enhanced.tap_choices`` at
    layer 0's, exact energy ties toward the window start.
    """
    rows_n, mv, n3 = rel_energy.shape[0], config.mv, config.n3
    if mv == 1 or not config.window_mode or 2 * mv >= n3:
        m_inits = [0] * (rows_n // config.rank)
        if mv == 1:
            return np.zeros((rows_n, 1), dtype=int), m_inits
        rest = np.argsort(rel_energy[:, 1:], axis=1)[:, ::-1][:, :mv - 1] + 1
        return np.hstack([np.zeros((rows_n, 1), dtype=int),
                          np.sort(rest, axis=1)]), m_inits
    signed = _signed_positions(mv, n3)
    taps, m_inits = [], []
    for row, energy in enumerate(rel_energy.tolist()):
        chosen: list[int] = []
        lo = hi = 0
        for rel, s in sorted(signed, key=lambda pair: -energy[pair[0]]):
            if len(chosen) == mv - 1:
                break
            if max(hi, s) - min(lo, s) <= 2 * mv - 2:
                chosen.append(rel)
                lo, hi = min(lo, s), max(hi, s)
        # lo <= 0 is the M_initial these picks need; layer 0's is the
        # candidate's
        if row % config.rank == 0:
            m_inits.append(lo)
        m_first = m_inits[-1]
        choices, position = enhanced.tap_positions(config, m_first)
        if lo != m_first:
            chosen = sorted(choices, key=lambda rel: (
                -energy[rel], (rel - m_first) % n3))[:mv - 1]
        taps.append([0] + sorted(chosen, key=position.__getitem__))
    return np.array(taps), m_inits


@functools.cache
def _signed_positions(mv: int, n3: int) -> tuple[tuple[int, int], ...]:
    """Window mode's (relative tap, signed position) pairs, relative taps
    ascending: every tap whose signed distance from the reference tap fits
    a window [M_init, M_init + 2Mv - 1] that contains 0."""
    pairs = []
    for rel in range(1, n3):
        s = rel if rel <= 2 * mv - 1 else rel - n3
        if -2 * mv + 1 <= s <= 2 * mv - 1:
            pairs.append((rel, s))
    return tuple(pairs)


def _search_channel(channel, n_ports, n4=1, n3=None, subbands=1, rank=1):
    """A search's channel, an array or ``ChannelRealization``, as (N4, M, Nr,
    P); (M, Nr, P) is one interval.  DomainError names a bad shape, P, N4,
    M (not N3, or below the subbands), a rank above Nr, non-finite entry or
    all-zero channel."""
    h = np.asarray(getattr(channel, "h", channel))
    h = h[None] if h.ndim == 3 else h
    if h.ndim != 4 or h.shape[0] != n4 or h.shape[-1] != n_ports:
        raise DomainError(f"channel {h.shape} is not (N4={n4}, M, Nr, {n_ports})")
    if n3 not in (None, h.shape[1]):
        raise DomainError(f"M={h.shape[1]} subcarriers, N3={n3} frequency units")
    if h.shape[1] < subbands:
        raise DomainError(f"M={h.shape[1]} subcarriers < {subbands} subbands")
    if rank > h.shape[2]:
        raise DomainError(f"rank {rank} exceeds {h.shape[2]} receive antennas")
    if h.dtype.kind not in "iufc" or not np.isfinite(h).all():
        raise DomainError("channel has a non-finite or non-numeric entry")
    if not h.any():
        raise DomainError("channel is all zero")
    return h


def _type2_channel(channel, n_ports, n4=1, n3=None, subbands=1, rank=1):
    """``_search_channel`` for the Type II searches, which also raises
    DomainError naming a channel energy ||H||_F^2 that overflows a double:
    their covariances, targets and scan energies would overflow too.

    The channel is returned scaled by the power of two 2^-e that brings its
    largest magnitude into [1/2, 1).  A power of two scales every product,
    sum, eigendecomposition and square root of the search exactly, so the
    report does not depend on the channel's scale; without it, the
    references picked from magnitudes rounded to 12 absolute decimals
    would.  The scale is applied as two factors, so that each stays finite
    for a subnormal channel.
    """
    h = _search_channel(channel, n_ports, n4, n3, subbands, rank)
    if not math.isfinite(np.vdot(h, h).real):   # nan or inf on overflow
        with np.errstate(over="ignore"):
            energy = float((np.abs(h) ** 2).sum())
        raise DomainError(f"channel energy ||H||_F^2={energy:.3g} overflows "
                          "a double")
    e = math.frexp(float(np.abs(h).max()))[1]
    return h * 2.0 ** -(e // 2) * 2.0 ** -(e - e // 2)


@functools.cache
def _subband_edges(m: int, subbands: int) -> tuple[tuple[int, int], ...]:
    """(first, end) subcarrier of every subband: M split evenly."""
    edges = np.linspace(0, m, subbands + 1).astype(int).tolist()
    return tuple(zip(edges, edges[1:]))


def search_r16(channel: ChannelRealization, config: type2_r16.R16Config
               ) -> type2_r16.R16Pmi:
    """UE-side Enhanced Type II report selection."""
    h = _type2_channel(channel, config.n_ports, n3=config.n3,
                       rank=config.rank)
    return _search_enhanced(config, _targets(h, config.rank))


def search_r18(channel: ChannelRealization, config: type2_r18.R18Config
               ) -> type2_r18.R18Pmi:
    """UE-side predicted-PMI report over N4 slot intervals."""
    h = _type2_channel(channel, config.n_ports, config.n4, config.n3,
                       rank=config.rank)
    return _search_enhanced(config, _targets(h, config.rank))


def _search_enhanced(config, targets):
    """The Rel-16/Rel-18 search: ``_finish`` on every tied group (or on the
    one port block) from ``_spatial_picks`` at once, each report checked by
    ``_candidates``, and the best fit to ``targets`` kept."""
    i11s, i12s, bases, _ = _spatial_picks(config, targets)
    finished = _finish(config, targets, i11s, i12s, bases)
    return _chosen(_choose(*_candidates(config, bases, *finished), targets))


def _candidates(config, bases, reports, layers, taps, shifts=None):
    """T finished reports on the T beam sets ``bases`` as ``_choose``
    input: one tap stage (``enhanced.tap_stage``) on the T*rank ``layers``
    of coefficients, with their taps (and shifts), drops each degenerate
    report (None), and the precoders of the kept candidates are synthesized
    from their bases and that stage's output, each by the basis stage of
    ``reconstruct_all``."""
    ct, gamma, bad = enhanced.tap_stage(config, layers, taps, shifts)
    rank, bad = config.rank, bad.tolist()

    def precoders(kept):
        return np.stack([enhanced.basis_stage(
            config, bases[t], ct[t * rank:(t + 1) * rank],
            gamma[t * rank:(t + 1) * rank]) for t in kept])

    return [None if any(bad[t * rank:(t + 1) * rank]) else report
            for t, report in enumerate(reports)], precoders


def _chosen(best):
    """The report ``_choose`` kept; raises DegenerateReportError when every
    candidate report was degenerate."""
    if best is None:
        raise DegenerateReportError("every candidate report is degenerate")
    return best


def _finish(config, targets, i11s, i12s, bases):
    """Shift, tap and coefficient selection for the (P/2, L) beam sets
    ``bases`` of T candidates (groups ``i11s``, combinations ``i12s``), every
    layer of every candidate in one array pass; returns the T reports, the
    ``enhanced.Coefficients`` of their T*rank layers stacked, and each
    layer's taps (T*rank, Mv) and shifts (T*rank, Q) (None for Rel-16), as
    the reports' i16 and i110 decode to.

    Works on the (2L, Mv, Q) grid of Rel-18; Rel-16 is the case of one slot
    interval and one shift.
    """
    n3, rank, count, l = config.n3, config.rank, len(bases), config.l
    # every candidate's beams as more columns of one projection, then the
    # rows of each candidate's layers: (T*rank, N4, M, 2L)
    proj = _beam_projections(targets, np.concatenate(bases, axis=1),
                             enhanced.spatial_gain(config))
    n4 = proj.shape[1]
    proj = proj.reshape(rank, n4, -1, 2, count, l).transpose(
        4, 0, 1, 2, 3, 5).reshape(count * rank, n4, -1, 2 * l)
    # 2-D DFT: frequency units -> taps, intervals -> shifts.  At N4 = 1 the
    # interval DFT and / N4 are the identity up to the sign of an exact-zero
    # real or imaginary part, which moves np.angle only between pi and -pi
    # or 0 and -0, the same phase index either way
    spectrum = np.fft.fft(proj, axis=2) / n3            # (rows, N4, N3, 2L)
    rows = np.arange(count * rank)[:, None]
    shifts = np.zeros((count * rank, 1), dtype=int)
    if n4 > 1:
        spectrum = np.fft.fft(spectrum, axis=1) / n4
        # beside shift 0, each layer's strongest other shift
        energy = (np.abs(spectrum) ** 2).sum(axis=(2, 3))[:, 1:]
        shifts = np.hstack([shifts, 1 + energy.argmax(axis=1)[:, None]])
    sub = spectrum[rows, shifts]                        # (rows, Q, N3, 2L)
    mag = np.abs(sub)
    tap_energy = (mag ** 2).sum(axis=(1, 3))
    # the reference tap: the strongest coefficient's, taps re-counted from it
    ref = mag.max(axis=(1, 3)).round(12).argmax(axis=1)
    at = (ref[:, None] + np.arange(n3)) % n3
    taps, m_inits = _pick_taps(tap_energy[rows, at], config)
    i16, i15 = zip(*(enhanced.encode_taps(config, rels, m_inits[row // rank])
                     for row, rels in enumerate(taps.tolist())))
    # coefficient grid (rows, 2L, Mv, Q): tap index then shift index
    coefs = sub[rows[:, :, None], np.arange(shifts.shape[1])[:, None],
                at[rows, taps][:, None, :]]
    i18, *arrays = _quantize_layers(config, coefs.transpose(0, 3, 2, 1))
    bitmap, k1, k2, c = arrays
    rel16 = len(config.coef_shape) == 3
    i110 = (shifts[:, 1] - 1).tolist() if n4 > 1 else None
    reports = []
    for t in range(count):
        a, b = t * rank, (t + 1) * rank
        fields = (i11s[t], i12s[t], i15[a], i16[a:b], i18[a:b])
        if rel16:
            reports.append(type2_r16.R16Pmi(*fields, bitmap[a:b], k1[a:b],
                                            k2[a:b], c[a:b]))
        else:
            reports.append(type2_r18.R18Pmi(
                *fields, None if i110 is None else tuple(i110[a:b]),
                bitmap[a:b], k1[a:b], k2[a:b], c[a:b]))
    return (reports, enhanced.Coefficients(*arrays), taps,
            None if rel16 else shifts)


def search_r17(channel: ChannelRealization, config: type2_r17.R17Config
               ) -> type2_r17.R17Pmi:
    """UE-side Further Enhanced port-selection report (beam-domain channel)."""
    h = _type2_channel(channel, config.p_csirs, n3=config.n3,
                       rank=config.rank)
    targets = _targets(h, config.rank)
    half = config.p_csirs // 2
    energy = (np.abs(targets) ** 2).sum(axis=(0, 1, 2))
    per_port = energy[:half] + energy[half:]
    # the searches' beam rule; alpha = 1 (L = P/2) keeps every port
    ports = tuple(sorted(_pick_beams(config.l, per_port, np.ones(half))))
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
    coefs = spectrum[:, list(taps)].transpose(0, 2, 1)[..., None]
    pmi = type2_r17.R17Pmi(i12, i16, *_quantize_layers(config, coefs))
    return _chosen(_choose(*_candidates(config, [basis], [pmi], pmi,
                                        [taps] * config.rank), targets))


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
