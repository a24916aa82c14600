"""Rel-15 Type II codebook: regular and port-selection variants.

Each layer is a linear combination of L beams per polarization with
wideband amplitude, subband amplitude, and subband phase per coefficient
(TS 38.214 Table 5.2.2.2.4-1).  The same L beams serve both polarizations
and all layers; only the combination weights differ.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import quantization as qt
from .bases import ArrayGeometry
from .channel_sim import (_beam_projections, _choose, _spatial_picks,
                          _subband_edges, _type2_channel)
from .combinadics import (
    array_bits,
    binomial,
    check_int_fields,
    clog2,
    decode_group_restriction,
    is_indices,
    read_bits,
)
from .enhanced import (
    REGULAR,
    SpatialConfig,
    beam_fields,
    beam_grid_indices,
    check_beams,
    check_index,
    draw_beams,
    grid_coordinates,
    report_arrays,
    selected_beams,
    selected_flats,
    spatial_gain,
)
from .errors import (
    ConsistencyError,
    DomainError,
    FormatError,
    RestrictionError,
)


def k2_cap(l: int) -> int:
    """Maximum number of subband amplitudes reported per layer."""
    return 6 if l == 4 else 4


@dataclass(frozen=True)
class T2R15Config(SpatialConfig):
    l: int
    n_psk: int = 8
    subband_amplitude: bool = True
    rank: int = 1
    subband_count: int = 1
    geom: ArrayGeometry | None = None
    p_csirs: int | None = None
    d: int | None = None

    def __post_init__(self):
        check_int_fields(self, "l", "n_psk", "rank", "subband_count",
                         "p_csirs", "d")
        if self.l not in (2, 3, 4):
            raise DomainError(f"numberOfBeams L={self.l} not in {{2,3,4}}")
        if self.n_psk not in (4, 8):
            raise DomainError(f"phaseAlphabetSize {self.n_psk} not in {{4,8}}")
        if self.rank not in (1, 2):
            raise DomainError(f"rank {self.rank} not supported (1 or 2)")
        if self.subband_count < 1:
            raise DomainError("subband_count must be positive")
        self.check_variant()


@dataclass(frozen=True)
class T2R15Pmi:
    """All index fields of one report; coefficient arrays are stored dense.

    i11 is (q1, q2) for the regular variant and the block index for the
    port-selection variant.  k1 has shape (rank, 2L); k2 and c have shape
    (rank, subband_count, 2L).  Defaulted (unreported) entries hold their
    canonical values: k1=7/k2=1/c=0 at the strongest position, k2=1 and c=0
    wherever the reporting rules omit the field.
    """

    i11: tuple[int, int] | int
    i12: int | None
    i13: tuple[int, ...]
    k1: np.ndarray
    k2: np.ndarray
    c: np.ndarray


def check_i13(config: T2R15Config, i13) -> None:
    """Reject an i13 that is not one index in [0, 2L) per layer."""
    if not is_indices(i13, config.rank):
        raise FormatError("i_1,3 must hold one strongest-coefficient index "
                          "per layer")
    if not all(0 <= s < 2 * config.l for s in i13):
        raise DomainError(f"i_1,3={i13} outside [0, {2 * config.l})")


def _arrays(config: T2R15Config, pmi: T2R15Pmi, names=("k1", "k2", "c")):
    """The report's arrays named in ``names`` as ``report_arrays`` reads
    them: k1 of shape (rank, 2L), k2 and c of shape (rank, subbands, 2L)."""
    k1_shape = (config.rank, 2 * config.l)
    sb_shape = (config.rank, config.subband_count, 2 * config.l)
    return report_arrays(pmi, [(name, k1_shape if name == "k1" else sb_shape)
                               for name in names])


def reporting_mask(config: T2R15Config, k1, i13) -> tuple[np.ndarray, np.ndarray]:
    """Apply the reporting reduction rules to every layer at once.

    Returns ``(k2_reported, phase_alphabet)``, both (rank, 2L): per layer,
    the min(Ml, K2)-1 strongest nonzero coefficients (largest wideband
    amplitude, ties toward the lowest beam index, strongest excluded) carry
    subband amplitude and an N_PSK phase; the remaining nonzero ones carry a
    QPSK phase only (alphabet 4); zero-amplitude positions and the
    strongest carry nothing (alphabet 0).  Without subband amplitudes every
    nonzero one but the strongest carries an N_PSK phase.  Raises as
    ``check_i13`` for a malformed i13, then FormatError for a k1 that is
    not a (rank, 2L) integer array.
    """
    check_i13(config, i13)
    k1, = _arrays(config, T2R15Pmi(None, None, i13, k1, None, None), ("k1",))
    return _mask(config, k1.tolist(), i13)


def _mask(config: T2R15Config, rows: list, i13) -> tuple[np.ndarray, np.ndarray]:
    """``reporting_mask`` of checked k1 ``rows`` (Python lists) and i13."""
    k2_reported = [[False] * len(row) for row in rows]
    alphabet = [[0] * len(row) for row in rows]
    for row, s, k2_row, a_row in zip(rows, i13, k2_reported, alphabet):
        # the (-k1, beam index) order of the positions that report a phase
        order = sorted((-v, i) for i, v in enumerate(row) if v > 0 and i != s)
        n_fine = len(order)
        if config.subband_amplitude:  # min(Ml, K2) - 1, Ml counting i*
            n_fine = min(n_fine + (row[s] > 0), k2_cap(config.l)) - 1
        for place, (_, i) in enumerate(order):
            fine = place < n_fine
            k2_row[i] = fine and config.subband_amplitude
            a_row[i] = config.n_psk if fine else 4
    return np.array(k2_reported), np.array(alphabet)


def canonicalize(config: T2R15Config, pmi: T2R15Pmi) -> T2R15Pmi:
    """Force every unreported field to its default value."""
    check_i13(config, pmi.i13)
    k1, k2, c = (a.astype(int) for a in _arrays(config, pmi))
    k1[np.arange(config.rank), list(pmi.i13)] = 7
    k2_reported, alphabet = _mask(config, k1.tolist(), pmi.i13)
    a = alphabet[:, None]
    k2 = np.where(k2_reported[:, None], k2, 1)
    c = np.where(a == 0, 0, np.where(a == 4, c % 4, c))
    return replace(pmi, k1=k1, k2=k2, c=c)


# the shift that takes a phase index in [0, alphabet) to 0 (alphabet 0: c = 0)
_PHASE_BITS = np.array([0, 0, 0, 0, 2, 0, 0, 0, 3])
# phase of index c in alphabet a as [a, c]; alphabet 0 holds c = 0, phase 1
_PHASES = np.zeros((9, 8), dtype=complex)
_PHASES[0, 0], _PHASES[4, :4], _PHASES[8] = 1, qt.PSK[4], qt.PSK[8]


def validate(config: T2R15Config, pmi: T2R15Pmi) -> tuple:
    """Reject a malformed, out-of-range or inconsistent report; return its
    arrays as ``report_arrays`` read them and its ``reporting_mask``:
    (k1, k2, c, k2_reported, alphabet)."""
    check_beams(config, pmi)
    i13 = pmi.i13
    if not is_indices(i13, config.rank):
        raise FormatError("i_1,3 must hold one strongest-coefficient index "
                          "per layer")
    k1, k2, c = _arrays(config, pmi)
    check_i13(config, i13)
    rows = k1.tolist()
    if not all(0 <= v <= 7 for row in rows for v in row):
        raise DomainError("k1 outside [0, 7]")
    k2_reported, alphabet = _mask(config, rows, i13)
    # one pass over k2 and c: k2 - 1 must be 0 where unreported, 0 or -1
    # (0 after a 1-bit shift) where reported; c must shift to 0 by its
    # alphabet's bits (none for alphabet 0, so c = 0 there)
    rep = k2_reported[:, None]
    if (not all(row[s] == 7 for row, s in zip(rows, i13))
            or np.count_nonzero(((k2 - 1 + rep) >> rep)
                                | (c >> _PHASE_BITS[alphabet][:, None]))):
        _raise_fault(k1, k2, c, i13, rep, alphabet[:, None])
    return k1, k2, c, k2_reported, alphabet


def _raise_fault(k1, k2, c, i13, rep, a) -> None:
    """Raise the first fault, in ``validate``'s order, of a report whose
    i13 and k1 are in range and whose k2 or c fails the one-pass check."""
    if ((k2 < 0) | (k2 > 1)).any():
        raise DomainError("k2 outside [0, 1]")
    rows = np.arange(len(i13))
    if (k1[rows, i13] != 7).any():
        raise ConsistencyError("strongest coefficient must carry k1=7")
    if (k2[rows, :, i13] != 1).any() or (c[rows, :, i13] != 0).any():
        raise ConsistencyError("strongest coefficient must carry k2=1, c=0")
    if (~rep & (k2 != 1)).any():
        raise ConsistencyError("k2 reported at a defaulted position")
    if ((a == 0) & (c != 0)).any():
        raise ConsistencyError("phase reported at a defaulted position")
    raise DomainError("phase index c outside its alphabet")


def _coefficients(config: T2R15Config, k1: np.ndarray, k2: np.ndarray,
                  c: np.ndarray, alphabet: np.ndarray) -> np.ndarray:
    """Complex combination weights p1*p2*phi of every subband and layer,
    (subbands, rank, 2L)."""
    k2 = k2.swapaxes(0, 1)
    p1 = qt.R15_WB_AMPS[k1]
    p2 = (qt.R15_SB_AMPS[k2] if config.subband_amplitude
          else np.ones(k2.shape))
    return p1 * p2 * _PHASES[alphabet, c.swapaxes(0, 1)]


def layer_coefficients(config: T2R15Config, pmi: T2R15Pmi) -> np.ndarray:
    """Complex combination weights p1*p2*phi of every subband and layer,
    (subbands, rank, 2L), of a report that passes ``validate``."""
    k1, k2, c, _, alphabet = validate(config, pmi)
    return _coefficients(config, k1, k2, c, alphabet)


def _beta(config: T2R15Config, coef: np.ndarray) -> np.ndarray:
    """Each layer's squared precoder norm before normalization, (...,
    rank) for weights (..., rank, 2L)."""
    return spatial_gain(config) * (np.abs(coef) ** 2).sum(axis=-1)


def _precoders(config: T2R15Config, v: np.ndarray,
               coef: np.ndarray) -> np.ndarray:
    """Precoding matrices (..., P, rank) of weights (..., rank, 2L) on the
    beams ``v``, every subband and layer in one pass."""
    beta = _beta(config, coef)
    # each polarization's weights on the beams: (..., rank, 2, P/2, 1)
    w = v @ coef.reshape(*coef.shape[:-1], 2, config.l, 1)
    w = (w.reshape(*coef.shape[:-1], -1) / np.sqrt(beta)[..., None]
         / math.sqrt(config.rank))                              # (..., rank, P)
    return np.ascontiguousarray(np.swapaxes(w, -1, -2))


def reconstruct_all(config: T2R15Config, pmi: T2R15Pmi) -> np.ndarray:
    """Precoders for every subband, shape (subbands, P, rank)."""
    k1, k2, c, _, alphabet = validate(config, pmi)
    return _precoders(config, selected_beams(config, pmi),
                      _coefficients(config, k1, k2, c, alphabet))


def reconstruct(config: T2R15Config, pmi: T2R15Pmi, subband: int = 0) -> np.ndarray:
    """Precoding matrix (P, rank) for one subband: its slice of
    ``reconstruct_all``."""
    check_index("subband", subband, config.subband_count)
    return reconstruct_all(config, pmi)[subband]


def serialize_pmi(config: T2R15Config, pmi: T2R15Pmi) -> str:
    """Report bits, MSB first: i11, i12 (regular), then per layer i13 and
    the k1 of every beam but the strongest; then per layer the reported
    phases and (with subband amplitudes) k2 of every subband.
    Rejects what ``reconstruct_all`` rejects."""
    k1, k2, c, k2_reported, alphabet = validate(config, pmi)
    two_l = 2 * config.l
    others = np.ones(k1.shape, dtype=bool)
    others[np.arange(config.rank), list(pmi.i13)] = False
    segments = [*beam_fields(config, pmi),
                (np.column_stack([pmi.i13, k1[others].reshape(-1, two_l - 1)]),
                 [clog2(two_l)] + [3] * (two_l - 1))]
    for layer, a in enumerate(alphabet):
        segments.append((c[layer][:, a > 0], np.log2(a[a > 0]).astype(int)))
        if config.subband_amplitude:
            segments.append((k2[layer][:, k2_reported[layer]], 1))
    return "".join(array_bits(v, w) for v, w in segments)


def subset_restriction(b1_bits, b2_bits, geom: ArrayGeometry) -> np.ndarray:
    """Per-beam wideband amplitude caps from the joint sequence B = B1 B2.

    B1 (11 bits, MSB first) ranks the 4 restricted beam groups; each of the
    4 segments of B2 (2*N1*N2 bits, MSB first) carries 2 bits per beam read
    at position 2*(N1*x2 + x1).  Beams in unrestricted groups get cap 1.
    """
    n1, n2 = geom.n1, geom.n2
    b1 = read_bits(b1_bits, 11, "B1")
    b2 = read_bits(b2_bits, 8 * n1 * n2, "B2")
    beta1 = int(b1 @ (1 << np.arange(10, -1, -1)))
    if beta1 >= binomial(geom.o1 * geom.o2, 4):
        raise FormatError(f"B1 value {beta1} is not a valid group combination")
    groups = decode_group_restriction(beta1, geom.o1, geom.o2)
    # each segment is written MSB first, so read backwards it holds the 2
    # bits (low, high) of beam N1*x2 + x1 at 2*(N1*x2 + x1): (4, N2, N1)
    codes = b2.reshape(4, -1)[:, ::-1].reshape(4, n2, n1, 2) @ [1, 2]
    amps = np.array([qt.max_amp_restriction(v) for v in range(4)])
    caps = np.ones((geom.beams_h, geom.beams_v))
    for (_, r1, r2), code in zip(groups, codes):
        caps[n1 * r1:n1 * (r1 + 1), n2 * r2:n2 * (r2 + 1)] = amps[code.T]
    return caps


def _check_caps(config: T2R15Config, caps) -> np.ndarray:
    """Caps as an (O1N1, O2N2) array of finite entries in [0, 1]; caps on a
    port-selection config raise, since the B1/B2 amplitude restriction
    belongs to the regular codebook."""
    if config.variant != REGULAR:
        raise DomainError("caps apply to the regular variant only")
    caps, shape = np.asarray(caps), (config.geom.beams_h, config.geom.beams_v)
    if caps.shape != shape or caps.dtype.kind not in "biuf":
        raise DomainError(f"caps of shape {caps.shape} must be an "
                          f"(O1N1, O2N2) = {shape} array")
    if not ((caps >= 0) & (caps <= 1)).all():
        raise DomainError("caps must be finite entries in [0, 1]")
    return caps


def _beam_caps(config: T2R15Config, pmi: T2R15Pmi, caps) -> np.ndarray:
    """The cap of each coefficient's beam, (2L,), under checked ``caps``."""
    cap = _check_caps(config, caps)[grid_coordinates(
        config.geom, pmi.i11, selected_flats(config, pmi))]
    return np.tile(cap, 2)


def check_restriction(config: T2R15Config, pmi: T2R15Pmi, caps: np.ndarray) -> None:
    """Raise if any reported wideband amplitude exceeds its beam cap, after
    rejecting a malformed i11, i12 or k1 as ``validate`` does."""
    check_beams(config, pmi)
    k1, = _arrays(config, pmi, ("k1",))
    if not ((k1 >= 0) & (k1 <= 7)).all():
        raise DomainError("k1 outside [0, 7]")
    cap = _beam_caps(config, pmi, caps)
    amp = qt.R15_WB_AMPS[k1]
    over = amp > cap + 1e-12
    if over.any():
        layer, i = np.argwhere(over)[0]
        m1, m2 = beam_grid_indices(config, pmi)[i % config.l]
        raise RestrictionError(f"beam ({m1},{m2}) amplitude "
                               f"{amp[layer, i]:.4f} exceeds cap {cap[i]:.4f}")


def _max_k(cap: np.ndarray) -> np.ndarray:
    """The largest k1 each beam cap admits; 7 only on a cap-free beam."""
    return np.searchsorted(qt.R15_WB_AMPS, cap + 1e-12) - 1


def random_valid_pmi(config: T2R15Config, rng: np.random.Generator,
                     caps: np.ndarray | None = None) -> T2R15Pmi:
    """Draw a uniformly random internally consistent report.

    Under ``caps`` (``_check_caps``), each layer's strongest coefficient
    sits on a cap-free beam and every other k1 is capped; a beam draw with
    no cap-free beam raises ``RestrictionError``.
    """
    two_l = 2 * config.l
    n_sb = config.subband_count
    i11, i12 = draw_beams(config, rng)
    max_k = np.full(two_l, 7)
    if caps is not None:
        beams = T2R15Pmi(i11, i12, (), None, None, None)  # i11/i12 only
        max_k = _max_k(_beam_caps(config, beams, caps))
    free = np.flatnonzero(max_k == 7)
    if free.size == 0:
        raise RestrictionError("restriction leaves no admissible "
                               "strongest coefficient")
    i13 = tuple(int(free[rng.integers(free.size)])
                for _ in range(config.rank))
    k1 = np.minimum(rng.integers(0, 8, size=(config.rank, two_l)), max_k)
    k2 = rng.integers(0, 2, size=(config.rank, n_sb, two_l))
    c = rng.integers(0, config.n_psk, size=(config.rank, n_sb, two_l))
    return canonicalize(config, T2R15Pmi(i11, i12, i13, k1, k2, c))


def random_report(config: T2R15Config, rng: np.random.Generator):
    """A ``random_valid_pmi`` report and its precoders (``reconstruct_all``)."""
    pmi = random_valid_pmi(config, rng)
    return pmi, reconstruct_all(config, pmi)


def _subband_targets(channel: np.ndarray, n_sb: int, rank: int):
    """Dominant eigenvectors of H^H H per subband, (rank, n_sb, P), and over
    the whole band, (rank, 1, P), from one stacked eigh."""
    covs = [np.einsum("mrp,mrq->pq", channel[a:b].conj(), channel[a:b])
            for a, b in _subband_edges(channel.shape[0], n_sb)]
    covs.append(np.einsum("mrp,mrq->pq", channel.conj(), channel))
    _, vecs = np.linalg.eigh(np.array(covs))          # (n_sb + 1, P, P)
    top = vecs[..., ::-1][..., :rank].transpose(2, 0, 1)
    return (np.ascontiguousarray(top[:, :-1]),
            np.ascontiguousarray(top[:, -1:]))


def search_t2_r15(channel: np.ndarray, config: T2R15Config,
                  caps: np.ndarray | None = None) -> T2R15Pmi:
    """UE-side report selection: beam group (or port block) by projected
    energy, the L beams of highest energy in it, least-squares weights,
    quantization.

    ``channel`` is read by ``_type2_channel`` as (M, Nr, P); for port
    selection it is the effective (beam-domain) channel.
    """
    h = _type2_channel(channel, config.n_ports,
                       subbands=config.subband_count, rank=config.rank)[0]
    if caps is not None:
        caps = _check_caps(config, caps)
    targets, wide = _subband_targets(h, config.subband_count, config.rank)

    # the fit reads one slot interval: (rank, 1, subbands, P)
    best = _choose(*_candidates(config, targets,
                                *_spatial_picks(config, wide, caps)),
                   targets[:, None])
    if best is None:
        raise RestrictionError("no admissible report under the caps")
    return best


def _candidates(config: T2R15Config, targets: np.ndarray, i11s, i12s,
                bases: list, beam_caps: list):
    """The quantized reports of ``targets`` (rank, subbands, P) on the T
    (P/2, L) beam sets ``bases``, under the T caps ``beam_caps`` of their
    beams, as ``_choose`` input: None where the caps leave no admissible
    reference, and the precoders of the kept candidates built from their
    beams and quantized weights."""
    # the strongest coefficient carries an implicit amplitude of 1, so it
    # must sit on an unrestricted beam
    max_k = _max_k(np.array(beam_caps)).tolist()
    kept = [t for t, row in enumerate(max_k) if 7 in row]
    reports = [None] * len(bases)
    if not kept:
        return reports, None
    rank, l = config.rank, config.l
    # the kept candidates' beams as more columns of one projection, then
    # the rows of each candidate's layers: (T'*rank, subbands, 2L)
    coef = _beam_projections(targets, np.concatenate(
        [bases[t] for t in kept], axis=1), spatial_gain(config))
    coef = coef.reshape(rank, -1, 2, len(kept), l).transpose(
        3, 0, 1, 2, 4).reshape(len(kept) * rank, -1, 2 * l)
    pmis, arrays = _quantize_report(config, coef, [i11s[t] for t in kept],
                                    [i12s[t] for t in kept],
                                    [max_k[t] * 2 for t in kept])
    for t, pmi in zip(kept, pmis):
        reports[t] = pmi
    weights = _coefficients(config, *arrays)          # (subbands, T'*rank, 2L)

    def precoders(chosen):
        at = [kept.index(t) for t in chosen]
        w = weights.reshape(len(weights), len(kept), rank, -1)[:, at]
        v = np.stack([bases[t] for t in chosen])[:, None, None, None]
        return _precoders(config, v, w.swapaxes(0, 1))

    return reports, precoders


def _quantize_report(config: T2R15Config, coef: np.ndarray, i11s, i12s,
                     max_k: list):
    """Quantize the (subband, 2L) weights of every layer of T candidates,
    ``coef`` (T*rank, subbands, 2L), against each layer's reference: the
    coefficient of largest RMS magnitude among the positions that admit
    k1 = 7 under its candidate's caps, ``max_k`` (T lists of the 2L
    ``_max_k`` values, each with such a position).  Returns the T reports
    and their stacked k1, k2, c and phase alphabet (``reporting_mask``).
    The admissible beams and each layer's reference are picked on Python
    values, the same IEEE doubles and comparisons as the array form."""
    rank = config.rank
    admissible = [[i for i, k in enumerate(row) if k == 7] for row in max_k]
    rows = np.arange(len(coef))
    mag = np.abs(coef)                                # (rows, n_sb, 2L)
    # the mean square, as ``mean`` divides the sum by the subband count
    rms = np.round(np.sqrt((mag ** 2).sum(axis=1) / len(coef[0])), 12).tolist()
    # the first admissible position of largest RMS magnitude
    i13 = [max(admissible[row // rank], key=values.__getitem__)
           for row, values in enumerate(rms)]
    ref = mag[rows, :, i13]                           # (rows, n_sb)
    # a layer with a zero reference keeps the strongest position only
    degenerate = ~(ref > 0).all(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = mag / ref[:, :, None]
        p1_hat = ratio.max(axis=1)                    # per-position wideband amp
        k1 = np.minimum(qt.quantize_nearest(p1_hat, qt.R15_WB_AMPS),
                        [max_k[row // rank] for row in range(len(coef))])
        # where p1_hat is 0 or not finite, k1 is 0 (or the layer is
        # degenerate), so k2 there is never reported
        k2 = (qt.quantize_nearest(ratio / p1_hat[:, None], qt.R15_SB_AMPS)
              if config.subband_amplitude else np.ones(coef.shape, dtype=int))
    k1[degenerate] = 0
    k1[rows, i13] = 7
    k2[degenerate] = 1
    phase = np.angle(coef)
    rel = phase - phase[rows, :, i13][:, :, None]
    k2_reported, alphabet = _mask(config, k1.tolist(), i13)
    a = alphabet[:, None]
    # unreported fields hold their defaults, as ``canonicalize`` sets them
    k2 = np.where(k2_reported[:, None], k2, 1)
    c = np.where(a > 0, qt.quantize_phase(rel, np.maximum(a, 1)), 0)
    reports = []
    for t, (i11, i12) in enumerate(zip(i11s, i12s)):
        part = slice(t * rank, (t + 1) * rank)
        reports.append(T2R15Pmi(i11, i12, tuple(i13[part]), k1[part],
                                k2[part], c[part]))
    return reports, (k1, k2, c, alphabet)
