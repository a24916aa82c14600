"""Rel-15 Type II codebook: regular and port-selection variants.

Each layer is a linear combination of L beams per polarization with
wideband amplitude, subband amplitude, and subband phase per coefficient
(TS 38.214 Table 5.2.2.2.4-1).  The same L beams serve both polarizations
and all layers; only the combination weights differ.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import quantization as qt
from .bases import ArrayGeometry
from .channel_sim import _beam_projections, _search_channel, _search_groups
from .combinadics import (
    array_bits,
    binomial,
    clog2,
    decode_group_restriction,
    field_bits,
    is_indices,
)
from .enhanced import (  # noqa: F401 (PORT_SELECTION: a variant name)
    PORT_SELECTION,
    REGULAR,
    SpatialConfig,
    beam_fields,
    beam_grid_indices,
    check_beams,
    draw_beams,
    grid_coordinates,
    selected_beams,
    selected_flats,
    spatial_gain,
)
from .errors import (
    ConsistencyError,
    DegenerateReportError,
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
    variant: str = REGULAR
    geom: ArrayGeometry | None = None
    p_csirs: int | None = None
    d: int | None = None

    def __post_init__(self):
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


def reporting_mask(config: T2R15Config, k1, i13) -> tuple[np.ndarray, np.ndarray]:
    """Apply the reporting reduction rules to every layer at once.

    Returns ``(k2_reported, phase_alphabet)``, both (rank, 2L): per layer,
    the min(Ml, K2)-1 strongest nonzero coefficients (largest wideband
    amplitude, ties toward the lowest beam index, strongest excluded) carry
    subband amplitude and an N_PSK phase; the remaining nonzero ones carry a
    QPSK phase only (alphabet 4); zero-amplitude positions and the
    strongest carry nothing (alphabet 0).
    """
    k1 = np.asarray(k1)
    rank, two_l = k1.shape
    nonzero = k1 > 0
    others = nonzero.copy()
    others[np.arange(rank), list(i13)] = False
    if not config.subband_amplitude:
        return np.zeros_like(others), np.where(others, config.n_psk, 0)
    # the (-k1, beam index) order, positions that report nothing last;
    # its first n_fine entries carry subband amplitudes
    order = np.argsort(np.where(others, -k1, 1), axis=1, kind="stable")
    n_fine = np.minimum(nonzero.sum(axis=1), k2_cap(config.l)) - 1
    k2_reported = np.zeros_like(others)
    np.put_along_axis(k2_reported, order,
                      np.arange(two_l) < n_fine[:, None], axis=1)
    k2_reported &= others
    return k2_reported, np.where(k2_reported, config.n_psk,
                                 np.where(others, 4, 0))


def canonicalize(config: T2R15Config, pmi: T2R15Pmi) -> T2R15Pmi:
    """Force every unreported field to its default value."""
    k1 = np.array(pmi.k1, dtype=int)
    k1[np.arange(config.rank), list(pmi.i13)] = 7
    k2_reported, alphabet = reporting_mask(config, k1, pmi.i13)
    a = alphabet[:, None]
    k2 = np.where(k2_reported[:, None], np.asarray(pmi.k2, dtype=int), 1)
    c = np.asarray(pmi.c, dtype=int)
    c = np.where(a == 0, 0, np.where(a == 4, c % 4, c))
    return replace(pmi, k1=k1, k2=k2, c=c)


def validate(config: T2R15Config, pmi: T2R15Pmi) -> tuple[np.ndarray, np.ndarray]:
    """Reject a malformed, out-of-range or inconsistent report; return its
    ``reporting_mask``: (k2_reported, phase alphabet), both (rank, 2L)."""
    rank, two_l = config.rank, 2 * config.l
    check_beams(config, pmi)
    if not is_indices(pmi.i13, rank):
        raise FormatError("i_1,3 must hold one strongest-coefficient index "
                          "per layer")
    for name, shape in (("k1", (rank, two_l)),
                        ("k2", (rank, config.subband_count, two_l)),
                        ("c", (rank, config.subband_count, two_l))):
        if np.shape(getattr(pmi, name)) != shape:
            raise FormatError(f"{name} must have shape {shape}")
    k1, k2, c = np.asarray(pmi.k1), np.asarray(pmi.k2), np.asarray(pmi.c)
    i13 = np.array(pmi.i13)
    if ((i13 < 0) | (i13 >= two_l)).any():
        raise DomainError(f"i_1,3={pmi.i13} outside [0, {two_l})")
    if ((k1 < 0) | (k1 > 7)).any():
        raise DomainError("k1 outside [0, 7]")
    if ((k2 < 0) | (k2 > 1)).any():
        raise DomainError("k2 outside [0, 1]")
    rows = np.arange(rank)
    if (k1[rows, i13] != 7).any():
        raise ConsistencyError("strongest coefficient must carry k1=7")
    if (k2[rows, :, i13] != 1).any() or (c[rows, :, i13] != 0).any():
        raise ConsistencyError("strongest coefficient must carry k2=1, c=0")
    k2_reported, alphabet = reporting_mask(config, k1, pmi.i13)
    a = alphabet[:, None]
    if (~k2_reported[:, None] & (k2 != 1)).any():
        raise ConsistencyError("k2 reported at a defaulted position")
    if ((a == 0) & (c != 0)).any():
        raise ConsistencyError("phase reported at a defaulted position")
    if ((a > 0) & ((c < 0) | (c >= a))).any():
        raise DomainError("phase index c outside its alphabet")
    return k2_reported, alphabet


def _coefficients(config: T2R15Config, pmi: T2R15Pmi,
                  alphabet: np.ndarray) -> np.ndarray:
    """Complex combination weights p1*p2*phi of every subband and layer,
    (subbands, rank, 2L)."""
    a = np.where(alphabet > 0, alphabet, config.n_psk)
    k2 = np.asarray(pmi.k2).swapaxes(0, 1)
    p1 = qt.R15_WB_AMPS[pmi.k1]
    p2 = (qt.R15_SB_AMPS[k2] if config.subband_amplitude
          else np.ones(k2.shape))
    c = np.asarray(pmi.c).swapaxes(0, 1)
    phi = np.exp(2j * np.pi * (c % a) / a)
    return p1 * p2 * phi


def layer_coefficients(config: T2R15Config, pmi: T2R15Pmi, layer: int,
                       subband: int) -> np.ndarray:
    """Complex combination weights p1*p2*phi for one layer and subband (2L,)."""
    _, alphabet = reporting_mask(config, pmi.k1, pmi.i13)
    return _coefficients(config, pmi, alphabet)[subband, layer]


def _beta(config: T2R15Config, coef: np.ndarray) -> np.ndarray:
    """Each layer's squared precoder norm before normalization, (...,
    rank) for weights (..., rank, 2L); raises DegenerateReportError when
    one is zero."""
    beta = spatial_gain(config) * (np.abs(coef) ** 2).sum(axis=-1)
    if (beta == 0).any():
        layer = np.argwhere(beta == 0)[0][-1]
        raise DegenerateReportError(f"layer {layer} has all-zero amplitudes")
    return beta


def _precoders(config: T2R15Config, v: np.ndarray,
               coef: np.ndarray) -> np.ndarray:
    """Precoding matrices (..., P, rank) of weights (..., rank, 2L) on the
    beams ``v``, every subband and layer in one pass."""
    l = config.l
    beta = _beta(config, coef)
    w = np.concatenate([np.matmul(v, coef[..., :l, None]),
                        np.matmul(v, coef[..., l:, None])], axis=-2)[..., 0]
    w = w / np.sqrt(beta)[..., None] / np.sqrt(config.rank)  # (..., rank, P)
    return np.ascontiguousarray(np.swapaxes(w, -1, -2))


def reconstruct_all(config: T2R15Config, pmi: T2R15Pmi) -> np.ndarray:
    """Precoders for every subband, shape (subbands, P, rank)."""
    _, alphabet = validate(config, pmi)
    return _precoders(config, selected_beams(config, pmi),
                      _coefficients(config, pmi, alphabet))


def reconstruct(config: T2R15Config, pmi: T2R15Pmi, subband: int = 0) -> np.ndarray:
    """Precoding matrix (P, rank) for one subband: its slice of
    ``reconstruct_all``."""
    if not 0 <= subband < config.subband_count:
        raise DomainError(
            f"subband {subband} outside [0, {config.subband_count})")
    return reconstruct_all(config, pmi)[subband]


def serialize_pmi(config: T2R15Config, pmi: T2R15Pmi) -> str:
    """Report bits, MSB first: i11, i12 (regular), then per layer i13 and
    the k1 of every beam but the strongest; then per layer the reported
    phases and (with subband amplitudes) k2 of every subband.
    Rejects what ``reconstruct_all`` rejects."""
    k2_reported, alphabet = validate(config, pmi)
    two_l = 2 * config.l
    k1 = np.asarray(pmi.k1)
    out = [field_bits(v, w) for v, w in beam_fields(config, pmi)]
    for layer, s in enumerate(pmi.i13):
        out += [field_bits(s, clog2(two_l)),
                array_bits(np.delete(k1[layer], s), 3)]
    for layer, a in enumerate(alphabet):
        out.append(array_bits(np.asarray(pmi.c)[layer][:, a > 0],
                              np.log2(a[a > 0]).astype(int)))
        if config.subband_amplitude:
            out.append(array_bits(
                np.asarray(pmi.k2)[layer][:, k2_reported[layer]], 1))
    return "".join(out)


def subset_restriction(b1_bits, b2_bits, geom: ArrayGeometry) -> np.ndarray:
    """Per-beam wideband amplitude caps from the joint sequence B = B1 B2.

    B1 (11 bits, MSB first) ranks the 4 restricted beam groups; each of the
    4 segments of B2 (2*N1*N2 bits, MSB first) carries 2 bits per beam read
    at position 2*(N1*x2 + x1).  Beams in unrestricted groups get cap 1.
    """
    b1 = [int(b) for b in b1_bits]
    b2 = [int(b) for b in b2_bits]
    if len(b1) != 11:
        raise FormatError(f"B1 must be 11 bits, got {len(b1)}")
    n1, n2 = geom.n1, geom.n2
    if len(b2) != 8 * n1 * n2:
        raise FormatError(f"B2 must be {8 * n1 * n2} bits, got {len(b2)}")
    beta1 = int("".join(str(b) for b in b1), 2)
    if beta1 >= binomial(geom.o1 * geom.o2, 4):
        raise FormatError(f"B1 value {beta1} is not a valid group combination")
    groups = decode_group_restriction(beta1, geom.o1, geom.o2)
    caps = np.ones((geom.beams_h, geom.beams_v))
    seg_len = 2 * n1 * n2
    for k, (_, r1, r2) in enumerate(groups):
        seg = b2[k * seg_len:(k + 1) * seg_len]
        for x2 in range(n2):
            for x1 in range(n1):
                pos = 2 * (n1 * x2 + x1)
                # segment is written MSB first: bit j sits at index 2N1N2-1-j
                hi = seg[seg_len - 1 - (pos + 1)]
                lo = seg[seg_len - 1 - pos]
                caps[n1 * r1 + x1, n2 * r2 + x2] = qt.max_amp_restriction(2 * hi + lo)
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
    """Raise if any reported wideband amplitude exceeds its beam cap."""
    cap = _beam_caps(config, pmi, caps)
    amp = qt.R15_WB_AMPS[pmi.k1]
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


def _subband_targets(channel: np.ndarray, n_sb: int, rank: int) -> np.ndarray:
    """Per-subband dominant eigenvectors of H^H H, shape (rank, n_sb, P)."""
    m, _, p = channel.shape
    edges = np.linspace(0, m, n_sb + 1).astype(int)
    targets = np.empty((rank, n_sb, p), dtype=complex)
    for sb in range(n_sb):
        h = channel[edges[sb]:edges[sb + 1]]
        cov = np.einsum("mrp,mrq->pq", h.conj(), h)
        _, vecs = np.linalg.eigh(cov)
        targets[:, sb] = vecs[:, ::-1][:, :rank].T
    return targets


def search_t2_r15(channel: np.ndarray, config: T2R15Config,
                  caps: np.ndarray | None = None) -> T2R15Pmi:
    """UE-side report selection: beam group (or port block) by projected
    energy, the L beams of highest energy in it, least-squares weights,
    quantization.

    ``channel`` is read by ``_search_channel`` as (M, Nr, P); for port
    selection it is the effective (beam-domain) channel.
    """
    h = _search_channel(channel, config.n_ports,
                        subbands=config.subband_count)[0]
    if caps is not None:
        caps = _check_caps(config, caps)
    targets = _subband_targets(h, config.subband_count, config.rank)
    wide = _subband_targets(h, 1, config.rank)  # (rank, 1, P)

    # the fit reads one slot interval: (rank, 1, subbands, P)
    best = _search_groups(config, wide, targets[:, None],
                          functools.partial(_candidate, config, targets), caps)
    if best is None:
        raise RestrictionError("no admissible report under the caps")
    return best


def _candidate(config: T2R15Config, targets: np.ndarray, i11, i12,
               beams: np.ndarray, beam_caps: np.ndarray):
    """The quantized report of ``targets`` (rank, subbands, P) on ``beams``
    as a ``_choose`` candidate, its precoders built from the beams and the
    quantized weights; None when the caps leave no admissible reference or
    a layer's amplitudes are all zero."""
    quantized = _quantize_report(config, _beam_projections(
        targets, beams, spatial_gain(config)), i11, i12, beam_caps)
    if quantized is None:
        return None
    pmi, alphabet = quantized
    weights = _coefficients(config, pmi, alphabet)
    try:
        _beta(config, weights)
    except DegenerateReportError:
        return None
    return pmi, lambda: _precoders(config, beams, weights)


def _quantize_report(config: T2R15Config, coef: np.ndarray, i11, i12,
                     beam_caps: np.ndarray):
    """Quantize every layer's (subband, 2L) weights against the reference,
    the coefficient of largest RMS magnitude, under the caps of the L beams;
    returns the report and its phase alphabet (``reporting_mask``), or None
    when the caps leave no admissible reference."""
    max_k = np.tile(_max_k(beam_caps), 2)
    rows = np.arange(config.rank)
    mag = np.abs(coef)                                # (rank, n_sb, 2L)
    rms = np.round(np.sqrt((mag ** 2).mean(axis=1)), 12)
    # the strongest coefficient carries an implicit amplitude of 1, so it
    # must sit on an unrestricted beam
    admissible = np.flatnonzero(max_k == 7)
    if admissible.size == 0:
        return None
    i13 = admissible[rms[:, admissible].argmax(axis=1)]
    ref = mag[rows, :, i13]                           # (rank, n_sb)
    # a layer with a zero reference keeps the strongest position only
    degenerate = ~(ref > 0).all(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = mag / ref[:, :, None]
        p1_hat = ratio.max(axis=1)                    # per-position wideband amp
        k1 = np.minimum(qt.quantize_nearest(p1_hat, qt.R15_WB_AMPS), max_k)
        k2 = np.ones(coef.shape, dtype=int)
        if config.subband_amplitude:
            p2_hat = np.where(p1_hat[:, None] > 0, ratio / p1_hat[:, None], 1.0)
            k2 = qt.quantize_nearest(np.nan_to_num(p2_hat, nan=1.0),
                                     qt.R15_SB_AMPS)
    k1[degenerate] = 0
    k1[rows, i13] = 7
    k2[degenerate] = 1
    rel = np.angle(coef) - np.angle(coef[rows, :, i13])[:, :, None]
    k2_reported, alphabet = reporting_mask(config, k1, i13)
    a = alphabet[:, None]
    # unreported fields hold their defaults, as ``canonicalize`` sets them
    k2 = np.where(k2_reported[:, None], k2, 1)
    c = np.where(a > 0, qt.quantize_phase(rel, np.maximum(a, 1)), 0)
    return T2R15Pmi(i11, i12, tuple(i13.tolist()), k1, k2, c), alphabet
