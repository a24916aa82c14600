"""Rel-15 Type II codebook: regular and port-selection variants.

Each layer is a linear combination of L beams per polarization with
wideband amplitude, subband amplitude, and subband phase per coefficient
(TS 38.214 Table 5.2.2.2.4-1).  The same L beams serve both polarizations
and all layers; only the combination weights differ.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import quantization as qt
from .bases import ArrayGeometry, orthogonal_group
from .combinadics import (
    binomial,
    clog2,
    decode_group_restriction,
    encode_combination,
    field_bits,
    split_beam_index,
)
from .enhanced import (  # noqa: F401 (PORT_SELECTION: a variant name)
    PORT_SELECTION,
    REGULAR,
    SpatialConfig,
    beam_fields,
    beam_grid_indices,
    draw_beams,
    port_beams,
    selected_beams,
    spatial_gain,
)
from .errors import (
    ConsistencyError,
    DegenerateReportError,
    DomainError,
    FormatError,
    RestrictionError,
)

_R15_WB_AMPS = np.array([qt.amp_r15_wideband(k) for k in range(8)])
_R15_SB_AMPS = np.array([qt.amp_r15_subband(k) for k in range(2)])


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

    @property
    def i11_count(self) -> int:
        if self.variant == REGULAR:
            return self.geom.o1 * self.geom.o2
        return -(-self.p_csirs // (2 * self.d))  # ceil(P / 2d)


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


@dataclass(frozen=True)
class LayerMask:
    """Reported/defaulted classification for one layer's coefficients."""

    strongest: int
    ml: int
    nonzero: np.ndarray          # (2L,) bool, wideband amplitude > 0
    k2_reported: np.ndarray      # (2L,) bool
    phase_alphabet: np.ndarray   # (2L,) int, 0 where the phase is defaulted


def reporting_mask(config: T2R15Config, pmi: T2R15Pmi, layer: int) -> LayerMask:
    """Apply the per-layer reporting reduction rules.

    The min(Ml, K2)-1 strongest nonzero coefficients (largest wideband
    amplitude, ties toward the lowest beam index, strongest excluded) carry
    subband amplitude and an N_PSK phase; the remaining nonzero ones carry a
    QPSK phase only; zero-amplitude positions carry nothing.
    """
    two_l = 2 * config.l
    k1 = np.asarray(pmi.k1[layer])
    s = pmi.i13[layer]
    nonzero = k1 > 0
    ml = int(nonzero.sum())
    order = sorted((i for i in range(two_l) if nonzero[i] and i != s),
                   key=lambda i: (-k1[i], i))
    n_fine = min(ml, k2_cap(config.l)) - 1
    k2_reported = np.zeros(two_l, dtype=bool)
    alphabet = np.zeros(two_l, dtype=int)
    if config.subband_amplitude:
        for i in order[:n_fine]:
            k2_reported[i] = True
            alphabet[i] = config.n_psk
        for i in order[n_fine:]:
            alphabet[i] = 4
    else:
        for i in order:
            alphabet[i] = config.n_psk
    return LayerMask(strongest=s, ml=ml, nonzero=nonzero,
                     k2_reported=k2_reported, phase_alphabet=alphabet)


def canonicalize(config: T2R15Config, pmi: T2R15Pmi) -> T2R15Pmi:
    """Force every unreported field to its default value."""
    k1 = np.array(pmi.k1, dtype=int)
    k2 = np.array(pmi.k2, dtype=int)
    c = np.array(pmi.c, dtype=int)
    for layer in range(config.rank):
        s = pmi.i13[layer]
        k1[layer, s] = 7
        mask = reporting_mask(config, replace(pmi, k1=k1, k2=k2, c=c), layer)
        for i in range(2 * config.l):
            if not mask.k2_reported[i]:
                k2[layer, :, i] = 1
            if mask.phase_alphabet[i] == 0:
                c[layer, :, i] = 0
            elif mask.phase_alphabet[i] == 4:
                c[layer, :, i] %= 4
    return replace(pmi, k1=k1, k2=k2, c=c)


def validate(config: T2R15Config, pmi: T2R15Pmi) -> None:
    two_l = 2 * config.l
    n_sb = config.subband_count
    if np.asarray(pmi.k1).shape != (config.rank, two_l):
        raise FormatError("k1 must have shape (rank, 2L)")
    if np.asarray(pmi.k2).shape != (config.rank, n_sb, two_l):
        raise FormatError("k2 must have shape (rank, subbands, 2L)")
    if np.asarray(pmi.c).shape != (config.rank, n_sb, two_l):
        raise FormatError("c must have shape (rank, subbands, 2L)")
    if config.variant == REGULAR:
        if pmi.i12 is None or not 0 <= pmi.i12 < binomial(
                config.geom.n1 * config.geom.n2, config.l):
            raise FormatError(f"i_1,2={pmi.i12} out of range")
    if len(pmi.i13) != config.rank:
        raise FormatError("one strongest-coefficient index per layer required")
    for layer in range(config.rank):
        s = pmi.i13[layer]
        if not 0 <= s < two_l:
            raise DomainError(f"i_1,3={s} outside [0, {two_l})")
        if pmi.k1[layer, s] != 7:
            raise ConsistencyError("strongest coefficient must carry k1=7")
        if np.any(pmi.k2[layer, :, s] != 1) or np.any(pmi.c[layer, :, s] != 0):
            raise ConsistencyError("strongest coefficient must carry k2=1, c=0")
        mask = reporting_mask(config, pmi, layer)
        for i in range(two_l):
            if not mask.k2_reported[i] and np.any(pmi.k2[layer, :, i] != 1):
                raise ConsistencyError(f"k2 reported at defaulted position {i}")
            a = mask.phase_alphabet[i]
            if a == 0 and np.any(pmi.c[layer, :, i] != 0):
                raise ConsistencyError(f"phase reported at defaulted position {i}")
            if a > 0 and np.any(pmi.c[layer, :, i] >= a):
                raise DomainError(f"phase index at position {i} exceeds alphabet {a}")
        if np.any(pmi.k1[layer] < 0) or np.any(pmi.k1[layer] > 7):
            raise DomainError("k1 outside [0, 7]")
        if np.any(pmi.k2[layer] < 0) or np.any(pmi.k2[layer] > 1):
            raise DomainError("k2 outside [0, 1]")


def layer_coefficients(config: T2R15Config, pmi: T2R15Pmi, layer: int,
                       subband: int) -> np.ndarray:
    """Complex combination weights p1*p2*phi for one layer and subband (2L,)."""
    mask = reporting_mask(config, pmi, layer)
    p1 = _R15_WB_AMPS[pmi.k1[layer]]
    p2 = (_R15_SB_AMPS[pmi.k2[layer, subband]]
          if config.subband_amplitude else np.ones(2 * config.l))
    phi = np.ones(2 * config.l, dtype=complex)
    for i in range(2 * config.l):
        alphabet = mask.phase_alphabet[i] or config.n_psk
        phi[i] = qt.phase(int(pmi.c[layer, subband, i]) % alphabet, alphabet)
    return p1 * p2 * phi


def reconstruct(config: T2R15Config, pmi: T2R15Pmi, subband: int = 0) -> np.ndarray:
    """Precoding matrix (P, rank) for one subband."""
    validate(config, pmi)
    v = selected_beams(config, pmi)
    cols = []
    for layer in range(config.rank):
        a = layer_coefficients(config, pmi, layer, subband)
        beta = spatial_gain(config) * float(np.sum(np.abs(a) ** 2))
        if beta == 0:
            raise DegenerateReportError(f"layer {layer} has all-zero amplitudes")
        w = np.concatenate([v @ a[:config.l], v @ a[config.l:]]) / np.sqrt(beta)
        cols.append(w)
    return np.column_stack(cols) / np.sqrt(config.rank)


def serialize_pmi(config: T2R15Config, pmi: T2R15Pmi) -> str:
    """Report bits, MSB first: i11, i12 (regular), then per layer i13 and
    the k1 of every beam but the strongest; then per layer the reported
    phases and (with subband amplitudes) k2 of every subband."""
    two_l = 2 * config.l
    out = [field_bits(v, w) for v, w in beam_fields(config, pmi)]
    for layer in range(config.rank):
        out.append(field_bits(pmi.i13[layer], clog2(two_l)))
        out += [field_bits(int(pmi.k1[layer, i]), 3) for i in range(two_l)
                if i != pmi.i13[layer]]
    for layer in range(config.rank):
        mask = reporting_mask(config, pmi, layer)
        for sb in range(config.subband_count):
            out += [field_bits(int(pmi.c[layer, sb, i]), clog2(int(a)))
                    for i, a in enumerate(mask.phase_alphabet) if a]
        if config.subband_amplitude:
            for sb in range(config.subband_count):
                out += [field_bits(int(pmi.k2[layer, sb, i]), 1)
                        for i in range(two_l) if mask.k2_reported[i]]
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


def check_restriction(config: T2R15Config, pmi: T2R15Pmi, caps: np.ndarray) -> None:
    """Raise if any reported wideband amplitude exceeds its beam cap."""
    for layer in range(config.rank):
        for i, (m1, m2) in enumerate(beam_grid_indices(config, pmi)):
            cap = caps[m1, m2]
            for pol in (0, 1):
                amp = _R15_WB_AMPS[pmi.k1[layer, i + pol * config.l]]
                if amp > cap + 1e-12:
                    raise RestrictionError(
                        f"beam ({m1},{m2}) amplitude {amp:.4f} exceeds cap {cap:.4f}")


def random_valid_pmi(config: T2R15Config, rng: np.random.Generator,
                     caps: np.ndarray | None = None) -> T2R15Pmi:
    """Draw a uniformly random internally consistent report."""
    two_l = 2 * config.l
    n_sb = config.subband_count
    i11, i12 = draw_beams(config, rng)
    i13 = tuple(int(rng.integers(two_l)) for _ in range(config.rank))
    k1 = rng.integers(0, 8, size=(config.rank, two_l))
    k2 = rng.integers(0, 2, size=(config.rank, n_sb, two_l))
    c = rng.integers(0, config.n_psk, size=(config.rank, n_sb, two_l))
    pmi = T2R15Pmi(i11, i12, i13, k1, k2, c)
    pmi = canonicalize(config, pmi)
    if caps is not None and config.variant == REGULAR:
        k1 = np.array(pmi.k1)
        for i, (m1, m2) in enumerate(beam_grid_indices(config, pmi)):
            max_k = int(np.searchsorted(_R15_WB_AMPS, caps[m1, m2] + 1e-12) - 1)
            for layer in range(config.rank):
                for pol in (0, 1):
                    pos = i + pol * config.l
                    if pos == pmi.i13[layer]:
                        continue
                    k1[layer, pos] = min(k1[layer, pos], max_k)
        pmi = canonicalize(config, replace(pmi, k1=k1))
    return pmi


def _quantize_nearest(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    return np.abs(values[..., None] - table).argmin(axis=-1)


def _quantize_phase(angles: np.ndarray, alphabet: int) -> np.ndarray:
    return np.round(angles / (2 * np.pi) * alphabet).astype(int) % alphabet


def _subband_targets(channel: np.ndarray, n_sb: int, rank: int) -> np.ndarray:
    """Per-subband dominant eigenvectors of H^H H, shape (n_sb, rank, P)."""
    m, _, p = channel.shape
    edges = np.linspace(0, m, n_sb + 1).astype(int)
    targets = np.empty((n_sb, rank, p), dtype=complex)
    for sb in range(n_sb):
        h = channel[edges[sb]:edges[sb + 1]]
        cov = np.einsum("mrp,mrq->pq", h.conj(), h)
        _, vecs = np.linalg.eigh(cov)
        for layer in range(rank):
            targets[sb, layer] = vecs[:, -1 - layer]
    return targets


def search_t2_r15(channel: np.ndarray, config: T2R15Config,
                  caps: np.ndarray | None = None) -> T2R15Pmi:
    """UE-side report selection: beam group by projected energy, orthogonal
    matching pursuit for the L beams, least-squares weights, quantization.

    ``channel`` has shape (M, Nr, P); for the port-selection variant it is
    the effective (beam-domain) channel.
    """
    h = np.asarray(channel)
    p = config.n_ports
    if h.ndim != 3 or h.shape[2] != p:
        raise DomainError(f"channel must be (M, Nr, {p})")
    half = p // 2
    n_sb = config.subband_count
    targets = _subband_targets(h, n_sb, config.rank)
    wide = _subband_targets(h, 1, config.rank)[0]  # (rank, P)

    if config.variant == REGULAR:
        g = config.geom
        scores = {}
        for q1 in range(g.o1):
            for q2 in range(g.o2):
                grp = orthogonal_group(g, q1, q2)
                # every group spans the full space, so score the energy the
                # best L beams of the group would capture
                proj = (np.abs(grp.conj().T @ wide[:, :half].T) ** 2
                        + np.abs(grp.conj().T @ wide[:, half:].T) ** 2).sum(axis=1)
                scores[(q1, q2)] = float(np.sort(proj)[-config.l:].sum())
        top = max(scores.values())
        # degenerate beam combinations can be represented in several groups
        # (equal projected energy); evaluate every tied candidate end to end
        candidates = [q for q, e in scores.items() if e >= top * (1 - 1e-9)]
        best_pmi, best_fit = None, -1.0
        for q1, q2 in candidates:
            pmi = _finish_regular_search(config, targets, wide, half,
                                         q1, q2, caps)
            if pmi is None:
                continue
            fit = _report_fit(config, pmi, targets)
            if fit > best_fit + 1e-12:
                best_pmi, best_fit = pmi, fit
        if best_pmi is None:
            raise RestrictionError("no admissible report under the caps")
        return best_pmi
    else:
        max_start = config.p_csirs // 2 - config.l
        blocks = range(max_start // config.d + 1)
        energies = []
        for b in blocks:
            ports = [b * config.d + i for i in range(config.l)]
            e = np.sum(np.abs(wide[:, ports]) ** 2) + np.sum(
                np.abs(wide[:, [half + q for q in ports]]) ** 2)
            energies.append(float(e))
        i11 = int(np.argmax(energies))
        i12 = None
        beams = port_beams(p, range(i11 * config.d, i11 * config.d + config.l))
        coef = _project_targets(config, targets, beams, half, gain=1)
        return _quantize_report(config, coef, i11, i12, None)


def _project_targets(config, targets, beams, half, gain):
    """Least-squares weights: projection onto the (scaled) orthogonal beams."""
    n_sb = config.subband_count
    coef = np.empty((config.rank, n_sb, 2 * config.l), dtype=complex)
    for layer in range(config.rank):
        for sb in range(n_sb):
            u = targets[sb, layer]
            coef[layer, sb, :config.l] = beams.conj().T @ u[:half] / gain
            coef[layer, sb, config.l:] = beams.conj().T @ u[half:] / gain
    return coef


def _finish_regular_search(config, targets, wide, half, q1, q2, caps):
    """Beam selection, projection, and quantization for one beam group."""
    g = config.geom
    grp = orthogonal_group(g, q1, q2)
    flats = _omp_select(grp, wide, half, config.l, caps, g, q1, q2)
    i12 = encode_combination(sorted(flats), g.n1 * g.n2, config.l)
    beams = grp[:, sorted(flats)]
    if caps is not None:
        max_k = np.empty(2 * config.l, dtype=int)
        for i, flat in enumerate(sorted(flats)):
            x1, x2 = split_beam_index(flat, g.n1)
            cap = caps[g.o1 * x1 + q1, g.o2 * x2 + q2]
            limit = int(np.searchsorted(_R15_WB_AMPS, cap + 1e-12) - 1)
            max_k[i] = max_k[i + config.l] = limit
    else:
        max_k = None
    coef = _project_targets(config, targets, beams, half, gain=g.n1 * g.n2)
    try:
        return _quantize_report(config, coef, (q1, q2), i12, max_k)
    except RestrictionError:
        return None


def _report_fit(config, pmi, targets) -> float:
    """Sum of squared correlations between the report and the targets."""
    total = 0.0
    for sb in range(config.subband_count):
        w = reconstruct(config, pmi, sb)
        for layer in range(config.rank):
            u = targets[sb, layer]
            total += abs(np.vdot(u / np.linalg.norm(u), w[:, layer])) ** 2
    return total


def _omp_select(group: np.ndarray, wide_targets: np.ndarray, half: int, l: int,
                caps, geom, q1, q2) -> list[int]:
    """Orthogonal matching pursuit over an orthogonal beam dictionary."""
    n_beams = group.shape[1]
    banned = set()
    beam_cap = np.ones(n_beams)
    if caps is not None:
        for flat in range(n_beams):
            x1, x2 = split_beam_index(flat, geom.n1)
            beam_cap[flat] = caps[geom.o1 * x1 + q1, geom.o2 * x2 + q2]
            if beam_cap[flat] == 0:
                banned.add(flat)
    residual = [t.copy() for t in wide_targets]
    chosen: list[int] = []
    last_scores = np.zeros(n_beams)
    for _ in range(l):
        scores = np.zeros(n_beams)
        for r in residual:
            scores += np.abs(group.conj().T @ r[:half]) ** 2
            scores += np.abs(group.conj().T @ r[half:]) ** 2
        last_scores = scores.copy()
        for b in chosen:
            scores[b] = -1.0
        for b in banned:
            scores[b] = -1.0
        pick = int(np.argmax(scores))
        chosen.append(pick)
        # beams are orthogonal: the LS refit is the projection update
        v = group[:, pick]
        norm2 = float(np.real(np.vdot(v, v)))
        for r in residual:
            r[:half] -= v * (np.vdot(v, r[:half]) / norm2)
            r[half:] -= v * (np.vdot(v, r[half:]) / norm2)
    if caps is not None and all(beam_cap[b] < 1 for b in chosen):
        # the strongest coefficient needs an unrestricted beam: swap the
        # weakest pick for the best cap-free beam, if the group has one
        free = [b for b in range(n_beams) if beam_cap[b] == 1 and b not in chosen]
        if free:
            weakest = min(chosen, key=lambda b: last_scores[b])
            best_free = max(free, key=lambda b: last_scores[b])
            chosen[chosen.index(weakest)] = best_free
    return chosen


def _quantize_report(config: T2R15Config, coef: np.ndarray, i11, i12,
                     max_k: np.ndarray | None) -> T2R15Pmi:
    two_l = 2 * config.l
    n_sb = config.subband_count
    mag = np.abs(coef)
    i13 = []
    k1 = np.zeros((config.rank, two_l), dtype=int)
    k2 = np.ones((config.rank, n_sb, two_l), dtype=int)
    c = np.zeros((config.rank, n_sb, two_l), dtype=int)
    for layer in range(config.rank):
        rms = np.round(np.sqrt((mag[layer] ** 2).mean(axis=0)), 12)
        if max_k is not None:
            # the strongest coefficient carries an implicit amplitude of 1,
            # so it must sit on an unrestricted beam
            admissible = np.flatnonzero(max_k == 7)
            if admissible.size == 0:
                raise RestrictionError("restriction leaves no admissible "
                                       "strongest coefficient")
            s = int(admissible[np.argmax(rms[admissible])])
        else:
            s = int(np.argmax(rms))
        i13.append(s)
        ref = mag[layer, :, s]
        if not np.all(ref > 0):
            # degenerate layer: keep the strongest position only
            k1[layer, :] = 0
            k1[layer, s] = 7
            continue
        ratio = mag[layer] / ref[:, None]           # (n_sb, 2L)
        p1_hat = ratio.max(axis=0)                  # per-position wideband amp
        k1[layer] = _quantize_nearest(p1_hat, _R15_WB_AMPS)
        if max_k is not None:
            k1[layer] = np.minimum(k1[layer], max_k)
        k1[layer, s] = 7
        if config.subband_amplitude:
            with np.errstate(invalid="ignore", divide="ignore"):
                p2_hat = np.where(p1_hat > 0, ratio / p1_hat, 1.0)
            k2[layer] = _quantize_nearest(np.nan_to_num(p2_hat, nan=1.0),
                                          _R15_SB_AMPS)
        rel = np.angle(coef[layer]) - np.angle(coef[layer, :, s])[:, None]
        mask_dummy = T2R15Pmi(i11, i12, tuple(i13 + [0] * (config.rank - layer - 1)),
                              k1, k2, c)
        lm = reporting_mask(config, mask_dummy, layer)
        for i in range(two_l):
            alphabet = lm.phase_alphabet[i]
            if alphabet:
                c[layer, :, i] = _quantize_phase(rel[:, i], alphabet)
    return canonicalize(config, T2R15Pmi(i11, i12, tuple(i13), k1, k2, c))
