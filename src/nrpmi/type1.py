"""Rel-15 Type I single-panel codebook, ranks 1-2, codebook modes 1 and 2.

A Type I precoder applies one DFT beam per layer with a co-phasing factor
between the two polarizations (TS 38.214 Table 5.2.2.2.1-5/-6).  Mode 1
keeps the beam fixed across the band and lets i2 pick the co-phase per
subband; mode 2 additionally folds a 4-beam group choice into i2.
"""

import functools
import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .bases import ArrayGeometry, beam_grid
from .channel_sim import (_EPS, _first_best, _search_channel,
                          _subband_edges)
from .combinadics import check_int_fields, is_index, is_indices, read_bits
from .enhanced import check_index
from .errors import DomainError, RestrictionError


@functools.cache
def _offset_table(geom: ArrayGeometry) -> tuple[tuple[int, int], ...]:
    """(k1, k2) of the second layer for every i_1,3, by geometry regime
    (TS 38.214 Tables 5.2.2.2.1-3/-4); built once per geometry."""
    n1, n2, o1, o2 = geom.n1, geom.n2, geom.o1, geom.o2
    if n1 > n2 > 1:
        return ((0, 0), (o1, 0), (0, o2), (2 * o1, 0))
    if n1 == n2:
        return ((0, 0), (o1, 0), (0, o2), (o1, o2))
    if n1 > 2 and n2 == 1:
        return ((0, 0), (o1, 0), (2 * o1, 0), (3 * o1, 0))
    if n1 == 2 and n2 == 1:
        # only two distinct horizontal offsets exist
        return ((0, 0), (o1, 0))
    raise DomainError(f"no i_1,3 offset regime for (N1,N2)=({n1},{n2})")


def i13_range(geom: ArrayGeometry) -> int:
    return len(_offset_table(geom))


@dataclass(frozen=True)
class Type1Config:
    geom: ArrayGeometry
    mode: int = 1
    rank: int = 1
    subband_count: int = 1

    def __post_init__(self):
        check_int_fields(self, "mode", "rank", "subband_count")
        if self.mode not in (1, 2):
            raise DomainError(f"codebook mode {self.mode} not in {{1, 2}}")
        if self.mode == 2 and self.geom.n2 == 1:
            raise DomainError("codebook mode 2 requires N2 > 1")
        if self.rank not in (1, 2):
            raise DomainError(f"rank {self.rank} not supported (1 or 2)")
        if self.subband_count < 1:
            raise DomainError("subband_count must be positive")

    @property
    def i11_range(self) -> int:
        return self.geom.beams_h // (1 if self.mode == 1 else 2)

    @property
    def i12_range(self) -> int:
        return self.geom.beams_v // (1 if self.mode == 1 else 2)

    @property
    def i2_range(self) -> int:
        if self.mode == 1:
            return 4 if self.rank == 1 else 2
        return 8


@dataclass(frozen=True)
class Type1Pmi:
    i11: int
    i12: int
    i2: tuple[int, ...]  # one entry per subband
    i13: int | None = None  # rank 2 only

    def validate(self, config: Type1Config) -> None:
        if not (is_index(self.i11) and 0 <= self.i11 < config.i11_range):
            raise DomainError(f"i_1,1={self.i11} outside [0, {config.i11_range})")
        if not (is_index(self.i12) and 0 <= self.i12 < config.i12_range):
            raise DomainError(f"i_1,2={self.i12} outside [0, {config.i12_range})")
        if not is_indices(self.i2, config.subband_count):
            raise DomainError("one i_2 value per subband required")
        for v in self.i2:
            if not 0 <= v < config.i2_range:
                raise DomainError(f"i_2={v} outside [0, {config.i2_range})")
        if config.rank == 2:
            if not (is_index(self.i13)
                    and 0 <= self.i13 < i13_range(config.geom)):
                raise DomainError(f"i_1,3={self.i13} invalid for this geometry")
        elif self.i13 is not None:
            raise DomainError("i_1,3 present in a rank-1 report")


def _codewords(config: Type1Config, i11, i12, i13, i2):
    """Codewords of broadcast index arrays: precoders (..., P, rank) and
    each layer's restriction bit (..., rank).

    W = [[v, v'], [phi_n v, -phi_n v']] / sqrt(rank*P), where v' is v moved
    by the i_1,3 offsets (rank 2 only).  Mode 1 reads the beam from i11 and
    i12 and the co-phase n from i2; mode 2 folds the beam within a 2x2 group
    into i2, whose pairs pick the beam and whose parity picks n.
    """
    geom = config.geom
    i11, i12, i13, i2 = np.broadcast_arrays(i11, i12, i13, i2)
    if config.mode == 1:
        l, m, n = i11, i12, i2
    else:
        l, m, n = 2 * i11 + (i2 // 2) % 2, 2 * i12 + i2 // 4, i2 % 2
    phi = np.exp(1j * np.pi * n / 2)
    # layer 1 keeps the beam; layer 2 moves it by the i_1,3 offsets
    k = np.array([[(0, 0), k12] for k12 in _offset_table(geom)])[i13, :config.rank]
    l = (l[..., None] + k[..., 0]) % geom.beams_h               # (..., rank)
    m = (m[..., None] + k[..., 1]) % geom.beams_v
    cophase = np.stack([phi, -phi], axis=-1)[..., :config.rank]
    v = beam_grid(geom)[l, m]                                   # (..., rank, N)
    w = np.concatenate([v, cophase[..., None] * v], axis=-1)
    return (w.swapaxes(-1, -2) / np.sqrt(config.rank * geom.n_ports),
            _beam_bit(geom, l, m))


def _lookup(config: Type1Config, pmi: Type1Pmi) -> tuple["_Codebook", int]:
    """Validate the report; return the cached stack and the report's row."""
    pmi.validate(config)
    n13 = i13_range(config.geom) if config.rank == 2 else 1
    return (_codebook(config.geom, config.mode, config.rank),
            (pmi.i11 * config.i12_range + pmi.i12) * n13 + (pmi.i13 or 0))


def reconstruct_all(config: Type1Config, pmi: Type1Pmi) -> np.ndarray:
    """Precoders for every subband, shape (subbands, P, rank): a copy of
    the report's codewords in the cached stack."""
    book, row = _lookup(config, pmi)
    return book.precoders[row, list(pmi.i2)]


def build_precoder(config: Type1Config, pmi: Type1Pmi, subband: int = 0,
                   restriction: np.ndarray | None = None) -> np.ndarray:
    """The (P, rank) precoder of one subband: a writable copy of its
    codeword in the cached stack."""
    check_index("subband", subband, config.subband_count)
    book, row = _lookup(config, pmi)
    i2 = pmi.i2[subband]
    if restriction is not None:
        bits = _restriction_bits(restriction, config.geom)
        for bit in book.beam_bits[row, i2].tolist():
            if not bits[bit]:
                raise RestrictionError(
                    f"beam {divmod(bit, config.geom.beams_v)} is restricted")
    return book.precoders[row, i2].copy()


def random_report(config: Type1Config, rng: np.random.Generator):
    """A ``random_valid_pmi`` report and its precoders (``reconstruct_all``)."""
    pmi = random_valid_pmi(config, rng)
    return pmi, reconstruct_all(config, pmi)


def random_valid_pmi(config: Type1Config, rng: np.random.Generator) -> Type1Pmi:
    """Draw a uniformly random valid report (i_1,3 first, rank 2 only)."""
    i13 = int(rng.integers(i13_range(config.geom))) if config.rank == 2 else None
    return Type1Pmi(
        i11=int(rng.integers(config.i11_range)),
        i12=int(rng.integers(config.i12_range)),
        i2=tuple(int(rng.integers(config.i2_range))
                 for _ in range(config.subband_count)),
        i13=i13)


def _restriction_bits(bit_sequence, geom: ArrayGeometry) -> np.ndarray:
    """The N1*O1*N2*O2 bits of a beam restriction (``read_bits``), as bools."""
    return read_bits(bit_sequence, geom.beams_h * geom.beams_v,
                     "beam restriction").astype(bool)


def _beam_bit(geom: ArrayGeometry, l, m):
    """The restriction bit of beam (l, m), l and m inside the grid."""
    return geom.beams_v * l + m


def check_beam_restriction(bit_sequence: np.ndarray, geom: ArrayGeometry,
                           l: int, m: int) -> bool:
    """Beam (l, m) is allowed iff bit N2*O2*l + m of the sequence is set;
    DomainError names an l or m outside the N1*O1 x N2*O2 grid."""
    bits = _restriction_bits(bit_sequence, geom)
    check_index("l", l, geom.beams_h)
    check_index("m", m, geom.beams_v)
    return bool(bits[_beam_bit(geom, l, m)])


def check_rank_restriction(r_bits, rank: int) -> bool:
    """r_bits[i] = 0 prohibits reporting precoders with i+1 layers."""
    bits = read_bits(r_bits, 8, "rank restriction r0..r7")
    if not (is_index(rank) and 1 <= rank <= 8):
        raise DomainError(f"rank {rank} outside [1, 8]")
    return bool(bits[rank - 1])


def _carrier_rates(h: np.ndarray, w: np.ndarray,
                   noise_power: float) -> np.ndarray:
    """log2 det(I_Nr + g^H g / sigma), g = H_m W_c, of every precoder in the
    (C, P, rank) stack ``w`` on every subcarrier of h (M, Nr, P): (M, C).

    One broadcast product, one stacked Gram matrix and one stacked
    ``slogdet``: each (Nr, P) @ (P, rank) slice, each Gram matrix and each
    determinant is the one-codeword, one-subcarrier operation, in the same
    operand order, so every score matches it to the bit (``einsum`` would
    not).
    """
    g = np.matmul(h[:, None], w)                        # (M, C, Nr, rank)
    m = np.eye(g.shape[-2]) + np.matmul(g.conj().swapaxes(-1, -2), g) / noise_power
    sign, logdet = np.linalg.slogdet(m)
    return logdet / np.log(2)


def _row_sum(rates: np.ndarray) -> np.ndarray:
    """The rows of ``rates`` added in order, from zeros: a subband's
    subcarriers, in subcarrier order."""
    total = np.zeros(rates.shape[1])
    for row in rates:
        total += row
    return total


@dataclass(frozen=True)
class _Codebook:
    """Every codeword of one (geometry, mode, rank), in search scan order."""

    groups: tuple[tuple[int, int, int | None], ...]   # (i11, i12, i13)
    precoders: np.ndarray   # (groups, i2_range, P, rank), a view of columns
    beam_bits: np.ndarray   # (groups, i2_range, rank) restriction bit per layer
    columns: np.ndarray     # (P, rank * i2_range * groups), read-only


@functools.cache
def _codebook(geom: ArrayGeometry, mode: int, rank: int) -> _Codebook:
    config = Type1Config(geom, mode, rank)
    shape = (config.i11_range, config.i12_range,
             i13_range(geom) if rank == 2 else 1)
    groups = tuple((i11, i12, i13 if rank == 2 else None)
                   for i11, i12, i13 in np.ndindex(shape))
    i11, i12, i13 = (a.reshape(-1, 1) for a in np.indices(shape))
    precoders, beam_bits = _codewords(config, i11, i12, i13,
                                      np.arange(config.i2_range))
    # one copy in the screen's layout, layer-major then i2, so that its
    # sums and maxima run over whole rows; the stack is a view of it
    columns = np.ascontiguousarray(precoders.transpose(2, 3, 1, 0))
    columns.flags.writeable = False
    beam_bits.flags.writeable = False
    return _Codebook(groups, columns.transpose(3, 2, 0, 1), beam_bits,
                     columns.reshape(geom.n_ports, -1))


def _screen_rates(h: np.ndarray, columns: np.ndarray, rank: int,
                  noise_power: float) -> np.ndarray:
    """The ``_carrier_rates`` score of every codeword on every subcarrier
    of h (M, Nr, P), from one product with the codebook's ``columns``:
    (M, i2_range * groups).

    The score adds I_Nr to the rank x rank Gram matrix G = g^H g, where
    g = h w / sqrt(sigma), as ``_carrier_rates`` does.  At rank 1 that is
    log2(1 + Nr |g|^2); at rank 2 (Nr = 2) it is
    log2(1 + tr G + |det g|^2).  Every term is nonnegative, so no sum
    cancels and the log2 argument is at least 1.  The product rounds
    differently from ``_carrier_rates``'s per-codeword products: these
    scores only screen.  A score too large for a double is inf (or nan),
    silently, and ``search_type1`` then keeps every group a contender.
    """
    m, nr = h.shape[:2]
    # rank 1 scales g by sqrt(Nr) too, so that its score is log2(1 + |g|^2)
    scale = math.sqrt((nr if rank == 1 else 1) / noise_power)
    with np.errstate(over="ignore", invalid="ignore"):
        # g[:, r * rank + l] is entry (r, l) of every codeword's g
        g = ((h * scale).reshape(m * nr, -1) @ columns).reshape(
            m, nr * rank, -1)
        power = g.real ** 2
        power += g.imag ** 2
        power = power.sum(axis=1)
        if rank == 2:
            det = g[:, 0] * g[:, 3] - g[:, 1] * g[:, 2]
            power += det.real ** 2
            power += det.imag ** 2
        power += 1
        return np.log2(power, out=power)


def _screen_bound(h: np.ndarray, noise_power: float) -> float:
    """Delta: a bound on |screened - exact| for one group's wideband total.

    On subcarrier m both the screen and ``_carrier_rates`` take log2 det M
    of the Hermitian M = I + g^H g / sigma, g = H_m w (rank 1 through its
    Nr x Nr broadcast), whose eigenvalues are at least 1, so
    ||M^-1|| <= 1.  The codeword's layers are orthogonal with norm at most
    1, so ||M|| <= 1 + Nr ||H_m||_F^2 / sigma.  Each path computes det M
    as the determinant of M + E: the product over P ports and the Gram
    matrix, LU or closed form over at most Nr^2 terms give
    ||E|| <= c1 (P + Nr^2) eps ||M||, eps the machine epsilon, and then
    |log det(M + E) - log det M| <= Nr ||M^-1|| ||E|| / (1 - ||E||).  The
    per-subcarrier logs, each at most Nr ||H_m||_F^2 / sigma / ln 2, are
    summed over M subcarriers (subbands included) with a relative error
    of at most M eps each.  Together,
    Delta = c (P + Nr^2 + M) eps sum_m (1 + Nr ||H_m||_F^2 / sigma),
    with c = 64 covering the constants c1, Nr, 1/ln 2 and the log2
    evaluations with room to spare: measured errors stay below 2e-3 Delta.
    """
    m, nr, p = h.shape
    energy = float(np.vdot(h, h).real)
    return 64 * (p + nr * nr + m) * _EPS * (m + nr * energy / noise_power)


def search_type1(channel: np.ndarray, config: Type1Config,
                 restriction: np.ndarray | None = None,
                 rank_restriction=None, noise_power: float = 1.0) -> Type1Pmi:
    """Exhaustive PMI scan maximizing the wideband single-user rate.

    ``channel`` is read by ``_search_channel`` as one interval (M, Nr, P),
    its subcarriers split evenly over the subbands.  A group's total is the
    sum, over the subbands, of its first best admissible i2's rate, and
    ``_first_best`` picks the group, breaking ties toward the smallest flat
    PMI encoding (scan order).

    A screen scores every codeword of every subcarrier from one product
    (``_screen_rates``) and totals each group the same way.  Those totals
    lie within Delta (``_screen_bound``) of the exact ones, so only groups
    within 2 Delta + G * 1e-12 of the best screened total, G the group
    count, can be ``_first_best``'s pick: a group more than (G - 1) * 1e-12
    below the best exact total never changes it, through any chain of
    1e-12 margins.  Only those contenders are scored exactly: one
    ``_carrier_rates`` pass over all their codewords and subcarriers, each
    subband's rows summed in subcarrier order.  That exact score gives
    every codeword the bits it has when the whole stack is scored, so
    every i2 pick and the group pick are those of the full scan.  An
    admissible contender whose exact score overflows (a huge channel, or
    a tiny noise power) raises DomainError.  The codebook and its product layout are built once per
    (geometry, mode, rank) and kept.
    """
    h = _search_channel(channel, config.geom.n_ports,
                        subbands=config.subband_count, rank=config.rank)[0]
    if not (isinstance(noise_power, Real) and not isinstance(noise_power, bool)
            and 0 < noise_power < np.inf):
        raise DomainError(f"noise_power={noise_power!r} must be positive "
                          "and finite")
    if rank_restriction is not None and not check_rank_restriction(
            rank_restriction, config.rank):
        raise RestrictionError(f"rank {config.rank} is prohibited")
    if config.rank == 2 and h.shape[1] != 2:
        raise DomainError(f"the rank 2 search score is defined for Nr = 2 "
                          f"receive antennas, not Nr = {h.shape[1]}")

    book = _codebook(config.geom, config.mode, config.rank)
    n_groups, n_i2 = book.beam_bits.shape[:2]
    subbands = _subband_edges(h.shape[0], config.subband_count)
    per_carrier = _screen_rates(h, book.columns, config.rank, noise_power)
    scores = np.empty((len(subbands), per_carrier.shape[1]))
    for k, (a, b) in enumerate(subbands):
        per_carrier[a:b].sum(axis=0, out=scores[k])
    scores = scores.reshape(-1, n_i2, n_groups)
    allowed = None
    if restriction is not None:
        allowed = _restriction_bits(restriction, config.geom)[
            book.beam_bits].all(axis=2)
        # a group with no admissible i2 in some subband totals -inf, never
        # kept
        scores = np.where(allowed.T, scores, -np.inf)
    screened = scores.max(axis=1).sum(axis=0)
    top = float(screened.max())
    band = 2 * _screen_bound(h, noise_power) + n_groups * 1e-12
    # an overflowed (inf or nan) screened total keeps every admissible group
    cutoff = top - band if math.isfinite(top) else -np.inf
    contenders = np.flatnonzero(~(screened < cutoff) & (screened != -np.inf))

    w = book.precoders[contenders].reshape(-1, *book.precoders.shape[2:])
    with np.errstate(over="ignore", invalid="ignore"):
        rates = _carrier_rates(h, w, noise_power)
    # nan or +inf; a -inf score (a singular score matrix) stays a score
    overflow = ~(rates < np.inf)
    if allowed is not None:
        allowed = allowed[contenders]
        overflow &= allowed.reshape(-1)
    if overflow.any():
        with np.errstate(over="ignore"):
            energy = float((np.abs(h) ** 2).sum())
        raise DomainError(
            f"the exact PMI score overflows at noise_power={noise_power!r} "
            f"and channel energy ||H||_F^2={energy:.3g}")
    total = np.zeros(len(contenders))
    picks = []
    for a, b in subbands:
        sums = _row_sum(rates[a:b]).reshape(len(contenders), n_i2)
        if allowed is not None:
            sums = np.where(allowed, sums, -np.inf)
        # the first maximum over the admissible i2, in scan order
        pick = sums.argmax(axis=1)
        total += sums.max(axis=1)
        picks.append(pick)

    best = _first_best(range(len(contenders)), total.tolist().__getitem__)
    if best is None:
        raise RestrictionError("no admissible PMI under the given restriction")
    i11, i12, i13 = book.groups[contenders[best]]
    return Type1Pmi(i11, i12, tuple(int(p[best]) for p in picks), i13)
