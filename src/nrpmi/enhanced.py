"""Enhanced Type II core shared by the Rel-16, Rel-17 and Rel-18 codebooks.

All three compress a layer's combination weights into a coefficient grid of
shape (K, Mv, Q): K = 2L beams (or K1 ports) over both polarizations, Mv
delay taps and, for Rel-18, Q Doppler shifts.  A bitmap marks the reported
entries; each carries a 3-bit amplitude and a 4-bit phase, scaled by one
wideband amplitude per polarization.  The strongest coefficient is the
normalization reference (k1 = 15, k2 = 7, c = 0) and i_1,8 locates it.

Rel-16 and Rel-17 reports store the grid without its shift axis (Q = 1);
``grid`` restores it.  A release module decodes its index fields, each
read through ``index_field``, into the spatial basis, the taps and the
shifts, and ``synthesize`` combines
them in two stages: ``tap_stage`` (coefficients to frequency units, and the
degeneracy flags) and ``basis_stage`` (onto the beams).  Two synthesis
kernels keep every release bit-exact with its own arithmetic: a
space-frequency product for reports without a shift axis and a Tucker
contraction for Rel-18 (N4 = 1 included).

The spatial-basis part (``SpatialConfig``, ``selected_beams``,
``draw_beams``, ``beam_fields``) also serves the Rel-15 Type II codebook,
whose beam selection the enhanced releases inherit.
"""

import collections
import functools
import itertools
import math
import types

import numpy as np

from . import quantization as qt
from .bases import (
    SUPPORTED_PORT_COUNTS,
    orthogonal_group,
    port_selection_basis,
)
from .combinadics import (
    array_bits,
    binomial,
    clog2,
    decode_combination,
    encode_combination,
    is_index,
    is_indices,
    split_beam_index,
)
from .errors import (
    BudgetError,
    ConsistencyError,
    DegenerateReportError,
    DomainError,
    FormatError,
)

REGULAR = "regular"
PORT_SELECTION = "port-selection"

# grid axis along which the strongest coefficient may move: any tap at
# shift 0 (Rel-17), or any shift at the remapped tap 0 (Rel-16/18)
TAP_AXIS, SHIFT_AXIS = 1, 2

N_PSK16 = 16
WB_AMPS = np.array([0.0] + [qt.amp_r16_wideband(k) for k in range(1, 16)])
SB_AMPS = np.array([qt.amp_r16_subband(k) for k in range(8)])
PSK16 = qt.PSK[N_PSK16]


def compute_mv(p_v: float, n3: int, r: int) -> int:
    """Number of selected delay taps Mv = ceil(p_v * N3 / R)."""
    return math.ceil(p_v * n3 / r)


def check_port_count(p_csirs: int) -> None:
    """Reject a CSI-RS port count outside ``SUPPORTED_PORT_COUNTS``."""
    if p_csirs not in SUPPORTED_PORT_COUNTS:
        raise DomainError(f"p_csirs={p_csirs!r} not in {SUPPORTED_PORT_COUNTS}")


def port_bounds(p_csirs: int, l: int) -> tuple[int, int]:
    """Port selection's upper bounds at P = ``p_csirs`` ports and L = ``l``
    beams: L of at most P/2 ports per polarization, and the sampling size
    d of at most min(P/2, L)."""
    return p_csirs // 2, min(p_csirs // 2, l)


class SpatialConfig:
    """The spatial basis of a Type II config: DFT beams of ``geom``
    (regular), or ``p_csirs`` ports in blocks every ``d`` (port selection).
    A config is port selection exactly when it gives p_csirs."""

    p_csirs = d = None  # a regular-only subclass has no port fields

    @property
    def variant(self) -> str:
        return REGULAR if self.p_csirs is None else PORT_SELECTION

    def check_variant(self) -> None:
        """Reject a config with neither basis or fields of both, or more
        beams L per polarization than its basis offers."""
        if self.variant == REGULAR:
            if self.geom is None:
                raise DomainError("regular variant requires an array geometry;"
                                  " port-selection variant requires p_csirs")
            if self.d is not None:
                raise DomainError(f"d={self.d!r} given without p_csirs")
            n = self.geom.n1 * self.geom.n2
            if self.l > n:
                raise DomainError(f"L={self.l} exceeds the N1*N2={n} beams "
                                  "of a group")
        else:
            if self.geom is not None:
                raise DomainError(f"geom given with p_csirs={self.p_csirs!r}")
            if self.d is None:
                raise DomainError("port-selection variant requires p_csirs and d")
            check_port_count(self.p_csirs)
            max_l, max_d = port_bounds(self.p_csirs, self.l)
            if self.l > max_l:
                raise DomainError(f"L={self.l} exceeds the P/2={max_l} ports "
                                  "per polarization")
            if not 1 <= self.d <= max_d:
                raise DomainError(f"portSelectionSamplingSize d={self.d} "
                                  f"outside [1, min(P/2, L)={max_d}]")

    @property
    def n_ports(self) -> int:
        return self.geom.n_ports if self.variant == REGULAR else self.p_csirs


def check_table(config) -> None:
    """Reject a ``config.PARAMS`` key, N3 or rank outside the Rel-16 to
    Rel-18 tables, naming the table by ``config.PARAM_NAME``."""
    if config.param_combination not in config.PARAMS:
        raise DomainError(f"{config.PARAM_NAME} {config.param_combination} "
                          f"outside [1, {len(config.PARAMS)}]")
    if not 3 <= config.n3 <= 36:
        raise DomainError(f"N3={config.n3} outside [3, 36]")
    if not 1 <= config.rank <= 4:
        raise DomainError(f"rank {config.rank} outside [1, 4]")


class CompressedConfig(SpatialConfig):
    """Sizes derived from a parameter table of (L, p_v for ranks 1-2, p_v
    for ranks 3-4, beta) rows, shared by the Rel-16 and Rel-18 configs.

    A subclass sets ``PARAMS`` and ``PARAM_NAME`` and has the fields
    ``param_combination``, ``r``, ``n3`` and ``rank``.  Each derived size
    is computed once per config.
    """

    strongest_axis = SHIFT_AXIS

    def check_params(self) -> None:
        check_table(self)
        if self.r not in (1, 2):
            raise DomainError(f"R={self.r} not in {{1, 2}}")
        if self.rank > 2 and self.PARAMS[self.param_combination][2] is None:
            raise DomainError(f"{self.PARAM_NAME} {self.param_combination} "
                              "forbids rank > 2")

    @functools.cached_property
    def l(self) -> int:
        return self.PARAMS[self.param_combination][0]

    @functools.cached_property
    def beta(self) -> float:
        return self.PARAMS[self.param_combination][3]

    def p_v(self, rank: int | None = None) -> float:
        rank = self.rank if rank is None else rank
        value = self.PARAMS[self.param_combination][1 if rank <= 2 else 2]
        if value is None:
            raise DomainError("rank > 2 not supported by this combination")
        return value

    @functools.cached_property
    def mv(self) -> int:
        return compute_mv(self.p_v(), self.n3, self.r)

    @functools.cached_property
    def m1(self) -> int:
        return compute_mv(self.p_v(1), self.n3, self.r)

    @functools.cached_property
    def window_mode(self) -> bool:
        """True when the two-level (i15 + window) tap indication applies."""
        return self.n3 > 19

    @functools.cached_property
    def i16_count(self) -> int:
        return binomial(len(tap_choices(self)), self.mv - 1)


def grid(a: np.ndarray) -> np.ndarray:
    """View a report array (rank, K, Mv[, Q]) as (rank, K, Mv, Q)."""
    return a if a.ndim == 4 else a[..., None]


# ---------------------------------------------------------------------------
# spatial basis: i11/i12 (regular) or a block of ports (port selection)

def port_beams(p_csirs: int, ports) -> np.ndarray:
    """The selected ports as a (P/2, L) matrix of standard basis vectors."""
    return np.column_stack([port_selection_basis(p_csirs, d) for d in ports])


def port_blocks(config) -> int:
    """Number of port-selection i_1,1 values: blocks of L ports within P/2."""
    return (config.p_csirs // 2 - config.l) // config.d + 1


def check_beams(config, pmi) -> None:
    """Reject a malformed or out-of-range i11 or i12: a group pair and a
    beam combination, or a port block inside P/2 and no i12."""
    if config.variant == REGULAR:
        if not is_indices(pmi.i11, 2):
            raise FormatError(f"i_1,1={pmi.i11} must be a pair (q1, q2)")
        g = config.geom
        if not (0 <= pmi.i11[0] < g.o1 and 0 <= pmi.i11[1] < g.o2):
            raise DomainError(f"i_1,1={pmi.i11} outside [0, {g.o1}) x "
                              f"[0, {g.o2})")
        if not (is_index(pmi.i12)
                and 0 <= pmi.i12 < binomial(g.n1 * g.n2, config.l)):
            raise FormatError(f"i_1,2={pmi.i12} out of range")
        return
    if not is_index(pmi.i11):
        raise FormatError(f"i_1,1={pmi.i11} must be one block index")
    if not 0 <= pmi.i11 < port_blocks(config):
        raise DomainError(f"i_1,1={pmi.i11} outside [0, {port_blocks(config)})"
                          f": its {config.l} ports must fit in P/2")
    if pmi.i12 is not None:
        raise FormatError("i_1,2 must be absent for port selection")


def block_ports(config, i11: int) -> range:
    """The L ports of port block i11, from i11 * d."""
    start = i11 * config.d
    return range(start, start + config.l)


def port_block(config, i11: int) -> np.ndarray:
    """Port block i11 (``block_ports``) as a (P/2, L) matrix."""
    return port_beams(config.p_csirs, block_ports(config, i11))


def selected_beams(config, pmi) -> np.ndarray:
    """The (P/2, L) spatial basis of a report that passed ``check_beams``."""
    if config.variant != REGULAR:
        return port_block(config, pmi.i11)
    group = orthogonal_group(config.geom, *pmi.i11)
    return group[:, list(selected_flats(config, pmi))]


def grid_coordinates(geom, q, flats) -> tuple[np.ndarray, np.ndarray]:
    """Oversampled grid coordinates (O1*x1 + q1, O2*x2 + q2) of the beams of
    group q = (q1, q2) at in-group flat indices ``flats`` (x1 + N1*x2), as
    an (l, m) pair of index arrays."""
    x1, x2 = split_beam_index(np.asarray(flats), geom.n1)
    return geom.o1 * x1 + q[0], geom.o2 * x2 + q[1]


def selected_flats(config, pmi) -> tuple[int, ...]:
    """In-group flat indices of the L regular beams, decoded from i12."""
    g = config.geom
    return decode_combination(pmi.i12, g.n1 * g.n2, config.l)


def beam_grid_indices(config, pmi) -> list[tuple[int, int]]:
    """Oversampled grid coordinates (l, m) of the L regular beams of a
    report whose i11 and i12 pass ``check_beams``."""
    if config.variant != REGULAR:
        raise DomainError("beam grid indices apply to the regular variant")
    check_beams(config, pmi)
    l, m = grid_coordinates(config.geom, pmi.i11, selected_flats(config, pmi))
    return list(zip(l.tolist(), m.tolist()))


def spatial_gain(config) -> int:
    """Squared norm of a spatial basis vector: N1*N2 for DFT beams."""
    return config.geom.n1 * config.geom.n2 if config.variant == REGULAR else 1


def draw_beams(config, rng: np.random.Generator):
    """Random (i11, i12) for the regular or the port-selection variant."""
    if config.variant == REGULAR:
        g = config.geom
        i11 = (int(rng.integers(g.o1)), int(rng.integers(g.o2)))
        return i11, int(rng.integers(binomial(g.n1 * g.n2, config.l)))
    return int(rng.integers(port_blocks(config))), None


def beam_fields(config, pmi) -> list[tuple[int, int]]:
    """(value, bit width) of i11 and i12."""
    if config.variant == REGULAR:
        g = config.geom
        return [(pmi.i11[0] * g.o2 + pmi.i11[1], clog2(g.o1 * g.o2)),
                (pmi.i12, clog2(binomial(g.n1 * g.n2, config.l)))]
    return [(pmi.i11, clog2(-(-config.p_csirs // (2 * config.d))))]


# ---------------------------------------------------------------------------
# two-level tap indication: i15 (window start) and i16 (taps per layer)

def m_initial(config, pmi) -> int:
    """Window start M_initial decoded from i15 (absent unless N3 > 19)."""
    i15 = index_field(config, pmi, "i15",
                      2 * config.mv if config.window_mode else None)
    return 0 if not i15 else int(i15) - 2 * config.mv  # no uint8 wrap


def tap_choices(config, m_init: int = 0) -> list[int]:
    """The nonzero taps that i16 picks Mv - 1 of, in i16 order: 1..N3-1,
    or with N3 > 19 the window of raw values n = 1..2Mv-1 at M_initial
    ``m_init``, each n above M_initial + 2Mv - 1 wrapped by N3 - 2Mv."""
    mv, n3 = config.mv, config.n3
    if not config.window_mode:
        return list(range(1, n3))
    return [n if n <= m_init + 2 * mv - 1 else n + n3 - 2 * mv
            for n in range(1, 2 * mv)]


@functools.cache
def tap_positions(config, m_init: int):
    """``tap_choices`` at ``m_init`` as a tuple and a read-only map of each
    tap to its first position there, the rule of ``choices.index`` (the
    wrap of 2Mv > N3 repeats some taps); built once per config and
    M_initial."""
    choices = tuple(tap_choices(config, m_init))
    first = {}
    for i, tap in enumerate(choices):
        first.setdefault(tap, i)
    return choices, types.MappingProxyType(first)


def decode_taps(config, pmi) -> list[tuple[int, ...]]:
    """Each layer's tap indices n3^(0..Mv-1); n3^(0) = 0 is the (remapped)
    strongest tap."""
    choices = tap_positions(config, m_initial(config, pmi))[0]
    i16 = index_field(config, pmi, "i16", config.i16_count, per_layer=True)
    return [(0,) + tuple(choices[t] for t in decode_combination(
        v, len(choices), config.mv - 1)) for v in i16]


def encode_taps(config, taps, m_init: int = 0) -> tuple[int, int | None]:
    """Inverse of decode_taps: (i16, i15); taps[0] must be 0 and every other
    tap one of ``tap_choices`` at ``m_init``."""
    mv = config.mv
    taps = list(taps)
    if len(taps) != mv or taps[0] != 0:
        raise DomainError(f"need {mv} taps starting at 0, got {taps}")
    choices, position = tap_positions(config, m_init)

    def is_outside(tap) -> bool:
        try:
            return tap not in position
        except TypeError:   # unhashable, so no tap of the window
            return True

    outside = [t for t in taps[1:] if is_outside(t)]
    if outside:
        raise DomainError(f"tap {outside[0]} outside the taps i_1,6 can pick "
                          f"at M_initial={m_init}")
    i16 = encode_combination(sorted(map(position.__getitem__, taps[1:])),
                             len(choices), mv - 1)
    if not config.window_mode:
        return i16, None
    return i16, 0 if m_init == 0 else m_init + 2 * mv


def draw_taps(config, rng: np.random.Generator):
    """Random (i15, i16)."""
    mv = config.mv
    i15 = int(rng.integers(2 * mv)) if config.window_mode and mv > 1 else (
        0 if config.window_mode else None)
    return i15, tuple(int(rng.integers(config.i16_count))
                      for _ in range(config.rank))


def tap_fields(config, pmi) -> list[tuple]:
    """(values, bit width) of i15 (window mode only) and the layers' i16."""
    head = [(pmi.i15, clog2(2 * config.mv))] if config.window_mode else []
    return head + [(pmi.i16, clog2(config.i16_count))]


# ---------------------------------------------------------------------------
# the strongest coefficient: i_1,8

def _plane(config, layer_grid: np.ndarray) -> np.ndarray:
    """The (K, S) cells that may hold the strongest coefficient."""
    g = layer_grid.reshape(layer_grid.shape[:2] + (-1,))
    return g[:, :, 0] if config.strongest_axis == TAP_AXIS else g[:, 0, :]


def strongest_cell(config, i: int, s: int) -> tuple:
    """Grid cell (i, f, tau) of the strongest coefficient (i*, s*)."""
    return (i, s, 0) if config.strongest_axis == TAP_AXIS else (i, 0, s)


def _prefix_coded(config) -> bool:
    # with the strongest tap pinned to 0, rank 1 sends i18 as a position
    # among the reported coefficients of that plane, in (s, i) order
    return config.rank == 1 and config.strongest_axis == SHIFT_AXIS


def strongest(config, pmi) -> list[tuple[int, int]]:
    """Decode each layer's i_1,8 into (i*, s*): the beam and the tap
    (Rel-17) or the shift (Rel-16/18, s* = 0 without a shift axis) of the
    strongest coefficient."""
    bitmap, = report_arrays(pmi, (("bitmap", config.coef_shape),))
    i18 = index_field(config, pmi, "i18", _plane(config, bitmap[0]).size,
                      per_layer=True)
    return [_star(config, b, i) for b, i in zip(bitmap, i18)]


def _star(config, bitmap_layer: np.ndarray, i18: int) -> tuple[int, int]:
    """``strongest`` of one layer, its bitmap and its i_1,8 given."""
    plane = _plane(config, bitmap_layer)
    if _prefix_coded(config):
        col = np.flatnonzero(plane.T)
        if not 0 <= i18 < col.size:
            raise FormatError(f"i_1,8={i18} has no matching set bit at tap 0")
        i18 = int(col[i18])
    elif not 0 <= i18 < plane.size:
        raise FormatError(f"i_1,8={i18} outside [0, {plane.size})")
    return i18 % plane.shape[0], i18 // plane.shape[0]


def encode_strongest(config, bitmap_layer: np.ndarray, i_star: int,
                     s_star: int = 0) -> int:
    """i_1,8 for one layer whose strongest coefficient is (i*, s*); a cell
    off the layer's plane, or (rank 1 with the strongest tap pinned) one
    the bitmap does not report, raises DomainError."""
    sizes = bitmap_layer.shape + (1,)  # (K, Mv[, Q], 1)
    check_index("i*", i_star, sizes[0])
    check_index("s*", s_star, sizes[config.strongest_axis])
    flat = sizes[0] * s_star + i_star
    if not _prefix_coded(config):
        return int(flat)
    plane = _plane(config, bitmap_layer)
    if not plane[i_star, s_star]:
        raise DomainError(f"(i*, s*)=({i_star}, {s_star}) is not reported")
    return int(plane.T.reshape(-1)[:flat + 1].sum()) - 1


# ---------------------------------------------------------------------------
# validation, coefficients, synthesis

def report_arrays(pmi, fields) -> list[np.ndarray]:
    """The report's coefficient arrays named in ``fields``, (name, shape)
    pairs, each read once as an array.  FormatError names the first of
    another shape, then the first that is not an integer array (bool and
    float arrays are not).  An unsigned array is read as int64, so a value
    beyond int64 turns negative and fails its range check."""
    arrays = []
    for name, shape in fields:
        try:
            a = np.asarray(getattr(pmi, name))
        except ValueError:  # a ragged nested list
            a = None
        if a is None or a.shape != shape:
            raise FormatError(f"{name} must have shape {shape}")
        arrays.append(a)
    for (name, _), a in zip(fields, arrays):
        if a.dtype.kind not in "iu":
            raise FormatError(f"{name} must be an integer array, not {a.dtype}")
    return [a.astype(np.int64) if a.dtype.kind == "u" else a for a in arrays]


# the arrays of a report that passed validate_budget, as report_arrays read
# them; layer_coefficients and synthesize take them in place of the report
Coefficients = collections.namedtuple("Coefficients", "bitmap k1 k2 c")


def validate_budget(config, pmi, layer_fields) -> Coefficients:
    """Reject a report whose per-layer fields (named by ``layer_fields``)
    or coefficient arrays are malformed, out of range, inconsistent with
    the strongest coefficient, or over the nonzero-coefficient budget;
    return its ``Coefficients``."""
    rank = config.rank
    for name in layer_fields:  # "i16" is i_1,6, ..., "i110" is i_1,10
        if not is_indices(getattr(pmi, name), rank):
            raise FormatError(f"i_1,{name[2:]} must hold one index per layer")
    shape = config.coef_shape
    bitmap, k2, c, k1 = report_arrays(pmi, (
        ("bitmap", shape), ("k2", shape), ("c", shape), ("k1", (rank, 2))))
    if np.count_nonzero(bitmap >> 1):
        raise FormatError("bitmap entries must be 0 or 1")
    k0 = config.k0
    k_nz = bitmap.reshape(rank, -1).sum(axis=1).tolist()
    for layer, count in enumerate(k_nz):
        if count > k0:
            raise BudgetError(f"layer {layer}: K_NZ={count} exceeds K0={k0}")
    if sum(k_nz) > 2 * k0:
        raise BudgetError(f"total K_NZ={sum(k_nz)} exceeds 2*K0={2 * k0}")
    k1_rows = k1.tolist()
    if not all(1 <= v <= 15 for row in k1_rows for v in row):
        raise DomainError("k1 outside [1, 15]")
    # one pass: a reported k2 in [0, 8) and c in [0, 16) shift to 0 by 3 and
    # 4 bits, an unreported one must be 0 already
    if np.count_nonzero((k2 >> 3 * bitmap) | (c >> 4 * bitmap)):
        on = bitmap == 1
        if (on & ((k2 < 0) | (k2 > 7))).any():
            raise DomainError("k2 outside [0, 7]")
        if (on & ((c < 0) | (c >= N_PSK16))).any():
            raise DomainError(f"phase index outside [0, {N_PSK16})")
        raise ConsistencyError("unreported coefficients must be zero")
    g_bitmap, g_k2, g_c = grid(bitmap), grid(k2), grid(c)
    for layer, i18 in enumerate(pmi.i18):
        i_star, s_star = _star(config, bitmap[layer], i18)
        cell = (layer,) + strongest_cell(config, i_star, s_star)
        if not g_bitmap[cell]:
            raise ConsistencyError("strongest coefficient must be reported")
        if g_k2[cell] != 7 or g_c[cell] != 0:
            raise ConsistencyError("strongest coefficient must carry k2=7, c=0")
        if k1_rows[layer][i_star // config.l] != 15:
            raise ConsistencyError("strongest polarization must carry k1=15")
    return Coefficients(bitmap, k1, k2, c)


def layer_cap(config, layer: int, left: int) -> int:
    """The budget rule: the most coefficients layer ``layer`` may report
    when the earlier layers left ``left`` of the 2*K0 total, K0 at most
    and one kept back for each later layer's strongest coefficient."""
    cap = min(config.k0, left - (config.rank - layer - 1))
    if cap < 1:
        raise BudgetError("budget cannot host one coefficient per layer")
    return cap


def layer_coefficients(config, pmi) -> np.ndarray:
    """Complex coefficient grids (rank, K, Mv[, Q]) of every layer: p1 * p2
    * phi, zeros where unreported.  ``pmi`` is a valid report or its
    ``Coefficients``."""
    p1 = WB_AMPS[pmi.k1]                 # (rank, 2)
    p2 = SB_AMPS[pmi.k2]                 # (rank, K, Mv[, Q])
    pol = np.repeat(p1, config.l, axis=-1)
    pol = pol.reshape(pol.shape + (1,) * (p2.ndim - pol.ndim))
    return pol * p2 * PSK16[pmi.c] * pmi.bitmap


@functools.cache
def _dft_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row indices t (n, 1) and the table exp(2j pi t k / n) as [t, k] for
    every k < 2n, which holds every tap and shift a report decodes to;
    built once per n with the expression of the columns it serves."""
    t = np.arange(n)[:, None]
    table = np.exp(2j * np.pi * (t * np.arange(2 * n)) / n)
    table.flags.writeable = False
    return t, table


def _dft(n: int, indices) -> np.ndarray:
    """DFT columns exp(2j pi t k / n) for each layer's indices k: (rank, n,
    K) for ``indices`` (rank, K)."""
    t, table = _dft_table(n)
    return table[t, np.asarray(indices)[:, None, :]]


def synthesize(config, pmi, v: np.ndarray, taps, shifts=None) -> np.ndarray:
    """Precoders from the spatial basis ``v`` (P/2, L) and each layer's taps
    (and shifts), all layers in one pass: ``tap_stage``, then
    ``basis_stage``.  Raises DegenerateReportError when a layer has no
    energy at some point, which leaves its precoder undefined.

    Returns (N3, P, rank), or (N3, N4, P, rank) when shifts are given (the
    report has a shift axis).
    """
    ct, gamma, bad = tap_stage(config, pmi, taps, shifts)
    if bad.any():
        raise DegenerateReportError(f"layer {int(np.argmax(bad))} has zero "
                                    "energy at some frequency unit")
    return basis_stage(config, v, ct, gamma)


def tap_stage(config, pmi, taps, shifts=None):
    """Coefficients carried to every frequency unit (and slot interval):
    ``ct`` (layers, K, N3[, N4]), each layer's energy ``gamma`` (layers,
    N3[, N4]) and its degeneracy flag, True where the layer has no energy
    at some point.  ``pmi`` holds the coefficient arrays of one report, or
    (in a search) of several candidates' layers stacked, with one row of
    ``taps`` (and ``shifts``) per layer."""
    coef = layer_coefficients(config, pmi)                 # (rows, K, Mv[, Q])
    y = _dft(config.n3, taps)                              # (rows, N3, Mv)
    if shifts is None:
        ct = coef @ y.swapaxes(1, 2)                       # (rows, K, N3)
    else:
        z = _dft(config.n4, shifts)                        # (rows, N4, Q)
        ct = np.einsum("kifq,ktf,knq->kitn", coef, y, z)   # (rows, K, N3, N4)
    gamma = (np.abs(ct) ** 2).sum(axis=1)                  # (rows, N3[, N4])
    points = tuple(range(1, gamma.ndim))
    bad = (gamma <= 1e-12 * gamma.max(axis=points, keepdims=True)).any(
        axis=points)
    return ct, gamma, bad


def basis_stage(config, v: np.ndarray, ct: np.ndarray,
                gamma: np.ndarray) -> np.ndarray:
    """Precoders from the spatial basis ``v`` (P/2, L) and ``tap_stage``'s
    ``ct`` and ``gamma``: each polarization's beams, normalized per point
    and layer."""
    gain, points = spatial_gain(config), ct.shape[2:]
    halves = ct.reshape(len(ct), 2, config.l, *points)  # (rank, 2, L, ...)
    if ct.ndim == 3:
        w = v @ halves
    else:
        w = np.einsum("pl,kqltn->kqptn", v, halves)
    normed = (w.reshape(len(ct), -1, *points) / np.sqrt(gain * gamma)[:, None]
              / math.sqrt(config.rank))                # (rank, P, N3[, N4])
    return np.ascontiguousarray(normed.transpose(*range(2, normed.ndim), 1, 0))


def check_index(name: str, value, count: int) -> None:
    """Reject ``value`` unless it is an integer index into ``count`` items
    (a subband, a beam or a grid cell), naming it."""
    if not (is_index(value) and 0 <= value < count):
        raise DomainError(f"{name} {value} outside [0, {count})")


def index_field(config, pmi, name: str, count: int | None,
                per_layer: bool = False):
    """The one reader of index field ``name`` ("i15" is i_1,5): None where
    ``count`` is None, else an integer (no bool or float) in [0, count),
    or for a ``per_layer`` field a tuple of one such integer per layer.
    Raises FormatError naming the field, and the first bad entry of a
    per-layer field."""
    value = getattr(pmi, name)
    if count is None:
        if value is not None:
            raise FormatError(f"i_1,{name[2:]} must be absent")
        return None
    if per_layer and not is_indices(value, config.rank):
        raise FormatError(f"i_1,{name[2:]} must hold one index per layer")
    for v in value if per_layer else (value,):
        if not (is_index(v) and 0 <= v < count):
            raise FormatError(f"i_1,{name[2:]}={v} outside [0, {count})")
    return value


# ---------------------------------------------------------------------------
# random reports

def draw_coefficients(config, rng: np.random.Generator):
    """Random (i18, bitmap, k1, k2, c) within the budget.

    Per layer: K_NZ, the strongest coefficient (i*, then s* along its free
    axis; a length-1 axis draws nothing), the other reported cells, then
    k2 and c per reported cell and the weaker polarization's k1.
    """
    rank = config.rank
    shape = config.coef_shape
    bitmap = np.zeros(shape, dtype=np.int8)
    k1 = np.ones((rank, 2), dtype=int)
    k2 = np.zeros(shape, dtype=int)
    c = np.zeros(shape, dtype=int)
    g_bitmap, g_k2, g_c = grid(bitmap), grid(k2), grid(c)
    sizes = g_bitmap.shape[1:]
    left = 2 * config.k0
    i18 = []
    for layer in range(rank):
        k_nz = int(rng.integers(1, layer_cap(config, layer, left) + 1))
        left -= k_nz
        i_star = int(rng.integers(sizes[0]))
        s_star = int(rng.integers(sizes[config.strongest_axis]))
        star = strongest_cell(config, i_star, s_star)
        cells = [cell for cell in itertools.product(*map(range, sizes))
                 if cell != star]
        rng.shuffle(cells)
        for cell in [star] + cells[:k_nz - 1]:
            g_bitmap[layer][cell] = 1
            g_k2[layer][cell] = int(rng.integers(8))
            g_c[layer][cell] = int(rng.integers(N_PSK16))
        p_star = i_star // config.l
        k1[layer, p_star] = 15
        k1[layer, 1 - p_star] = int(rng.integers(1, 16))
        g_k2[layer][star] = 7
        g_c[layer][star] = 0
        i18.append(encode_strongest(config, bitmap[layer], i_star, s_star))
    return tuple(i18), bitmap, k1, k2, c


def redraw(config, draw, reconstruct_all):
    """Call ``draw()`` until its report is not degenerate (its coefficients
    cancel at no frequency unit, which would leave the precoder undefined);
    returns the report and the precoders ``reconstruct_all`` built to
    check it."""
    for _ in range(100):
        pmi = draw()
        try:
            return pmi, reconstruct_all(config, pmi)
        except DegenerateReportError:
            continue
    raise DegenerateReportError("could not draw a non-degenerate report")


# ---------------------------------------------------------------------------
# bit serialization

def serialize(config, pmi, head, tail=()) -> str:
    """Report bits, MSB first: the ``head`` fields, each layer's bitmap
    (tap-major, then shift, beams ascending), each layer's i18, the
    ``tail`` fields, then i2: the weaker polarization's k1 per layer and
    the k2, then c, of every reported coefficient but the strongest.

    ``head`` and ``tail`` are the release's other i1 fields as (values, bit
    width) segments.
    """
    bitmap, k2, c = (grid(np.asarray(a)) for a in (pmi.bitmap, pmi.k2, pmi.c))
    rows = np.arange(config.rank)
    i_star, s_star = np.array([_star(config, bitmap[layer], i18)
                               for layer, i18 in enumerate(pmi.i18)]).T
    # reported, and not the strongest cell
    others = bitmap == 1
    others[(rows,) + strongest_cell(config, i_star, s_star)] = False
    segments = [*head, (bitmap.transpose(0, 2, 3, 1), 1),
                (pmi.i18, clog2(_plane(config, bitmap[0]).size)), *tail,
                (np.asarray(pmi.k1)[rows, 1 - i_star // config.l], 4),
                (k2[others], 3), (c[others], 4)]
    return "".join(array_bits(v, w) for v, w in segments)
