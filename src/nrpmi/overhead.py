"""Feedback bit accounting for the i1/i2 information elements per release.

Each release is one row of ``ROWS``: the fields it reports, each with its
published bit formula (stated for rank 2; layer-indexed fields scale
linearly with rank), and its reporting structure.  Rel-15 repeats its i2
slice for every subband, Rel-15 through Rel-17 repeat the whole report for
every slot interval, and Rel-18 sends a single predictive report covering
all intervals.

The i2 coefficient fields (i_2,3/4/5) price every release alike, with the
nonzero coefficient count K_NZ counted over all layers; the Rel-15
i_2,1/i_2,2 fields take the number of priced entries from the subband count.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass, field

from . import enhanced, type2_r17, type2_r18
from .combinadics import binomial, check_int, check_int_fields, clog2
from .errors import DomainError

# fields priced once per layer; the K_NZ-priced i24l/i25l count all layers
LAYER_FIELDS = {"i13l", "i14l", "i16l", "i17l", "i18l", "i110l", "i21l",
                "i22l", "i23l"}


def _r15_i21(c) -> int:
    m = min(c.subband_count, c.k2_cap)
    log_psk = int(math.log2(c.n_psk))
    return m * log_psk - log_psk + 2 * (c.subband_count - m)


def _bitmap(grid) -> tuple:
    """i_1,7 and i_1,8 of a layer's coefficient grid: ``grid(cfg)`` gives its
    rows, its columns and the columns the strongest coefficient may take."""
    return (("i17l", lambda c: 2 * grid(c)[0] * grid(c)[1]),
            ("i18l", lambda c: clog2(grid(c)[0] * grid(c)[2])))


# (field, bit formula) groups the release rows share
REGULAR_BEAMS = (("i11", lambda c: clog2(c.o1o2)),
                 ("i12", lambda c: clog2(binomial(c.n1n2, c.l))))
PORT_BLOCK = (("i11", lambda c: clog2(math.ceil(c.p_csirs / (2 * c.d)))),)
R15_I1 = (("i13l", lambda c: clog2(2 * c.l)),
          ("i14l", lambda c: 3 * (2 * c.l - 1)))
R15_I2 = (("i21l", _r15_i21),
          ("i22l", lambda c: min(c.subband_count, c.k2_cap) - 1))
# N3 > 19 switches to the window start i15 and the windowed tap formula
TAPS = (("i15", lambda c: clog2(2 * c.mv) if c.n3 > 19 else 0),
        ("i16l", lambda c: clog2(binomial(2 * c.mv - 1, c.mv - 1))
         if c.n3 > 19 else clog2(binomial(c.n3 - 1, c.mv - 1))))
R16_BITMAP = _bitmap(lambda c: (2 * c.l, c.mv, 1))
COEFFICIENTS = (("i23l", lambda c: 4),
                ("i24l", lambda c: 3 * (c.k_nz - 2)),
                ("i25l", lambda c: 4 * (c.k_nz - 2)))


@dataclass(frozen=True)
class ReleaseRow:
    """The fields one release reports and how often it reports them."""

    i1: tuple[tuple[str, Callable], ...]
    i2: tuple[tuple[str, Callable], ...]
    i2_per_subband: bool = False  # Rel-15: one i2 slice per subband
    one_report: bool = False      # Rel-18: one report for all N4 intervals


ROWS = {
    "r15-type2": ReleaseRow(REGULAR_BEAMS + R15_I1, R15_I2 + COEFFICIENTS,
                            i2_per_subband=True),
    "r15-ps": ReleaseRow(PORT_BLOCK + R15_I1, R15_I2 + COEFFICIENTS,
                         i2_per_subband=True),
    "r16": ReleaseRow(REGULAR_BEAMS + TAPS + R16_BITMAP, COEFFICIENTS),
    "r16-ps": ReleaseRow(PORT_BLOCK + TAPS + R16_BITMAP, COEFFICIENTS),
    "r17-ps": ReleaseRow(
        (("i12", lambda c: clog2(binomial(c.p_csirs // 2, c.k1_beams // 2))),
         ("i16l", lambda c: 0 if c.m_taps == 1 else clog2(c.n_window - 1)))
        + _bitmap(lambda c: (c.k1_beams, c.m_taps, c.m_taps)),
        COEFFICIENTS),
    "r18": ReleaseRow(
        REGULAR_BEAMS + TAPS + _bitmap(lambda c: (2 * c.l, c.mv * c.q, c.q))
        + (("i110l", lambda c: clog2(c.n4 - 1) if c.n4 > 1 else 0),),
        COEFFICIENTS, one_report=True),
}
RELEASES = tuple(ROWS)


@dataclass(frozen=True)
class OverheadConfig:
    """Parameter bundle; release-irrelevant fields may be left at defaults."""

    release: str
    rank: int = 2
    l: int = 4
    n1n2: int = 16
    o1o2: int = 4
    p_csirs: int = 32
    d: int = 1
    mv: int = 5
    n3: int = 18
    subband_count: int = 18
    n4: int = 4
    q: int = 2
    n_psk: int = 4
    k2_cap: int = 6       # K^(2), max subband amplitudes per layer
    k_nz: int = 20        # total nonzero coefficients across layers
    k1_beams: int = 16    # K1 (Rel-17)
    m_taps: int = 1       # M (Rel-17)
    n_window: int = 2     # N (Rel-17)

    def __post_init__(self):
        if self.release not in ROWS:
            raise DomainError(f"release {self.release!r} not in {RELEASES}")
        check_int_fields(self, "p_csirs", "n_psk", "k_nz", "m_taps",
                         "n_window")
        for name in ("rank", "l", "d", "mv", "n3", "n4", "q", "subband_count",
                     "n1n2", "o1o2", "k2_cap", "k1_beams"):
            check_int(name, getattr(self, name), 1)
        enhanced.check_port_count(self.p_csirs)
        for name, allowed in (("n_psk", (4, 8)),
                              ("m_taps", type2_r17.TAP_COUNTS),
                              ("n_window", type2_r17.N_THRESHOLDS)):
            if getattr(self, name) not in allowed:
                raise DomainError(f"{name}={getattr(self, name)} not in "
                                  f"{allowed}")
        if self.k1_beams % 2:
            raise DomainError(f"k1_beams={self.k1_beams} must be even")
        # a bound between two fields holds where the release prices both
        for name, bound, releases in (
                ("l", "n1n2", ("r15-type2", "r16", "r18")),
                ("mv", "n3", ("r16", "r16-ps", "r18")),
                ("k1_beams", "p_csirs", ("r17-ps",))):
            if self.release in releases and \
                    getattr(self, name) > getattr(self, bound):
                raise DomainError(f"{name}={getattr(self, name)} exceeds "
                                  f"{bound}={getattr(self, bound)}")
        # the codebooks' own bounds: port selection's L and d, Rel-18's N4
        # and the Q shifts it implies
        if self.release in ("r15-ps", "r16-ps"):
            max_l, max_d = enhanced.port_bounds(self.p_csirs, self.l)
            if self.l > max_l:
                raise DomainError(f"l={self.l} exceeds P/2={max_l}")
            if self.d > max_d:
                raise DomainError(f"d={self.d} exceeds min(P/2, L)={max_d}")
        if self.release == "r18":
            if self.n4 not in type2_r18.N4_VALUES:
                raise DomainError(f"n4={self.n4} not in "
                                  f"{type2_r18.N4_VALUES}")
            q = type2_r18.shift_count(self.n4)
            if self.q != q:
                raise DomainError(f"q={self.q} is not the {q} shift(s) of "
                                  f"n4={self.n4}")
        # K_NZ counts every layer's strongest coefficient, and i_2,4/i_2,5
        # price K_NZ - 2 entries: below max(2, rank) no report exists
        if self.k_nz < max(2, self.rank):
            raise DomainError(f"k_nz={self.k_nz} below max(2, rank="
                              f"{self.rank})")


@dataclass
class BitBudget:
    """Per-field bit counts; layer-indexed fields are stored per layer."""

    entries: dict[tuple[str, int | None], int] = field(default_factory=dict)

    def add(self, fld: str, layer: int | None, bits: int) -> None:
        self.entries[(fld, layer)] = bits

    @property
    def total(self) -> int:
        return sum(self.entries.values())

    def field_total(self, fld: str) -> int:
        return sum(v for (f, _), v in self.entries.items() if f == fld)


def _budget(cfg: OverheadConfig, fields) -> BitBudget:
    budget = BitBudget()
    for fld, formula in fields:
        bits = formula(cfg)
        for layer in range(1, cfg.rank + 1) if fld in LAYER_FIELDS else (None,):
            budget.add(fld, layer, bits)
    return budget


def bits_i1(cfg: OverheadConfig) -> BitBudget:
    """i1 bit budget for one report; fields the release lacks are absent."""
    return _budget(cfg, ROWS[cfg.release].i1)


def bits_i2(cfg: OverheadConfig) -> BitBudget:
    """i2 bit budget for one report (one subband's worth for Rel-15)."""
    return _budget(cfg, ROWS[cfg.release].i2)


def total_bits(cfg: OverheadConfig) -> int:
    """Feedback bits to supply precoders for all subbands and intervals."""
    row = ROWS[cfg.release]
    i2_reports = cfg.subband_count if row.i2_per_subband else 1
    per_report = bits_i1(cfg).total + i2_reports * bits_i2(cfg).total
    return per_report * (1 if row.one_report else cfg.n4)


def overhead_rows(cfg: OverheadConfig) -> list[dict]:
    """CSV-ready rows: release, L, field, bits, total (one row per field)."""
    rows = []
    total = total_bits(cfg)
    for budget in (bits_i1(cfg), bits_i2(cfg)):
        for (fld, layer), bits in sorted(budget.entries.items(),
                                         key=lambda kv: (kv[0][0], kv[0][1] or 0)):
            name = fld if layer is None else f"{fld}[{layer}]"
            rows.append({"release": cfg.release, "L": cfg.l, "field": name,
                         "bits": bits, "total": total})
    return rows
