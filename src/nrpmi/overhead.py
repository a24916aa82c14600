"""Feedback bit accounting for the i1/i2 information elements per release.

Each field cost follows the published per-element bit formulas (stated for
rank 2; layer-indexed fields scale linearly with rank).  Totals follow the
reporting structure: Rel-15 repeats its i2 slice for every subband, Rel-15
through Rel-17 repeat the whole report for every slot interval, and Rel-18
sends a single predictive report covering all intervals.

The i2 rows (i_2,3/4/5) price every release alike, with the nonzero
coefficient count K_NZ counted over all layers; the Rel-15 i_2,1/i_2,2 rows
take the number of priced entries from the subband count.
"""

import math
from dataclasses import dataclass, field

from .combinadics import binomial, clog2
from .errors import DomainError

RELEASES = ("r15-type2", "r15-ps", "r16", "r16-ps", "r17-ps", "r18")

I1_FIELDS = ("i11", "i12", "i13l", "i14l", "i15", "i16l", "i17l", "i18l",
             "i110l")
I2_FIELDS = ("i21l", "i22l", "i23l", "i24l", "i25l")
LAYER_FIELDS = {"i13l", "i14l", "i16l", "i17l", "i18l", "i110l", "i21l",
                "i22l", "i23l"}


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
        if self.release not in RELEASES:
            raise DomainError(f"release {self.release!r} not in {RELEASES}")
        # K_NZ counts every layer's strongest coefficient, and i_2,4/i_2,5
        # price K_NZ - 2 entries: below max(2, rank) no report exists
        if self.k_nz < max(2, self.rank):
            raise DomainError(f"k_nz={self.k_nz} below max(2, rank="
                              f"{self.rank})")


def _field_bits_i1(cfg: OverheadConfig, fld: str) -> int | None:
    """Per-layer (or per-report) bit cost of one i1 element; None = N/A."""
    r = cfg.release
    if fld == "i11":
        if r in ("r15-type2", "r16", "r18"):
            return clog2(cfg.o1o2)
        if r in ("r15-ps", "r16-ps"):
            return clog2(math.ceil(cfg.p_csirs / (2 * cfg.d)))
        return None
    if fld == "i12":
        if r in ("r15-type2", "r16", "r18"):
            return clog2(binomial(cfg.n1n2, cfg.l))
        if r == "r17-ps":
            return clog2(binomial(cfg.p_csirs // 2, cfg.k1_beams // 2))
        return None
    if fld == "i13l":
        return clog2(2 * cfg.l) if r in ("r15-type2", "r15-ps") else None
    if fld == "i14l":
        return 3 * (2 * cfg.l - 1) if r in ("r15-type2", "r15-ps") else None
    if fld == "i15":
        if r in ("r16", "r16-ps", "r18"):
            return clog2(2 * cfg.mv) if cfg.n3 > 19 else 0
        return None
    if fld == "i16l":
        if r in ("r16", "r16-ps", "r18"):
            if cfg.n3 > 19:
                return clog2(binomial(2 * cfg.mv - 1, cfg.mv - 1))
            return clog2(binomial(cfg.n3 - 1, cfg.mv - 1))
        if r == "r17-ps":
            return 0 if cfg.m_taps == 1 else clog2(cfg.n_window - 1)
        return None
    if fld == "i17l":
        if r in ("r16", "r16-ps"):
            return 4 * cfg.l * cfg.mv
        if r == "r17-ps":
            return 2 * cfg.k1_beams * cfg.m_taps
        if r == "r18":
            return 4 * cfg.l * cfg.mv * cfg.q
        return None
    if fld == "i18l":
        if r in ("r16", "r16-ps"):
            return clog2(2 * cfg.l)
        if r == "r17-ps":
            return clog2(cfg.k1_beams * cfg.m_taps)
        if r == "r18":
            return clog2(2 * cfg.l * cfg.q)
        return None
    if fld == "i110l":
        if r == "r18":
            return clog2(cfg.n4 - 1) if cfg.n4 > 1 else 0
        return None
    raise DomainError(f"unknown i1 field {fld!r}")


def _field_bits_i2(cfg: OverheadConfig, fld: str) -> int | None:
    r = cfg.release
    log_psk = int(math.log2(cfg.n_psk))
    if fld == "i21l":
        if r in ("r15-type2", "r15-ps"):
            m = min(cfg.subband_count, cfg.k2_cap)
            return m * log_psk - log_psk + 2 * (cfg.subband_count - m)
        return None
    if fld == "i22l":
        if r in ("r15-type2", "r15-ps"):
            return min(cfg.subband_count, cfg.k2_cap) - 1
        return None
    if fld == "i23l":
        return 4
    if fld == "i24l":
        return 3 * (cfg.k_nz - 2)
    if fld == "i25l":
        return 4 * (cfg.k_nz - 2)
    raise DomainError(f"unknown i2 field {fld!r}")


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


def _budget(cfg: OverheadConfig, fields, field_bits) -> BitBudget:
    budget = BitBudget()
    for fld in fields:
        bits = field_bits(cfg, fld)
        if bits is None:
            continue
        # K_NZ-priced i2 fields already count every layer's coefficients
        layers = range(1, cfg.rank + 1) if fld in LAYER_FIELDS else (None,)
        for layer in layers:
            budget.add(fld, layer, bits)
    return budget


def bits_i1(cfg: OverheadConfig) -> BitBudget:
    """i1 bit budget for one report; N/A fields contribute nothing."""
    return _budget(cfg, I1_FIELDS, _field_bits_i1)


def bits_i2(cfg: OverheadConfig) -> BitBudget:
    """i2 bit budget for one report (one subband's worth for Rel-15)."""
    return _budget(cfg, I2_FIELDS, _field_bits_i2)


def total_bits(cfg: OverheadConfig) -> int:
    """Feedback bits to supply precoders for all subbands and intervals.

    Rel-15 reports its i2 slice per subband; Rel-15/16/17 repeat the full
    report for each of the n4 intervals; Rel-18 predicts all intervals from
    a single report.
    """
    i1 = bits_i1(cfg).total
    i2 = bits_i2(cfg).total
    if cfg.release in ("r15-type2", "r15-ps"):
        per_interval = i1 + cfg.subband_count * i2
    else:
        per_interval = i1 + i2
    intervals = 1 if cfg.release == "r18" else cfg.n4
    return intervals * per_interval


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
