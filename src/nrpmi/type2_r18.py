"""Rel-18 Enhanced Type II codebook for predicted PMI (Doppler compression).

On top of the Rel-16 space-frequency compression, the combination weights
for N4 consecutive slot intervals are synthesized from Q = 2 Doppler-domain
DFT shifts (TS 38.214 Table 5.2.2.2.10-2).  With N4 = 1 the codebook
degrades exactly to the Rel-16 Enhanced Type II codebook.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import enhanced
from .bases import ArrayGeometry
from .combinadics import check_int_fields, clog2, is_index, read_bits
from .errors import DomainError

Q_SHIFTS = 2  # frozen by the protocol

# paramCombination-Doppler-r18 -> (L, p_v ranks 1-2, p_v ranks 3-4, beta)
PARAM_COMBINATIONS: dict[int, tuple[int, float, float | None, float]] = {
    1: (2, 1 / 8, 1 / 16, 1 / 4),
    2: (2, 1 / 4, 1 / 8, 1 / 2),
    3: (4, 1 / 4, 1 / 8, 1 / 4),
    4: (4, 1 / 4, 1 / 4, 1 / 4),
    5: (4, 1 / 4, 1 / 4, 1 / 2),
    6: (4, 1 / 4, 1 / 4, 3 / 4),
    7: (4, 1 / 2, 1 / 4, 1 / 2),
    8: (6, 1 / 4, None, 1 / 2),
    9: (6, 1 / 4, None, 3 / 4),
}


def check_ri_restriction(bits, rank: int) -> bool:
    """typeII-Doppler-RI-Restriction: bit r_{rank-1} = 0 prohibits the rank.

    ``bits`` is given MSB first (r3 r2 r1 r0), e.g. "0001" allows rank 1 only.
    """
    seq = read_bits(bits, 4, "RI restriction r3..r0")
    if not (is_index(rank) and 1 <= rank <= 4):
        raise DomainError(f"rank {rank} outside [1, 4]")
    return bool(seq[4 - rank])


@dataclass(frozen=True)
class R18Config(enhanced.CompressedConfig):
    geom: ArrayGeometry
    param_combination: int
    r: int
    n3: int
    n4: int
    rank: int = 1

    PARAMS = PARAM_COMBINATIONS
    PARAM_NAME = "paramCombination-Doppler-r18"
    variant = enhanced.REGULAR

    def __post_init__(self):
        check_int_fields(self, "param_combination", "r", "n3", "n4", "rank")
        self.check_params()
        self.check_variant()
        if self.n4 not in (1, 2, 4, 8):
            raise DomainError(f"N4={self.n4} not in {{1, 2, 4, 8}}")

    @enhanced.derived
    def q(self) -> int:
        return Q_SHIFTS if self.n4 > 1 else 1

    @enhanced.derived
    def k0(self) -> int:
        return math.ceil(2 * self.beta * self.l * self.m1 * Q_SHIFTS)

    @enhanced.derived
    def coef_shape(self) -> tuple[int, int, int, int]:
        return (self.rank, 2 * self.l, self.mv, self.q)


@dataclass(frozen=True)
class R18Pmi:
    """Index fields of one predicted-PMI report.

    Relative to the Rel-16 report, the coefficient grids gain a shift axis:
    ``bitmap``, ``k2`` and ``c`` have shape (rank, 2L, Mv, Q') where Q' is 2,
    or 1 when N4 = 1.  ``i110`` holds one shift offset per layer (None when
    N4 = 1).
    """

    i11: tuple[int, int]
    i12: int
    i15: int | None
    i16: tuple[int, ...]
    i18: tuple[int, ...]
    i110: tuple[int, ...] | None
    bitmap: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    c: np.ndarray


def decode_shifts(config: R18Config, pmi: R18Pmi) -> list[tuple[int, ...]]:
    """Each layer's Doppler shift indices n4^(tau); the reference shift is
    always 0."""
    i110 = enhanced.index_field(config, pmi, "i110", (
        config.n4 - 1 if config.n4 > 1 else None), per_layer=True)
    return ([(0,)] * config.rank if i110 is None
            else [(0, v + 1) for v in i110])


def validate_budget(config: R18Config, pmi: R18Pmi) -> enhanced.Coefficients:
    """Enforce the nonzero-coefficient budget, ranges and consistency;
    return the report's ``enhanced.Coefficients``."""
    enhanced.check_beams(config, pmi)
    return enhanced.validate_budget(config, pmi, ("i16", "i18") + (
        ("i110",) if config.n4 > 1 else ()))


def reconstruct_all(config: R18Config, pmi: R18Pmi) -> np.ndarray:
    """Precoders for every (t, iota), shape (N3, N4, P, rank)."""
    coefficients = validate_budget(config, pmi)
    return enhanced.synthesize(config, coefficients,
                               enhanced.selected_beams(config, pmi),
                               enhanced.decode_taps(config, pmi),
                               decode_shifts(config, pmi))


def reconstruct(config: R18Config, pmi: R18Pmi, t: int, iota: int) -> np.ndarray:
    """Precoding matrix (P, rank) for frequency unit t and slot interval iota."""
    enhanced.check_point(config, t, iota)
    return reconstruct_all(config, pmi)[t, iota]


def random_report(config: R18Config, rng: np.random.Generator):
    """A random internally consistent report, redrawn while degenerate, and
    its precoders (``reconstruct_all``)."""
    def draw():
        beams = enhanced.draw_beams(config, rng)
        taps = enhanced.draw_taps(config, rng)
        i110 = (tuple(int(rng.integers(config.n4 - 1))
                      for _ in range(config.rank)) if config.n4 > 1 else None)
        i18, *coefficients = enhanced.draw_coefficients(config, rng)
        return R18Pmi(*beams, *taps, i18, i110, *coefficients)
    return enhanced.redraw(config, draw, reconstruct_all)


def random_valid_pmi(config: R18Config, rng: np.random.Generator) -> R18Pmi:
    """Draw a random internally consistent report: ``random_report``'s."""
    return random_report(config, rng)[0]


def serialize_pmi(config: R18Config, pmi: R18Pmi) -> str:
    """Report bits, MSB first: i11, i12, i15, i16 per layer, then as in
    ``enhanced.serialize`` with i110 per layer (N4 > 1) after i18.
    Rejects what ``reconstruct_all`` rejects."""
    reconstruct_all(config, pmi)
    tail = [(pmi.i110, clog2(config.n4 - 1))] if config.n4 > 1 else []
    return enhanced.serialize(config, pmi, enhanced.beam_fields(config, pmi)
                              + enhanced.tap_fields(config, pmi), tail)
