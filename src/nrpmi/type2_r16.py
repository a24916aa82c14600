"""Rel-16 Enhanced Type II codebook: joint spatial and frequency compression.

Per-subband combination weights are no longer reported individually; they
are synthesized from Mv delay-domain DFT taps (TS 38.214 Table 5.2.2.2.5-5,
port-selection per Table 5.2.2.2.6-2).  Per layer, the coefficient grid is
2L beams x Mv taps with a bitmap marking the reported entries, one wideband
amplitude per polarization, a 3-bit amplitude and 4-bit phase per entry.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import enhanced
from .bases import ArrayGeometry
from .combinadics import check_int_fields
from .errors import DomainError

# paramCombination-r16 -> (L, p_v for ranks 1-2, p_v for ranks 3-4, beta)
PARAM_COMBINATIONS: dict[int, tuple[int, float, float | None, float]] = {
    1: (2, 1 / 4, 1 / 8, 1 / 4),
    2: (2, 1 / 4, 1 / 8, 1 / 2),
    3: (4, 1 / 4, 1 / 8, 1 / 4),
    4: (4, 1 / 4, 1 / 8, 1 / 2),
    5: (4, 1 / 4, 1 / 4, 3 / 4),
    6: (4, 1 / 2, 1 / 4, 1 / 2),
    7: (6, 1 / 4, None, 1 / 2),
    8: (6, 1 / 4, None, 3 / 4),
}

# bandwidth part size range (RBs) -> allowed subband sizes (RBs)
SUBBAND_SIZES = (
    ((24, 72), (4, 8)),
    ((73, 144), (8, 16)),
    ((145, 275), (16, 32)),
)


def derive_n3(bwp_rbs: int, subband_size: int, r: int) -> int:
    """Number of frequency units N3 = R * ceil(BWP / subband size)."""
    if r not in (1, 2):
        raise DomainError(f"R={r} not in {{1, 2}}")
    for (lo, hi), sizes in SUBBAND_SIZES:
        if lo <= bwp_rbs <= hi:
            if subband_size not in sizes:
                raise DomainError(
                    f"subband size {subband_size} invalid for {bwp_rbs} RBs "
                    f"(allowed {sizes})")
            return r * math.ceil(bwp_rbs / subband_size)
    raise DomainError(f"bandwidth part of {bwp_rbs} RBs outside [24, 275]")


@dataclass(frozen=True)
class R16Config(enhanced.CompressedConfig):
    param_combination: int
    r: int
    n3: int
    rank: int = 1
    geom: ArrayGeometry | None = None
    p_csirs: int | None = None
    d: int | None = None

    PARAMS = PARAM_COMBINATIONS
    PARAM_NAME = "paramCombination-r16"

    def __post_init__(self):
        check_int_fields(self, "param_combination", "r", "n3", "rank",
                         "p_csirs", "d")
        self.check_params()
        self.check_variant()

    @cached_property
    def k0(self) -> int:
        return math.ceil(self.beta * 2 * self.l * self.m1)

    @cached_property
    def coef_shape(self) -> tuple[int, int, int]:
        return (self.rank, 2 * self.l, self.mv)


@dataclass(frozen=True)
class R16Pmi:
    """Index fields of one Enhanced Type II report.

    Dense coefficient storage: ``bitmap``, ``k2`` and ``c`` have shape
    (rank, 2L, Mv); entries where the bitmap is zero must hold the canonical
    zeros.  ``k1`` has shape (rank, 2) (one wideband amplitude index per
    polarization).  ``i15`` is present only when N3 > 19.
    """

    i11: tuple[int, int] | int
    i12: int | None
    i15: int | None
    i16: tuple[int, ...]
    i18: tuple[int, ...]
    bitmap: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    c: np.ndarray


def validate_budget(config: R16Config, pmi: R16Pmi) -> enhanced.Coefficients:
    """Enforce the nonzero-coefficient budget, ranges and consistency;
    return the report's ``enhanced.Coefficients``."""
    enhanced.check_beams(config, pmi)
    return enhanced.validate_budget(config, pmi, ("i16", "i18"))


def reconstruct_all(config: R16Config, pmi: R16Pmi) -> np.ndarray:
    """Precoders for every frequency unit, shape (N3, P, rank)."""
    coefficients = validate_budget(config, pmi)
    return enhanced.synthesize(config, coefficients,
                               enhanced.selected_beams(config, pmi),
                               enhanced.decode_taps(config, pmi))


def random_report(config: R16Config, rng: np.random.Generator):
    """A random internally consistent report and its precoders
    (``reconstruct_all``).

    Redraws the rare reports whose coefficients cancel exactly at some
    frequency unit (zero gamma), which would make the precoder undefined.
    """
    return enhanced.redraw(config, lambda: R16Pmi(
        *enhanced.draw_beams(config, rng), *enhanced.draw_taps(config, rng),
        *enhanced.draw_coefficients(config, rng)), reconstruct_all)


def random_valid_pmi(config: R16Config, rng: np.random.Generator) -> R16Pmi:
    """Draw a random internally consistent report: ``random_report``'s."""
    return random_report(config, rng)[0]


def serialize_pmi(config: R16Config, pmi: R16Pmi) -> str:
    """Report bits, MSB first: i11, i12, i15, i16 per layer, then the rest
    as in ``enhanced.serialize``.
    Rejects what ``reconstruct_all`` rejects."""
    reconstruct_all(config, pmi)
    return enhanced.serialize(config, pmi, enhanced.beam_fields(config, pmi)
                              + enhanced.tap_fields(config, pmi))
