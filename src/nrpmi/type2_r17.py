"""Rel-17 Further Enhanced Type II port-selection codebook.

Ports are selected freely (any L of P/2) instead of as a consecutive block,
and the delay compression is reduced to M in {1, 2} taps drawn from a small
window near tap zero, relying on uplink/downlink angle-delay reciprocity
(TS 38.214 Table 5.2.2.2.7-3).  K1 = alpha * P_CSI-RS beams are combined
over both polarizations.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import enhanced
from .bases import SUPPORTED_PORT_COUNTS
from .combinadics import (
    binomial,
    clog2,
    decode_combination,
    encode_combination,
    is_index,
)
from .errors import DomainError, FormatError

# paraCombination-r17 -> (M, alpha, beta)
PARAM_COMBINATIONS: dict[int, tuple[int, float, float]] = {
    1: (1, 3 / 4, 1 / 2),
    2: (1, 1.0, 1 / 2),
    3: (1, 1.0, 3 / 4),
    4: (1, 1.0, 1.0),
    5: (2, 1 / 2, 1 / 2),
    6: (2, 3 / 4, 1 / 2),
    7: (2, 1.0, 1 / 2),
    8: (2, 1.0, 3 / 4),
}


@dataclass(frozen=True)
class R17Config:
    p_csirs: int
    param_combination: int
    n3: int
    n_threshold: int = 2  # tap window bound N
    rank: int = 1

    PARAMS = PARAM_COMBINATIONS
    PARAM_NAME = "paraCombination-r17"
    variant = enhanced.PORT_SELECTION
    # the strongest coefficient may sit on either tap: i18 = K1 * f* + i*
    strongest_axis = enhanced.TAP_AXIS

    def __post_init__(self):
        if self.p_csirs not in SUPPORTED_PORT_COUNTS:
            raise DomainError(f"nrofPorts {self.p_csirs} unsupported")
        enhanced.check_table(self)
        if self.n_threshold not in (2, 4):
            raise DomainError(f"tap window bound N={self.n_threshold} not in {{2,4}}")
        k1 = PARAM_COMBINATIONS[self.param_combination][1] * self.p_csirs
        if k1 != int(k1) or int(k1) % 2 or k1 <= 0:
            raise DomainError(
                f"K1 = alpha * P = {k1} must be a positive even integer")

    @enhanced.derived
    def m(self) -> int:
        return PARAM_COMBINATIONS[self.param_combination][0]

    @enhanced.derived
    def alpha(self) -> float:
        return PARAM_COMBINATIONS[self.param_combination][1]

    @enhanced.derived
    def beta(self) -> float:
        return PARAM_COMBINATIONS[self.param_combination][2]

    @enhanced.derived
    def k1_beams(self) -> int:
        return int(self.alpha * self.p_csirs)

    @enhanced.derived
    def l(self) -> int:
        return self.k1_beams // 2

    @enhanced.derived
    def k0(self) -> int:
        return math.ceil(self.beta * self.k1_beams * self.m)

    @enhanced.derived
    def window(self) -> int:
        return min(self.n_threshold, self.n3)

    @enhanced.derived
    def i16_reported(self) -> bool:
        return self.m == 2 and self.window > 2

    @enhanced.derived
    def coef_shape(self) -> tuple[int, int, int]:
        return (self.rank, self.k1_beams, self.m)


@dataclass(frozen=True)
class R17Pmi:
    """Index fields of one report.

    ``i12`` is absent when alpha = 1 (all ports selected); ``i16`` is absent
    unless M = 2 with a window larger than 2.  Coefficient arrays have shape
    (rank, K1, M); unreported entries hold zeros.
    """

    i12: int | None
    i16: int | None
    i18: tuple[int, ...]
    bitmap: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    c: np.ndarray


def decode_ports(config: R17Config, pmi: R17Pmi) -> tuple[int, ...]:
    """The L selected ports per polarization, strictly increasing."""
    half = config.p_csirs // 2
    if config.alpha == 1.0:
        if pmi.i12 is not None:
            raise FormatError("i_1,2 must be absent when alpha = 1")
        return tuple(range(config.l))
    count = binomial(half, config.l)
    if not (is_index(pmi.i12) and 0 <= pmi.i12 < count):
        raise FormatError(f"i_1,2={pmi.i12} outside [0, {count})")
    return decode_combination(pmi.i12, half, config.l)


def encode_ports(config: R17Config, ports) -> int | None:
    if config.alpha == 1.0:
        if tuple(ports) != tuple(range(config.l)):
            raise DomainError("alpha = 1 fixes the ports to 0..L-1")
        return None
    return encode_combination(sorted(ports), config.p_csirs // 2, config.l)


def decode_tap_offset(config: R17Config, pmi: R17Pmi) -> tuple[int, ...]:
    """Tap indices n3^(0..M-1); tap 0 is the reciprocity-aligned reference."""
    if config.m == 1:
        if pmi.i16 is not None:
            raise FormatError("i_1,6 must be absent when M = 1")
        return (0,)
    if not config.i16_reported:
        if pmi.i16 is not None:
            raise FormatError("i_1,6 must be absent when the window is 2")
        return (0, 1)
    if not (is_index(pmi.i16) and 0 <= pmi.i16 < config.window - 1):
        raise FormatError(f"i_1,6={pmi.i16} outside [0, {config.window - 1})")
    return (0, pmi.i16 + 1)


def validate_budget(config: R17Config, pmi: R17Pmi) -> None:
    """Enforce the nonzero-coefficient budget, ranges and consistency."""
    enhanced.validate_budget(config, pmi, ("i18",))


def reconstruct_all(config: R17Config, pmi: R17Pmi) -> np.ndarray:
    """Precoders for every frequency unit, shape (N3, P, rank)."""
    validate_budget(config, pmi)
    v = enhanced.port_beams(config.p_csirs, decode_ports(config, pmi))
    taps = decode_tap_offset(config, pmi)
    return enhanced.synthesize(config, pmi, v, [taps] * config.rank)


def reconstruct(config: R17Config, pmi: R17Pmi, t: int) -> np.ndarray:
    enhanced.check_point(config, t)
    return reconstruct_all(config, pmi)[t]


def random_valid_pmi(config: R17Config, rng: np.random.Generator) -> R17Pmi:
    """Draw a random internally consistent report."""
    def draw():
        i12 = (None if config.alpha == 1.0
               else int(rng.integers(binomial(config.p_csirs // 2, config.l))))
        i16 = (int(rng.integers(config.window - 1)) if config.i16_reported
               else None)
        return R17Pmi(i12, i16, *enhanced.draw_coefficients(config, rng))
    return enhanced.redraw(config, draw, reconstruct_all)


def serialize_pmi(config: R17Config, pmi: R17Pmi) -> str:
    """Report bits, MSB first: i12 (alpha < 1), i16 (when reported), then
    the rest as in ``enhanced.serialize``.
    Rejects what ``reconstruct_all`` rejects."""
    reconstruct_all(config, pmi)
    head = []
    if config.alpha < 1.0:
        head.append((pmi.i12, clog2(binomial(config.p_csirs // 2, config.l))))
    if config.i16_reported:
        head.append((pmi.i16, clog2(config.window - 1)))
    return enhanced.serialize(config, pmi, head)
