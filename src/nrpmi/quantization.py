"""Amplitude and phase dequantization tables.

Rel-15 wideband amplitudes use a 3-bit table (TS 38.214 Table 5.2.2.2.3-2)
and subband amplitudes a 1-bit table (Table 5.2.2.2.3-3).  Rel-16 onwards
use a 4-bit wideband table (Table 5.2.2.2.5-2, index 0 reserved) and a 3-bit
per-tap table (Table 5.2.2.2.5-3).  Every table is a power of two, so the
closed forms below reproduce the printed cells exactly.
"""

import numpy as np

from .errors import DomainError

PHASE_ALPHABETS = (4, 8, 16)


def amp_r15_wideband(k: int) -> float:
    """3-bit wideband amplitude: 0 for k=0, else 2^((k-7)/2); k=7 -> 1."""
    if not 0 <= k <= 7:
        raise DomainError(f"wideband amplitude index {k} outside [0, 7]")
    return 0.0 if k == 0 else float(2.0 ** ((k - 7) / 2))


def amp_r15_subband(k: int) -> float:
    """1-bit subband amplitude: sqrt(1/2) or 1."""
    if not 0 <= k <= 1:
        raise DomainError(f"subband amplitude index {k} outside [0, 1]")
    return float(2.0 ** ((k - 1) / 2))


def amp_r16_wideband(k: int) -> float:
    """4-bit wideband (per-polarization) amplitude 2^-((15-k)/4); 0 reserved."""
    if k == 0:
        # Reserved in the table; mapping it to 0 would silently mask encoder
        # bugs, so it is rejected.
        raise DomainError("wideband amplitude index 0 is reserved")
    if not 1 <= k <= 15:
        raise DomainError(f"wideband amplitude index {k} outside [1, 15]")
    return float(2.0 ** (-(15 - k) / 4))


def amp_r16_subband(k: int) -> float:
    """3-bit per-tap amplitude 2^-((7-k)/2)."""
    if not 0 <= k <= 7:
        raise DomainError(f"subband amplitude index {k} outside [0, 7]")
    return float(2.0 ** (-(7 - k) / 2))


def phase(c: int, n_psk: int) -> complex:
    """PSK phase coefficient exp(j*2pi*c/N_PSK) for N_PSK in {4, 8, 16}."""
    if n_psk not in PHASE_ALPHABETS:
        raise DomainError(f"phase alphabet {n_psk} not in {PHASE_ALPHABETS}")
    if not 0 <= c < n_psk:
        raise DomainError(f"phase index {c} outside [0, {n_psk})")
    return complex(np.exp(2j * np.pi * (c % n_psk) / n_psk))


def quantize_nearest(values, table: np.ndarray) -> np.ndarray:
    """Index of the ``table`` entry nearest each value (first on ties)."""
    return np.abs(np.asarray(values)[..., None] - table).argmin(axis=-1)


def quantize_phase(angles, alphabet) -> np.ndarray:
    """Index of the nearest PSK phase for each angle (radians); ``alphabet``
    broadcasts against ``angles``."""
    return np.round(angles / (2 * np.pi) * alphabet).astype(int) % alphabet


def max_amp_restriction(two_bits: int) -> float:
    """Maximum allowed wideband amplitude for a restricted beam (2 bits)."""
    if not 0 <= two_bits <= 3:
        raise DomainError(f"restriction bits {two_bits} outside [0, 3]")
    return 0.0 if two_bits == 0 else float(2.0 ** ((two_bits - 3) / 2))


R15_WB_AMPS = np.array([amp_r15_wideband(k) for k in range(8)])
R15_SB_AMPS = np.array([amp_r15_subband(k) for k in range(2)])
# every N-PSK phase exp(2j pi c / N) as PSK[N][c], built once with the
# expression that computing them per report used
PSK = {n: np.exp(2j * np.pi * np.arange(n) / n) for n in PHASE_ALPHABETS}
