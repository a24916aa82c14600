"""Combinatorial index coding shared by the Type II codebooks.

Beam combinations, tap selections, and the subset-restriction group pick are
all reported as a single integer ranking the chosen subset.  The ranking used
by the protocol maps index 0 to the subset {n-k, ..., n-1} and index
C(n,k)-1 to {0, ..., k-1}:

    index(S) = sum_i C(n - 1 - S[i], k - i)      (S strictly increasing)

All arithmetic is exact integer arithmetic.
"""

import math
from collections.abc import Sequence

import numpy as np

from .errors import DomainError, FormatError


def is_index(value) -> bool:
    """True for a Python or numpy integer: a well-typed report field."""
    return type(value) is int or isinstance(value, np.integer)


def is_indices(value, count: int) -> bool:
    """True for a tuple of ``count`` integers: a per-layer or per-subband field."""
    return (isinstance(value, tuple) and len(value) == count
            and all(map(is_index, value)))


def check_int(name: str, value, low: int | None = None) -> None:
    """Reject ``value`` unless it is an integer (``is_index``: no float or
    bool) of at least ``low``, naming it."""
    if not (is_index(value) and (low is None or value >= low)):
        raise DomainError(f"{name}={value!r} must be an integer"
                          + ("" if low is None else f" >= {low}"))


def check_int_fields(config, *names: str) -> None:
    """``check_int`` on each named field of ``config`` that is set."""
    for name in names:
        value = getattr(config, name)
        if value is not None:
            check_int(name, value)


def clog2(x: int) -> int:
    """Bit width ceil(log2(x)) of a field taking x values (0 for one value)."""
    if x < 1:
        raise DomainError(f"cannot take log2 of {x}")
    return math.ceil(math.log2(x)) if x > 1 else 0


def array_bits(values, widths) -> str:
    """Each of ``values`` as its ``widths`` bits (``widths`` broadcasts
    against ``values``), MSB first, concatenated in C order."""
    values, widths = (a.ravel() for a in np.broadcast_arrays(
        np.asarray(values, dtype=int), np.asarray(widths, dtype=int)))
    bad = (values < 0) | (values >= np.left_shift(1, widths))
    if bad.any():
        i = int(np.argmax(bad))
        raise FormatError(f"value {values[i]} does not fit in {widths[i]} bits")
    top = int(widths.max(initial=0))
    bits = (values[:, None] >> np.arange(top - 1, -1, -1)) & 1
    keep = np.arange(top) >= top - widths[:, None]
    return (bits[keep] + ord("0")).astype(np.uint8).tobytes().decode()


def read_bits(bits, count: int, name: str) -> np.ndarray:
    """The ``count`` bits of ``bits``, in the order given, as an int array:
    a string of 0/1 characters or a flat sequence of integers or bools
    each 0 or 1.  DomainError names ``name`` for anything else."""
    try:
        a = np.asarray([*map("01".find, bits)] if isinstance(bits, str)
                       else bits)
    except ValueError:  # a ragged nested sequence
        a = np.array(None)
    if (a.ndim != 1 or (a.size and a.dtype.kind not in "biu")
            or ((a != 0) & (a != 1)).any()):
        raise DomainError(f"{name} must be a string of 0/1 characters or a "
                          "flat sequence of 0/1 integers")
    if a.size != count:
        raise DomainError(f"{name} needs {count} bits, got {a.size}")
    return a.astype(int)


def binomial(x: int, y: int) -> int:
    """C(x, y), extended with C(x, y) = 0 whenever x < y.

    The zero extension is required by the subset-restriction encoding, whose
    sum runs over terms with x < y for high group indices.
    """
    if x < 0 or y < 0:
        raise DomainError(f"binomial arguments must be nonnegative, got ({x}, {y})")
    return math.comb(x, y)


def decode_combination(index: int, n: int, k: int) -> tuple[int, ...]:
    """Recover the strictly increasing k-subset of [0, n) with the given rank."""
    if k < 0 or k > n:
        raise DomainError(f"subset size k={k} outside [0, {n}]")
    total = binomial(n, k)
    if not 0 <= index < total:
        raise FormatError(f"combination index {index} outside [0, {total})")
    out = []
    s = 0
    for i in range(k):
        # Largest x* with index - s >= C(x*, m), m = k - i: scan down from
        # the top, C(x - 1, m) = C(x, m) (x - m) / x, until the first hit
        # (C(m - 1, m) = 0 always is one).
        m = k - i
        x_star = n - 1 - i
        e = math.comb(x_star, m)
        while index - s < e:
            e = e * (x_star - m) // x_star
            x_star -= 1
        s += e
        out.append(n - 1 - x_star)
    return tuple(out)


def encode_combination(subset: Sequence[int], n: int, k: int) -> int:
    """Rank of a strictly increasing k-subset of [0, n); inverse of decode."""
    if len(subset) != k:
        raise DomainError(f"expected {k} elements, got {len(subset)}")
    prev = -1
    for v in subset:
        if not prev < v < n:
            raise DomainError(f"subset {tuple(subset)} not strictly increasing in [0, {n})")
        prev = v
    return sum(binomial(n - 1 - v, k - i) for i, v in enumerate(subset))


def split_beam_index(flat, n1: int):
    """Split a flat in-group beam index (or an array of them) into
    (horizontal, vertical) parts."""
    if np.any(np.asarray(flat) < 0):
        raise DomainError(f"flat beam index {flat} negative")
    return flat % n1, flat // n1


def decode_group_restriction(beta1: int, o1: int, o2: int) -> list[tuple[int, int, int]]:
    """Recover the 4 restricted beam groups from the integer behind B1.

    Returns [(g, r1, r2), ...] with g strictly increasing, r1 = g mod O1 and
    r2 = (g - r1) / O1.
    """
    if o1 * o2 < 4:
        raise DomainError(f"O1*O2={o1 * o2} cannot host 4 restricted groups")
    groups = decode_combination(beta1, o1 * o2, 4)
    return [(g, g % o1, g // o1) for g in groups]


def encode_group_restriction(groups: Sequence[int], o1: int, o2: int) -> int:
    """Integer encoding of 4 strictly increasing group indices below O1*O2."""
    if o1 * o2 < 4:
        raise DomainError(f"O1*O2={o1 * o2} cannot host 4 restricted groups")
    return encode_combination(groups, o1 * o2, 4)
