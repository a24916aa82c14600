"""Oracle tests for the report readers that return every layer.

``enhanced.decode_taps``, ``enhanced.strongest``, ``type2_r18.decode_shifts``
and both ``layer_coefficients`` read a whole report and return one entry
per layer (and, for Rel-15, per subband); ``enhanced.index_field`` reads a
per-layer field whole.  The reference copies below are the earlier
per-layer forms, verbatim, each of which read one layer (and subband) per
call.

On every drawn report, each reader must return the list of the
reference's per-layer results, bit for bit.  On a report with one field
mutated, the reader must raise exactly when the reference raises for some
layer, with a ``CodebookError`` that names the same field.
"""

import functools
import re
from dataclasses import replace

import numpy as np
import pytest

from nrpmi import enhanced, type2_r15, type2_r16, type2_r17, type2_r18
from nrpmi.bases import ArrayGeometry
from nrpmi.combinadics import decode_combination, is_index, is_indices
from nrpmi.enhanced import (
    PSK16,
    SB_AMPS,
    WB_AMPS,
    _plane,
    _star,
    check_index,
    m_initial,
    report_arrays,
    tap_positions,
)
from nrpmi.errors import CodebookError, FormatError

GEOM = ArrayGeometry(4, 2, 4, 4)

# ---------------------------------------------------------------------------
# reference copies


def index_field_ref(config, pmi, name: str, count: int | None,
                    layer: int | None = None) -> int | None:
    """The one reader of index field ``name`` ("i15" is i_1,5), or of its
    entry for ``layer``: None where ``count`` is None, else an integer (no
    bool or float) in [0, count).  Raises DomainError for a layer outside
    [0, rank), then FormatError naming the field."""
    if layer is not None:
        check_index("layer", layer, config.rank)
    value = getattr(pmi, name)
    if count is None:
        if value is not None:
            raise FormatError(f"i_1,{name[2:]} must be absent")
        return None
    if layer is not None:
        if not is_indices(value, config.rank):
            raise FormatError(f"i_1,{name[2:]} must hold one index per layer")
        value = value[layer]
    if not (is_index(value) and 0 <= value < count):
        raise FormatError(f"i_1,{name[2:]}={value} outside [0, {count})")
    return value


def decode_taps_ref(config, pmi, layer: int) -> tuple[int, ...]:
    """Tap indices n3^(0..Mv-1); n3^(0) = 0 is the (remapped) strongest tap."""
    choices = tap_positions(config, m_initial(config, pmi))[0]
    i16 = index_field_ref(config, pmi, "i16", config.i16_count, layer)
    return (0,) + tuple(choices[t] for t in decode_combination(
        i16, len(choices), config.mv - 1))


def strongest_ref(config, pmi, layer: int) -> tuple[int, int]:
    """Decode i_1,8 into (i*, s*): the beam and the tap (Rel-17) or the
    shift (Rel-16/18, s* = 0 without a shift axis) of the strongest
    coefficient."""
    bitmap, = report_arrays(pmi, (("bitmap", config.coef_shape),))
    i18 = index_field_ref(config, pmi, "i18", _plane(config, bitmap[0]).size,
                          layer)
    return _star(config, bitmap[layer], i18)


def decode_shifts_ref(config, pmi, layer: int) -> tuple[int, ...]:
    """Doppler shift indices n4^(tau); the reference shift is always 0."""
    i110 = index_field_ref(config, pmi, "i110", (
        config.n4 - 1 if config.n4 > 1 else None), layer)
    return (0,) if i110 is None else (0, i110 + 1)


def layer_coefficients_ref(config, pmi, layer: int | slice = slice(None)
                           ) -> np.ndarray:
    """Complex coefficient grid (K, Mv[, Q]) of one layer, or (rank, K,
    Mv[, Q]) of every layer by default: p1 * p2 * phi, zeros where
    unreported.  ``pmi`` is a valid report or its ``Coefficients``."""
    if not isinstance(layer, slice):
        check_index("layer", layer, config.rank)
    p1 = WB_AMPS[pmi.k1[layer]]          # ([rank,] 2)
    p2 = SB_AMPS[pmi.k2[layer]]          # ([rank,] K, Mv[, Q])
    phi = PSK16[pmi.c[layer]]
    pol = np.repeat(p1, config.l, axis=-1)
    pol = pol.reshape(pol.shape + (1,) * (p2.ndim - pol.ndim))
    return pol * p2 * phi * pmi.bitmap[layer]


def r15_layer_coefficients_ref(config, pmi, layer: int,
                               subband: int) -> np.ndarray:
    """Complex combination weights p1*p2*phi for one layer and subband (2L,)
    of a report that passes ``validate``."""
    k1, k2, c, _, alphabet = type2_r15.validate(config, pmi)
    check_index("layer", layer, config.rank)
    check_index("subband", subband, config.subband_count)
    return type2_r15._coefficients(config, k1, k2, c, alphabet)[subband, layer]


# ---------------------------------------------------------------------------
# the sweep: every config at every rank its table allows


def r16(rank, **kw):
    return type2_r16.R16Config(r=1, rank=rank, **kw)


def r17(rank, **kw):
    return type2_r17.R17Config(rank=rank, **kw)


def r18(rank, n4):
    return type2_r18.R18Config(geom=GEOM, param_combination=2, r=1, n3=12,
                               n4=n4, rank=rank)


CONFIGS = {
    "r16": lambda rank: r16(rank, param_combination=4, n3=18, geom=GEOM),
    "r16-window": lambda rank: r16(rank, param_combination=6, n3=24,
                                   geom=GEOM),
    "r16-ps": lambda rank: r16(rank, param_combination=2, n3=8,
                               variant=enhanced.PORT_SELECTION, p_csirs=16,
                               d=1),
    "r17-alpha-half": lambda rank: r17(rank, p_csirs=16, param_combination=5,
                                       n3=12, n_threshold=4),
    "r17-alpha-1": lambda rank: r17(rank, p_csirs=8, param_combination=7,
                                    n3=12, n_threshold=4),
    "r17-window-2": lambda rank: r17(rank, p_csirs=8, param_combination=7,
                                     n3=8, n_threshold=2),
    "r18-n4-1": lambda rank: r18(rank, 1),
    "r18-n4-2": lambda rank: r18(rank, 2),
    "r18-n4-4": lambda rank: r18(rank, 4),
    "r18-n4-8": lambda rank: r18(rank, 8),
}
MODULES = {"r16": type2_r16, "r17": type2_r17, "r18": type2_r18}
CASES = [(name, rank) for name in CONFIGS for rank in (1, 2, 3, 4)]
REPORTS = 200


def readers(config):
    """(new reader, reference per-layer reader) pairs of ``config``."""
    pairs = [(enhanced.strongest, strongest_ref)]
    if not isinstance(config, type2_r17.R17Config):
        pairs.append((enhanced.decode_taps, decode_taps_ref))
    if isinstance(config, type2_r18.R18Config):
        pairs.append((type2_r18.decode_shifts, decode_shifts_ref))
    return pairs


class FieldError(str):
    """The field a reader's error names (i_1,6, bitmap, ...)."""


def outcome(read, *args):
    """``read(*args)``, or the field its CodebookError names."""
    try:
        return read(*args)
    except CodebookError as e:
        return FieldError(re.match(r"[\w,]+", str(e)).group())


@functools.cache
def reports(name, rank):
    """``config`` at ``rank`` and REPORTS reports drawn on it."""
    config = CONFIGS[name](rank)
    module = MODULES[name[:3]]
    rng = np.random.default_rng([rank, list(CONFIGS).index(name)])
    return config, tuple(module.random_valid_pmi(config, rng)
                         for _ in range(REPORTS))


@pytest.mark.parametrize("name, rank", CASES)
def test_readers_return_every_layer_of_the_reference(name, rank):
    config, pmis = reports(name, rank)
    layers = range(rank)
    for pmi in pmis:
        for new, ref in readers(config):
            assert new(config, pmi) == [ref(config, pmi, l) for l in layers]
        count = _plane(config, pmi.bitmap[0]).size
        assert enhanced.index_field(config, pmi, "i18", count,
                                    per_layer=True) == tuple(
            index_field_ref(config, pmi, "i18", count, l) for l in layers)
        found = enhanced.layer_coefficients(config, pmi)
        expected = np.stack([layer_coefficients_ref(config, pmi, l)
                             for l in layers])
        assert found.dtype == expected.dtype
        assert found.tobytes() == expected.tobytes()


def pick(rng, options):
    return options[int(rng.integers(len(options)))]


def entry(rng):
    """A field entry: in range or out of it at either end, or no integer."""
    n = int(rng.integers(1, 40))
    return pick(rng, [0, n, -1, 2 ** 63, np.int64(n), np.uint8(n), 1.0, 1.5,
                      True, None, (0,)])


def mutate(pmi, rng):
    """``pmi`` with one entry of an index field, the whole field, or the
    bitmap replaced by a malformed or out-of-range value."""
    field = pick(rng, [f for f in ("i15", "i16", "i18", "i110", "bitmap")
                       if hasattr(pmi, f)])
    value = getattr(pmi, field)
    if field == "bitmap":
        bitmap = np.array(value)
        return replace(pmi, bitmap=pick(rng, [
            bitmap[:1], bitmap[:, :-1], bitmap * 1.0, bitmap.tolist(),
            np.zeros_like(bitmap), bitmap.astype(np.uint8)]))
    entries = list(value) if isinstance(value, tuple) else [value]
    kind = int(rng.integers(3))
    if kind == 0:
        entries[int(rng.integers(len(entries)))] = entry(rng)
        value = tuple(entries) if isinstance(value, tuple) else entries[0]
    elif kind == 1:
        value = entry(rng)
    else:
        value = pick(rng, [None, (), entries, tuple(entries) * 2,
                           tuple(entries[:1])])
    return replace(pmi, **{field: value})


@pytest.mark.parametrize("name, rank", CASES)
def test_readers_raise_where_some_layer_of_the_reference_raises(name, rank):
    config, pmis = reports(name, rank)
    rng = np.random.default_rng([rank, list(CONFIGS).index(name), 1])
    raised = 0
    for pmi in pmis:
        bad = mutate(pmi, rng)
        for new, ref in readers(config):
            expected = [outcome(ref, config, bad, l) for l in range(rank)]
            errors = [e for e in expected if isinstance(e, FieldError)]
            found = outcome(new, config, bad)
            if errors:
                raised += 1
                assert isinstance(found, FieldError)
                assert found == errors[0]
            else:
                assert found == expected
    assert raised > REPORTS // 4


# ---------------------------------------------------------------------------
# Rel-15: every subband and layer of the weights

R15_CONFIGS = {
    "r15": type2_r15.T2R15Config(l=4, rank=2, subband_count=5, geom=GEOM),
    "r15-rank1-no-sb-amp": type2_r15.T2R15Config(
        l=2, rank=1, subband_count=3, subband_amplitude=False, geom=GEOM),
    "r15-ps": type2_r15.T2R15Config(
        l=2, rank=2, subband_count=4, variant=type2_r15.PORT_SELECTION,
        p_csirs=16, d=2),
}


@pytest.mark.parametrize("name", R15_CONFIGS)
def test_r15_weights_are_every_subband_and_layer_of_the_reference(name):
    config = R15_CONFIGS[name]
    rng = np.random.default_rng(list(R15_CONFIGS).index(name))
    for _ in range(REPORTS):
        pmi = type2_r15.random_valid_pmi(config, rng)
        found = type2_r15.layer_coefficients(config, pmi)
        expected = np.array([[r15_layer_coefficients_ref(config, pmi, l, sb)
                              for l in range(config.rank)]
                             for sb in range(config.subband_count)])
        assert found.tobytes() == expected.tobytes()
        # a mutated report: the reference's error, which ``validate``
        # raises before any layer or subband is read
        k1 = np.array(pmi.k1)
        k1[rng.integers(config.rank), rng.integers(2 * config.l)] = 8
        bad = pick(rng, [replace(pmi, k1=k1), replace(pmi, i13=(2 * config.l,)),
                         replace(pmi, c=np.asarray(pmi.c) * 1.0)])
        with pytest.raises(CodebookError) as ref_error:
            r15_layer_coefficients_ref(config, bad, 0, 0)
        with pytest.raises(type(ref_error.value),
                           match=f"^{re.escape(str(ref_error.value))}$"):
            type2_r15.layer_coefficients(config, bad)
