"""Oracle tests for the conformance-record writer.

``cmd_gen_vectors`` writes each record's ``expected`` block with
``cli.json_floats``, which takes orjson's text for each value and writes
again the values whose text orjson writes otherwise than ``json.dumps``,
and writes the parts every record shares once per run.  The references
below are the earlier forms, verbatim: ``json.dumps`` of the nested list,
and of the whole record dict.  Every text must match them byte for byte.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from nrpmi import cli

_ARRAY = {"n1": 4, "n2": 2, "o1": 4, "o2": 4}
# one config per release; the extra keys are ignored by the reader and
# must be echoed as json.dumps writes them
CONFIGS = {
    "r15-type1": {**_ARRAY, "mode": 2, "rank": 2, "subband_count": 3},
    "r15-type2": {"rank": 2, **_ARRAY, "l": 4, "subband_count": 4,
                  "note": "café \"x\""},
    "r15-ps": {"p_csirs": 16, "l": 2, "n_psk": 4, "subband_count": 2,
               "d": 2, "weight": 0.1},
    "r16": {**_ARRAY, "param_combination": 4, "r": 1, "n3": 18, "rank": 2},
    "r16-ps": {"p_csirs": 32, "param_combination": 5, "r": 2, "n3": 12,
               "rank": 3, "d": 2, "tags": [1, None, True]},
    "r17-ps": {"p_csirs": 16, "param_combination": 6, "n3": 12,
               "n_threshold": 4, "rank": 2},
    "r18": {**_ARRAY, "param_combination": 7, "r": 2, "n3": 20, "n4": 8,
            "rank": 3, "scale": 1e16},
}


def record_oracle(release, cfg_dict, sample, ws) -> str:
    record = {
        "release": release,
        "config": cfg_dict,
        "pmi": cli.pmi_to_fields(sample.pmi),
        "expected": np.stack([ws.real, ws.imag], -1).tolist(),
        "tolerance": cli.VECTOR_TOLERANCE,
    }
    return json.dumps(record) + "\n"


def gen_vectors_oracle(release, cfg_dict, seed, samples) -> str:
    config = cli.build_release_config(release, cfg_dict)
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(samples):
        sample = cli.sample_pmi(release, config, rng)
        ws = cli.expected_precoders(release, config, sample)
        lines.append(record_oracle(release, cfg_dict, sample, ws))
    return "".join(lines)


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("release", list(CONFIGS))
def test_gen_vectors_matches_the_json_dumps_oracle(tmp_path, capsys, release,
                                                   seed):
    assert set(CONFIGS) == set(cli.RELEASES)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIGS[release]))
    out = tmp_path / "vectors.jsonl"
    assert cli.main(["gen-vectors", "--release", release, "--config",
                     str(config), "--seed", str(seed), "--samples", "6",
                     "--out", str(out)]) == 0
    expected = gen_vectors_oracle(release, CONFIGS[release], seed, 6)
    assert out.read_bytes() == expected.encode()


# values whose text is easy to get wrong: signed zeros, subnormals, the
# non-finite values, the exponent switch-overs and whole-valued floats
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, math.nan,
           -math.nan, math.inf, -math.inf, 1e16, -1e16, 9999999999999998.0,
           1e-5, 1e-4, 0.0001234, 1.0, -2.0, 3.0, 1e22, 0.1,
           1.7976931348623157e308]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(arrays(np.float64,
              array_shapes(min_dims=0, max_dims=5, min_side=0, max_side=4),
              elements=st.sampled_from(SPECIAL) | st.floats()))
def test_json_floats_is_json_dumps_of_the_list(a):
    assert cli.json_floats(a) == json.dumps(a.tolist())
    # a strided view is read in the order tolist() gives
    assert cli.json_floats(a.T) == json.dumps(a.T.tolist())


def test_json_floats_keeps_signed_zeros_and_every_nan_apart():
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000,
                     0x7FF0000000000001], dtype=np.uint64).view(np.float64)
    a = np.array([0.0, -0.0, *nans, 1.0, -0.0, 0.0])
    assert cli.json_floats(a) == \
        "[0.0, -0.0, NaN, NaN, NaN, 1.0, -0.0, 0.0]"
    assert cli.json_floats(np.float64(-0.0)) == "-0.0"
    assert cli.json_floats(np.zeros((2, 0, 3))) == "[[], []]"


def switch_over_neighbours(edge: float, count: int) -> np.ndarray:
    """``edge`` and the ``count`` doubles on either side of it, both signs:
    consecutive positive doubles have consecutive bit patterns."""
    bits = np.float64(edge).view(np.int64) + np.arange(-count, count + 1)
    side = bits.view(np.float64)
    return np.concatenate([side, -side])


def test_json_floats_is_json_dumps_of_a_wide_seeded_array():
    # orjson's text differs from repr for nonzero magnitudes below 1e-4 and
    # from 1e16 on, and for the non-finite values
    rng = np.random.default_rng(20240611)
    nans = (rng.integers(1, 2**52, 64, dtype=np.uint64)
            | np.uint64(0x7FF0000000000000))
    nans[::2] |= np.uint64(1 << 63)
    special = np.concatenate([
        switch_over_neighbours(1e-4, 500), switch_over_neighbours(1e16, 500),
        [0.0, -0.0, math.inf, -math.inf], nans.view(np.float64),
        rng.integers(1, 2**52, 64, dtype=np.uint64).view(np.float64),
        -rng.integers(1, 2**52, 64, dtype=np.uint64).view(np.float64)])
    bits = rng.integers(0, 2**64, 10**5 - special.size, dtype=np.uint64)
    a = np.concatenate([special, bits.view(np.float64)])
    a = a[rng.permutation(a.size)].reshape(-1, 5, 2)
    assert a.size == 10**5
    assert cli.json_floats(a) == json.dumps(a.tolist())
