import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrpmi.cli import main

R16_CONFIG = {"n1": 4, "n2": 2, "o1": 4, "o2": 4, "param_combination": 2,
              "r": 1, "n3": 8, "rank": 1}
R18_CONFIG = {"n1": 4, "n2": 2, "o1": 4, "o2": 4, "param_combination": 2,
              "r": 1, "n3": 8, "n4": 4, "rank": 2}
T1_CONFIG = {"n1": 2, "n2": 1, "o1": 4, "o2": 1, "mode": 1, "rank": 1,
             "subband_count": 2}
R17_CONFIG = {"p_csirs": 16, "param_combination": 6, "n3": 6,
              "n_threshold": 4, "rank": 1}
R15_CONFIG = {"n1": 4, "n2": 2, "o1": 4, "o2": 4, "l": 2, "n_psk": 8,
              "subband_amplitude": True, "rank": 1, "subband_count": 2}


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("release,cfg", [
    ("r15-type1", T1_CONFIG),
    ("r15-type2", R15_CONFIG),
    ("r16", R16_CONFIG),
    ("r17-ps", R17_CONFIG),
    ("r18", R18_CONFIG),
])
def test_gen_and_validate_roundtrip(tmp_path, release, cfg, capsys):
    config = write_config(tmp_path, cfg)
    out = str(tmp_path / "vectors.jsonl")
    assert main(["gen-vectors", "--release", release, "--config", config,
                 "--seed", "3", "--samples", "5", "--out", out]) == 0
    assert main(["validate", out]) == 0
    captured = capsys.readouterr()
    assert "5/5 records passed" in captured.out


def test_validate_detects_perturbation(tmp_path):
    config = write_config(tmp_path, R16_CONFIG)
    out = str(tmp_path / "vectors.jsonl")
    main(["gen-vectors", "--release", "r16", "--config", config,
          "--seed", "1", "--samples", "3", "--out", out])
    lines = Path(out).read_text().splitlines()
    record = json.loads(lines[1])
    # flip the low bit of the beam-combination index: a different beam set
    record["pmi"]["i12"] ^= 1
    lines[1] = json.dumps(record)
    bad = str(tmp_path / "perturbed.jsonl")
    Path(bad).write_text("\n".join(lines) + "\n")
    assert main(["validate", bad]) == 1


def test_validate_detects_tap_and_shift_perturbations(tmp_path):
    import numpy as np
    config = write_config(tmp_path, R18_CONFIG)
    out = str(tmp_path / "vectors.jsonl")
    main(["gen-vectors", "--release", "r18", "--config", config,
          "--seed", "2", "--samples", "20", "--out", out])
    lines = Path(out).read_text().splitlines()
    # a perturbed tap/shift only matters when it carries weight: pick records
    # whose layer-0 bitmap has energy at tap 1 / shift 1
    tap_rec = shift_rec = None
    for line in lines:
        record = json.loads(line)
        bitmap = np.asarray(record["pmi"]["bitmap"])
        if tap_rec is None and bitmap[0, :, 1, :].any():
            tap_rec = record
        if shift_rec is None and bitmap[0, :, :, 1].any():
            shift_rec = record
    assert tap_rec is not None and shift_rec is not None
    tap_rec = json.loads(json.dumps(tap_rec))
    tap_rec["pmi"]["i16"][0] ^= 1  # different tap combination
    bad = str(tmp_path / "taps.jsonl")
    Path(bad).write_text(json.dumps(tap_rec) + "\n")
    assert main(["validate", bad]) == 1
    shift_rec["pmi"]["i110"][0] ^= 1  # different Doppler shift
    bad2 = str(tmp_path / "shift.jsonl")
    Path(bad2).write_text(json.dumps(shift_rec) + "\n")
    assert main(["validate", bad2]) == 1


def test_validate_reports_short_i16_as_failure(tmp_path, capsys):
    config = write_config(tmp_path, R18_CONFIG)
    out = str(tmp_path / "vectors.jsonl")
    main(["gen-vectors", "--release", "r18", "--config", config,
          "--seed", "4", "--samples", "1", "--out", out])
    record = json.loads(Path(out).read_text())
    record["pmi"]["i16"] = record["pmi"]["i16"][:1]  # rank 2, one entry
    bad = tmp_path / "short.jsonl"
    bad.write_text(json.dumps(record) + "\n")
    capsys.readouterr()
    assert main(["validate", str(bad)]) == 1
    captured = capsys.readouterr()
    assert "line 1: FAIL (reconstruction error: " in captured.out
    assert "0/1 records passed" in captured.out
    assert "Traceback" not in captured.out + captured.err


def first_nonzero(value):
    """An edit of an array field: its first nonzero entry becomes ``value``."""
    def edit(nested):
        array = np.asarray(nested)
        out = array.astype(object)
        out.flat[np.flatnonzero(array)[0]] = value
        return out.tolist()
    return edit


def edited(record, field, value):
    """The record with report field ``field`` set to ``value``, or passed
    through ``value`` when it is an edit."""
    pmi = record["pmi"]
    pmi[field] = value(pmi[field]) if callable(value) else value
    return record


@pytest.mark.parametrize("release,cfg,field,value", [
    ("r16", {**R16_CONFIG, "n3": 24}, "i15", [1]),
    ("r15-type1", T1_CONFIG, "i11", [0]),
    ("r15-type2", R15_CONFIG, "i13", 0),
    ("r15-type2", R15_CONFIG, "k1", 3),
    # an array entry numpy reads as no integer: never truncated or overflowed
    ("r16", R16_CONFIG, "k2", first_nonzero(3.5)),
    ("r16", R16_CONFIG, "k1", first_nonzero(10**30)),
    ("r16", R16_CONFIG, "bitmap", first_nonzero(1.0)),
])
def test_validate_reports_mistyped_field_as_malformed(tmp_path, capsys,
                                                      release, cfg, field,
                                                      value):
    # a list where an index belongs, or the reverse, is a malformed record
    config = write_config(tmp_path, cfg)
    out = str(tmp_path / "vectors.jsonl")
    main(["gen-vectors", "--release", release, "--config", config,
          "--seed", "4", "--samples", "1", "--out", out])
    record = edited(json.loads(Path(out).read_text()), field, value)
    bad = tmp_path / "mistyped.jsonl"
    bad.write_text(json.dumps(record) + "\n")
    capsys.readouterr()
    assert main(["validate", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("line 1: malformed record: ")
    assert field in captured.err
    assert "Traceback" not in captured.out + captured.err


R16_PS_CONFIG = {"p_csirs": 16, "param_combination": 2, "n3": 8}


@pytest.mark.parametrize("release,cfg,field,value,name", [
    ("r16", R16_CONFIG, "i11", 5, "i_1,1"),
    ("r16", R16_CONFIG, "i11", [0], "i_1,1"),
    ("r16", R16_CONFIG, "i11", [0, 0, 0], "i_1,1"),
    ("r16", R16_CONFIG, "i12", None, "i_1,2"),
    ("r16-ps", R16_PS_CONFIG, "i11", [0, 1], "i_1,1"),
    ("r16-ps", R16_PS_CONFIG, "i12", 3, "i_1,2"),
    # a reported bitmap entry is never wrapped to 1 (257 and -255 are 1
    # modulo 256)
    ("r16", R16_CONFIG, "bitmap", first_nonzero(257), "bitmap entries"),
    ("r16", R16_CONFIG, "bitmap", first_nonzero(-255), "bitmap entries"),
])
def test_validate_reports_malformed_beam_fields_as_failures(
        tmp_path, capsys, release, cfg, field, value, name):
    # well-typed JSON, but no valid i11/i12 for the variant, or a bitmap
    # entry other than 0 or 1: a FAIL that names the field
    config = write_config(tmp_path, cfg)
    out = str(tmp_path / "vectors.jsonl")
    main(["gen-vectors", "--release", release, "--config", config,
          "--seed", "4", "--samples", "1", "--out", out])
    record = edited(json.loads(Path(out).read_text()), field, value)
    bad = tmp_path / "beams.jsonl"
    bad.write_text(json.dumps(record) + "\n")
    capsys.readouterr()
    assert main(["validate", str(bad)]) == 1
    captured = capsys.readouterr()
    assert "line 1: FAIL (reconstruction error: " in captured.out
    assert name in captured.out
    assert "0/1 records passed" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_r18_config_ignores_d_slots(tmp_path, capsys):
    from dataclasses import fields

    from nrpmi.type2_r18 import R18Config

    assert "d_slots" not in {f.name for f in fields(R18Config)}
    config = write_config(tmp_path, {**R18_CONFIG, "d_slots": 2})
    out = str(tmp_path / "vectors.jsonl")
    assert main(["gen-vectors", "--release", "r18", "--config", config,
                 "--seed", "3", "--samples", "2", "--out", out]) == 0
    assert main(["validate", out]) == 0
    assert "2/2 records passed" in capsys.readouterr().out


@pytest.mark.parametrize("mutate,code", [
    (lambda expected: 5, 2),                     # no (real, imag) pairs
    (lambda expected: expected[:1] * 3, 1),      # not broadcast: a FAIL
    # a third number after each (real, imag) pair
    (lambda expected: np.insert(expected, 2, 123.0, axis=-1).tolist(), 2),
], ids=["scalar", "wrong-shape", "padded"])
def test_validate_checks_the_expected_shape(tmp_path, capsys, mutate, code):
    config = write_config(tmp_path, R16_CONFIG)
    out = str(tmp_path / "vectors.jsonl")
    main(["gen-vectors", "--release", "r16", "--config", config,
          "--seed", "1", "--samples", "1", "--out", out])
    record = json.loads(Path(out).read_text())
    record["expected"] = mutate(record["expected"])
    bad = tmp_path / "expected.jsonl"
    bad.write_text(json.dumps(record) + "\n")
    capsys.readouterr()
    assert main(["validate", str(bad)]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("field,value,message", [
    ("tolerance", float("nan"), "tolerance nan must be a finite number >= 0"),
    ("tolerance", float("inf"), "tolerance inf must be a finite number >= 0"),
    ("tolerance", -1e-9, "tolerance -1e-09 must be a finite number >= 0"),
    # an int beyond int64 is named as written, never as a float
    ("tolerance", -2**64,
     "tolerance -18446744073709551616 must be a finite number >= 0"),
    ("expected", float("nan"), "expected holds a non-finite entry"),
    ("expected", float("inf"), "expected holds a non-finite entry"),
], ids=["nan-tolerance", "inf-tolerance", "negative-tolerance",
        "minus-2**64-tolerance", "nan-expected", "inf-expected"])
def test_validate_rejects_a_non_finite_record(tmp_path, capsys, field, value,
                                              message):
    # a record no comparison can pass or fail honestly is malformed (exit
    # 2), even when every other record passes
    config = write_config(tmp_path, R16_CONFIG)
    out = str(tmp_path / "vectors.jsonl")
    main(["gen-vectors", "--release", "r16", "--config", config,
          "--seed", "1", "--samples", "2", "--out", out])
    good, record = map(json.loads, Path(out).read_text().splitlines())
    expected = np.array(record["expected"])
    if field == "tolerance":
        expected.flat[0] += 5.0         # a pass would hide this error
        record["tolerance"] = value
    else:
        expected.flat[0] = value
    record["expected"] = expected.tolist()
    bad = tmp_path / "non_finite.jsonl"
    bad.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
    capsys.readouterr()
    assert main(["validate", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"line 2: malformed record: {message}\n"
    assert "records passed" not in captured.out
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("field,value,message", [
    ("tolerance", True, "tolerance True must be a finite number >= 0"),
    ("tolerance", "0.5", "tolerance '0.5' must be a finite number >= 0"),
    ("tolerance", None, "tolerance None must be a finite number >= 0"),
    ("expected", True, "expected must hold numbers, got bool"),
    ("expected", "0.5", "expected must hold numbers, got <U3"),
    # integers beyond uint64 make no numeric array: never read as floats
    ("expected", 2**64, "expected must hold numbers, got object"),
], ids=["true-tolerance", "string-tolerance", "null-tolerance",
        "bool-expected", "string-expected", "2**64-expected"])
def test_validate_rejects_a_non_number(tmp_path, capsys, field, value,
                                       message):
    # a tolerance is a JSON number and expected holds numbers: true or
    # "0.5" is no number, even where float() or numpy would read it as one
    config = write_config(tmp_path, R16_CONFIG)
    out = str(tmp_path / "vectors.jsonl")
    main(["gen-vectors", "--release", "r16", "--config", config,
          "--seed", "1", "--samples", "1", "--out", out])
    record = json.loads(Path(out).read_text())
    if field == "tolerance":
        record["tolerance"] = value
    else:
        record["expected"] = np.full(np.shape(record["expected"]),
                                     value).tolist()
    bad = tmp_path / "non_number.jsonl"
    bad.write_text(json.dumps(record) + "\n")
    capsys.readouterr()
    assert main(["validate", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"line 1: malformed record: {message}\n"
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("tolerance", [0, 1, 2**64, 10**400],
                         ids=["0", "1", "2**64", "10**400"])
def test_validate_takes_an_integer_tolerance(tmp_path, capsys, tolerance):
    # an int of any size is a finite number; 10**400 has no float
    config = write_config(tmp_path, R16_CONFIG)
    out = str(tmp_path / "vectors.jsonl")
    main(["gen-vectors", "--release", "r16", "--config", config,
          "--seed", "1", "--samples", "1", "--out", out])
    record = json.loads(Path(out).read_text())
    record["tolerance"] = tolerance
    edited = tmp_path / "int_tolerance.jsonl"
    edited.write_text(json.dumps(record) + "\n")
    capsys.readouterr()
    assert main(["validate", str(edited)]) == 0
    assert "1/1 records passed" in capsys.readouterr().out


def test_validate_malformed_record(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"release": "r16"}\n')
    assert main(["validate", str(bad)]) == 2
    worse = tmp_path / "worse.jsonl"
    worse.write_text("not json\n")
    assert main(["validate", str(worse)]) == 2


DEEP = 100_000


@pytest.mark.parametrize("where", ["open", "config", "ignored-key"])
def test_validate_reports_a_too_deep_line_as_malformed(tmp_path, capsys,
                                                       where):
    # orjson rejects the open line, and reads the closed ones: however far
    # the nesting is from any key validate reads, json.loads decides, and
    # it recurses too deep
    closed = "[" * DEEP + "]" * DEEP
    bad = tmp_path / "deep.jsonl"
    if where == "open":
        text = "[" * DEEP
    elif where == "config":
        text = '{"release": "r16", "config": %s}' % closed
    else:
        main(["gen-vectors", "--release", "r16", "--config",
              write_config(tmp_path, R16_CONFIG), "--samples", "1",
              "--out", str(bad)])
        text = bad.read_text().rstrip("\n")[:-1] + ', "note": %s}' % closed
    bad.write_text(text + "\n")
    capsys.readouterr()
    assert main(["validate", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("line 1: malformed record: maximum "
                                   "recursion depth exceeded")
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("text", ["[" * DEEP, "[" * DEEP + "]" * DEEP],
                         ids=["open", "closed"])
def test_gen_vectors_reports_a_too_deep_config(tmp_path, capsys, text):
    config = tmp_path / "deep.json"
    config.write_text(text)
    capsys.readouterr()
    assert main(["gen-vectors", "--release", "r16", "--config", str(config),
                 "--out", str(tmp_path / "out.jsonl")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: config nests too deeply: ")
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("text", [
    "[" * 1_000_000 + "]" * 1_000_000,
    '{"a": ' * 200_000 + "1" + "}" * 200_000,
    '{"release": "r16", "config": %s}' % ('[{"": ' * 100_000 + "1"
                                          + "}]" * 100_000),
], ids=["lists", "objects", "mixed-under-a-key"])
def test_validate_survives_a_line_deeper_than_the_native_stack(tmp_path,
                                                               text):
    # orjson 3.8 has no depth limit: each of these balanced lines overflows
    # an 8 MiB native stack in orjson.loads and kills the process.  Run in
    # a child so that such a crash fails this test alone
    import nrpmi

    bad = tmp_path / "deep.jsonl"
    bad.write_text(text + "\n")
    src = str(Path(nrpmi.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from nrpmi.cli import main; "
         "sys.exit(main(['validate', sys.argv[1]]))", str(bad)],
        capture_output=True, text=True, timeout=120, env=env)
    assert run.returncode == 2, run.stderr[-2000:]
    assert run.stderr.startswith("line 1: malformed record: maximum "
                                 "recursion depth exceeded")
    assert "Traceback" not in run.stdout + run.stderr


@pytest.mark.parametrize("command", ["gen-vectors", "validate"])
def test_a_file_that_is_no_utf8_text_exit_code(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe" + json.dumps(R16_CONFIG).encode() + b"\n")
    argv = (["gen-vectors", "--release", "r16", "--config", str(bad),
             "--out", str(tmp_path / "out.jsonl")]
            if command == "gen-vectors" else ["validate", str(bad)])
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: 'utf-8' codec can't decode")
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("value", [2**64, -2**63 - 1],
                         ids=["2**64", "-2**63-1"])
def test_validate_names_a_huge_index_as_written(tmp_path, capsys, value):
    # orjson reads an int outside [-2**63, 2**64) as a float; the message
    # is the one json.loads's value gives
    from nrpmi import cli
    from nrpmi.errors import FormatError

    config = write_config(tmp_path, R16_CONFIG)
    out = tmp_path / "vectors.jsonl"
    main(["gen-vectors", "--release", "r16", "--config", config,
          "--seed", "4", "--samples", "1", "--out", str(out)])
    record = edited(json.loads(out.read_text()), "k1", first_nonzero(value))
    line = json.dumps(record)
    out.write_text(line + "\n")
    with pytest.raises(FormatError) as want:
        cli.fields_to_pmi("r16", json.loads(line)["pmi"])
    assert str(value) in str(want.value)
    capsys.readouterr()
    assert main(["validate", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"line 1: malformed record: {want.value}\n"


# JSON texts on which orjson alone rejects the line or reads another value
# than json.loads: ints beyond int64 or uint64, floats from 2**63 up, the
# NaN and Infinity literals, numbers beyond a double, lone surrogates;
# and a few that neither parser reads
_WIDE_INTS = [2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, 2**64, 2**64 + 1,
              10**30]
NUMBERS = (st.sampled_from(
    [str(sign * i) for i in _WIDE_INTS for sign in (1, -1)]
    + [repr(sign * x) for x in (2.0**63, 2.0**64, 1e308, 5e-324,
                                2.2250738585072014e-308, 0.0)
       for sign in (1.0, -1.0)]
    + ["1e400", "-1e400", "NaN", "Infinity", "-Infinity", "-0",
       "0.00012345678901234567", "123456789012345678901234567e-9"])
    | st.integers().map(str)
    | st.floats(allow_nan=False, allow_infinity=False).map(repr))
# raw text as well as escapes: a raw control character (tab, newline,
# U+0001) makes a malformed string for both parsers; raw non-ASCII and a raw
# lone surrogate (which orjson rejects) are strings
RAW = ['"a\tb"', '"a\nb"', '"\x01"', '"\x1f"', '"\x7f"', '"\u00e9\u4e2d"',
       '"\U0001f600"', '"\ud800"']
STRINGS = (st.sampled_from(['"\\ud800"', '"\\udc00"', '"x\\ud83dy"',
                            '"\\ud83d\\ude00"', '"\\u00e9"'] + RAW)
           | st.text(max_size=4).map(json.dumps)
           | st.text(max_size=4).map(
               lambda s: json.dumps(s, ensure_ascii=False)))
KEYS = st.sampled_from(['"a"', '"b"', '"expected"', '"\\ud800"',
                        '"\\ud83d\\ude00"'] + RAW)
LEAVES = (NUMBERS | STRINGS | st.sampled_from(["true", "false", "null"])
          | st.sampled_from(["01", "[1,]", '"\\x"', "tru"]))


def json_list(items):
    return "[" + ", ".join(items) + "]"


def json_object(pairs):
    return "{" + ", ".join(f"{k}: {v}" for k, v in pairs) + "}"


DOCUMENTS = st.recursive(
    LEAVES, lambda kids: st.lists(kids, max_size=4).map(json_list)
    | st.lists(st.tuples(KEYS, kids), max_size=4).map(json_object),
    max_leaves=12)
# an expected block of (real, imag) pairs beside other keys, some repeated
PAIRS = st.lists(st.lists(NUMBERS, min_size=2, max_size=2).map(json_list),
                 max_size=4).map(json_list)
RECORDS = st.lists(st.tuples(KEYS, DOCUMENTS) | st.tuples(
    st.just('"expected"'), PAIRS), min_size=1, max_size=4).map(json_object)


def assert_read_as_json_loads(line):
    from nrpmi import cli

    try:
        want = json.loads(line)
    except (ValueError, RecursionError) as exc:
        with pytest.raises(type(exc)) as got:
            cli.read_record(line)
        assert str(got.value) == str(exc)
        return
    record, expected = cli.read_record(line)
    # repr tells an int from a float and -0.0 from 0.0
    assert repr(record) == repr(want)
    if expected is not None:
        array = np.asarray(want["expected"])
        assert expected.dtype == array.dtype
        assert expected.shape == array.shape
        assert expected.tobytes() == array.tobytes()


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(DOCUMENTS | RECORDS)
def test_read_record_is_json_loads(line):
    assert_read_as_json_loads(line)


@pytest.mark.parametrize("line", [
    "[" * n + "]" * n for n in (99, 100, 101, 400, 5000)] + [
    '{"expected": [[1.0, 2.0]], "a": %s}' % ("[" * n + "]" * n)
    for n in (98, 99, 100, 5000)] + [
    # past 2**13 opening brackets json.loads reads the line alone: brackets
    # in a string count too, and a long expected block is no deeper.  Each
    # pair holds 2**13 and 2**13 + 1 of them
    '{"a": "%s", "b": [[1]]}' % ("[{" * n) for n in (4094, 4095)] + [
    '{"expected": %s, "b": 2}' % json.dumps([[0.5, -1e-5]] * n)
    for n in (8190, 8191)])
def test_read_record_is_json_loads_at_any_depth(line):
    # json.loads reads these nestings, or recurses too deep, where orjson
    # reads every one
    assert_read_as_json_loads(line)


def vectors_of(tmp_path, *runs):
    """The records of one gen-vectors run per (release, config, samples),
    joined into one file."""
    text = ""
    for i, (release, cfg, samples) in enumerate(runs):
        config = tmp_path / f"config{i}.json"
        config.write_text(json.dumps(cfg))
        out = tmp_path / f"part{i}.jsonl"
        assert main(["gen-vectors", "--release", release, "--config",
                     str(config), "--seed", str(i), "--samples", str(samples),
                     "--out", str(out)]) == 0
        text += out.read_text()
    path = tmp_path / "vectors.jsonl"
    path.write_text(text)
    return str(path)


def test_validate_reports_an_unknown_release_as_malformed(tmp_path, capsys):
    path = vectors_of(tmp_path, ("r16", R16_CONFIG, 1))
    record = json.loads(Path(path).read_text())
    record["release"] = "r99"
    Path(path).write_text(json.dumps(record) + "\n")
    capsys.readouterr()
    assert main(["validate", path]) == 2
    assert capsys.readouterr().err == \
        "line 1: malformed record: unknown release 'r99'\n"


def test_validate_builds_each_distinct_config_once(tmp_path, capsys,
                                                   monkeypatch):
    from nrpmi import cli

    path = vectors_of(tmp_path, ("r16", R16_CONFIG, 3), ("r18", R18_CONFIG, 2),
                      ("r16", R16_CONFIG, 2))
    built = []
    build = cli.build_release_config

    def counting(release, cfg):
        built.append(release)
        return build(release, cfg)

    monkeypatch.setattr(cli, "build_release_config", counting)
    capsys.readouterr()
    assert main(["validate", path]) == 0
    assert "7/7 records passed" in capsys.readouterr().out
    assert built == ["r16", "r18"]


@pytest.mark.parametrize("field,value", [("n3", 8.0), ("rank", True)])
def test_validate_keys_configs_by_their_text(tmp_path, capsys, field, value):
    # the edited config == the first record's (8.0 == 8, True == 1), but
    # its text differs, so it is built and found malformed
    assert R16_CONFIG[field] == value
    path = vectors_of(tmp_path, ("r16", R16_CONFIG, 2))
    lines = Path(path).read_text().splitlines()
    record = json.loads(lines[1])
    record["config"][field] = value
    lines[1] = json.dumps(record)
    Path(path).write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("line 2: malformed record: field " + field)


def test_invalid_config_exit_code(tmp_path):
    config = write_config(tmp_path, {"n1": 5, "n2": 1, "o1": 4, "o2": 1,
                                     "param_combination": 2, "n3": 8})
    out = str(tmp_path / "x.jsonl")
    assert main(["gen-vectors", "--release", "r16", "--config", config,
                 "--out", out]) == 2
    assert main(["gen-vectors", "--release", "bogus", "--config", config,
                 "--out", out]) == 2


ARRAY = {"n1": 4, "n2": 2, "o1": 4, "o2": 4}
R15_DEFAULTS = {"l": 2, "n_psk": 8, "subband_amplitude": True, "rank": 1,
                "subband_count": 1}
# per release: the keys a config must give, and the defaults it may omit
CONFIG_DEFAULTS = {
    "r15-type1": (ARRAY, {"mode": 1, "rank": 1, "subband_count": 1}),
    "r15-type2": (ARRAY, R15_DEFAULTS),
    "r15-ps": ({"p_csirs": 8}, {**R15_DEFAULTS, "d": 1}),
    "r16": ({**ARRAY, "param_combination": 2, "n3": 8}, {"r": 1, "rank": 1}),
    "r16-ps": ({"p_csirs": 16, "param_combination": 2, "n3": 8},
               {"r": 1, "d": 1, "rank": 1}),
    "r17-ps": ({"p_csirs": 16, "param_combination": 6, "n3": 6},
               {"n_threshold": 2, "rank": 1}),
    "r18": ({**ARRAY, "param_combination": 2, "n3": 8},
            {"r": 1, "n4": 1, "rank": 1}),
}


@pytest.mark.parametrize("release", list(CONFIG_DEFAULTS))
def test_config_defaults_are_the_explicit_values(release):
    from nrpmi import cli

    assert set(CONFIG_DEFAULTS) == set(cli.RELEASES)
    required, defaults = CONFIG_DEFAULTS[release]
    assert (cli.build_release_config(release, required)
            == cli.build_release_config(release, {**required, **defaults}))


@pytest.mark.parametrize("command", ["gen-vectors", "validate"])
@pytest.mark.parametrize("config,named", [
    ({k: v for k, v in R16_CONFIG.items() if k != "n3"}, "n3"),
    ({**R16_CONFIG, "rank": "x"}, "rank"),
    ({**R16_CONFIG, "rank": 2.0}, "rank"),
    ([R16_CONFIG], "config"),
], ids=["missing-key", "string-rank", "float-rank", "non-object"])
def test_malformed_config_exit_code(tmp_path, capsys, command, config, named):
    out = str(tmp_path / "vectors.jsonl")
    if command == "gen-vectors":
        argv = ["gen-vectors", "--release", "r16", "--config",
                write_config(tmp_path, config), "--out", out]
    else:
        main(["gen-vectors", "--release", "r16", "--config",
              write_config(tmp_path, R16_CONFIG), "--samples", "1",
              "--out", out])
        record = json.loads(Path(out).read_text())
        record["config"] = config
        bad = tmp_path / "malformed.jsonl"
        bad.write_text(json.dumps(record) + "\n")
        argv = ["validate", str(bad)]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("release,config", [
    ("r15-type2", {"n1": 2, "n2": 1, "o1": 4, "o2": 1, "l": 4}),
    ("r15-ps", {"p_csirs": 4, "l": 3}),
    ("r16", {"n1": 2, "n2": 2, "o1": 4, "o2": 4, "param_combination": 7,
             "n3": 8}),
    ("r16-ps", {"p_csirs": 4, "param_combination": 3, "n3": 8}),
    ("r18", {"n1": 2, "n2": 2, "o1": 4, "o2": 4, "param_combination": 8,
             "n3": 8}),
])
def test_more_beams_than_the_array_exit_code(tmp_path, capsys, release,
                                             config):
    capsys.readouterr()
    assert main(["gen-vectors", "--release", release, "--config",
                 write_config(tmp_path, config), "--out",
                 str(tmp_path / "out.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: L=") and "Traceback" not in err


@pytest.mark.parametrize("p_csirs", [6, 7, 10])
@pytest.mark.parametrize("release,config", [
    ("r15-ps", {}),
    ("r16-ps", {"param_combination": 1, "n3": 8}),
    ("r17-ps", {"param_combination": 6, "n3": 8}),
])
def test_unsupported_port_count_exit_code(tmp_path, capsys, release, config,
                                          p_csirs):
    capsys.readouterr()
    assert main(["gen-vectors", "--release", release, "--config",
                 write_config(tmp_path, {**config, "p_csirs": p_csirs}),
                 "--out", str(tmp_path / "out.jsonl")]) == 2
    err = capsys.readouterr().err
    assert f"p_csirs={p_csirs}" in err and "Traceback" not in err
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("command", ["gen-vectors", "validate"])
@pytest.mark.parametrize("release,config,named", [
    ("r16", {**CONFIG_DEFAULTS["r16"][0], "p_csirs": 16, "d": 1},
     "geom given with p_csirs=16"),
    ("r15-type2", {**ARRAY, "d": 3}, "d=3 given without p_csirs"),
    ("r16-ps", {"param_combination": 2, "n3": 8}, "p_csirs"),
], ids=["r16-with-ports", "r15-type2-with-d", "r16-ps-without-ports"])
def test_config_of_both_or_neither_basis_exit_code(tmp_path, capsys, command,
                                                   release, config, named):
    # the variant follows from p_csirs: a regular release rejects p_csirs
    # and d, and a port-selection release needs p_csirs
    out = tmp_path / "out.jsonl"
    argv = ["gen-vectors", "--release", release, "--config",
            write_config(tmp_path, config), "--out", str(out)]
    if command == "validate":
        main(["gen-vectors", "--release", release, "--config",
              write_config(tmp_path, CONFIG_DEFAULTS[release][0]),
              "--samples", "1", "--out", str(out)])
        record = json.loads(out.read_text())
        record["config"] = config
        bad = tmp_path / "malformed.jsonl"
        bad.write_text(json.dumps(record) + "\n")
        argv = ["validate", str(bad)]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert command == "validate" or not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen-vectors", "--release", "r16", "--config", "{config}",
     "--seed", "-1", "--out", "{out}"],
    ["gen-vectors", "--release", "r16", "--config", "{config}",
     "--samples", "0", "--out", "{out}"],
    ["simulate", "--seed", "-1", "--out", "{out}"],
    ["simulate", "--snr", "abc", "--out", "{out}"],
    ["baselines", "--snr", "0,,10", "--out", "{out}"],
    ["simulate", "--trials", "-3", "--out", "{out}"],
    ["simulate", "--trials", "0", "--out", "{out}"],
    ["baselines", "--trials", "1", "--out", "{out}"],
    ["gen-vectors", "--release", "r16", "--config", "{dir}",
     "--out", "{out}"],
    ["validate", "{dir}"],
    ["simulate", "--snr", "nan", "--trials", "2", "--out", "{out}"],
    ["simulate", "--snr", "0,inf", "--trials", "2", "--out", "{out}"],
    ["simulate", "--snr=-inf", "--trials", "2", "--out", "{out}"],
    ["simulate", "--snr", "1e400", "--trials", "2", "--out", "{out}"],
    ["baselines", "--snr", "nan", "--trials", "2", "--out", "{out}"],
    # finite SNRs outside [-100, 100] dB, which overflowed, divided by a
    # zero linear SNR or made the beamformers singular
    ["simulate", "--snr", "1e300", "--trials", "2", "--out", "{out}"],
    ["baselines", "--snr", "1e300", "--trials", "2", "--out", "{out}"],
    ["simulate", "--snr=-4000", "--trials", "2", "--out", "{out}"],
    ["baselines", "--snr=-4000", "--trials", "2", "--out", "{out}"],
    ["simulate", "--snr", "250", "--trials", "3", "--out", "{out}"],
    ["baselines", "--snr", "250", "--trials", "3", "--out", "{out}"],
    ["simulate", "--snr", "0,101", "--trials", "2", "--out", "{out}"],
    ["baselines", "--snr", "101", "--trials", "2", "--out", "{out}"],
], ids=["gen-seed", "gen-samples", "sim-seed", "sim-snr", "base-snr", "sim-trials-neg",
        "sim-trials-0", "base-trials-1", "config-dir", "vectors-dir",
        "sim-snr-nan", "sim-snr-inf", "sim-snr-neg-inf", "sim-snr-overflow",
        "base-snr-nan", "sim-snr-1e300", "base-snr-1e300", "sim-snr-neg-4000",
        "base-snr-neg-4000", "sim-snr-250", "base-snr-250", "sim-snr-101",
        "base-snr-101"])
def test_bad_arguments_exit_code(tmp_path, capsys, argv):
    names = {"config": write_config(tmp_path, R16_CONFIG),
             "out": str(tmp_path / "out.csv"), "dir": str(tmp_path)}
    capsys.readouterr()
    assert main([arg.format(**names) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "usage:" in err or err.startswith("error:")
    assert "Traceback" not in err
    if any(arg.startswith("--snr") for arg in argv):
        assert "argument --snr:" in err


def test_snr_range_is_inclusive():
    from nrpmi.cli import floats

    assert floats("-100,0,100") == [-100.0, 0.0, 100.0]


def test_main_runs_two_subcommands_in_turn(tmp_path, capsys):
    # the parser is built once and serves every call
    config = write_config(tmp_path, R16_CONFIG)
    out = str(tmp_path / "vectors.jsonl")
    assert main(["overhead", "--out", str(tmp_path / "overhead.csv")]) == 0
    assert main(["gen-vectors", "--release", "r16", "--config", config,
                 "--seed", "2", "--samples", "2", "--out", out]) == 0
    assert main(["validate", out]) == 0
    captured = capsys.readouterr().out
    assert "wrote 2 records" in captured
    assert "2/2 records passed" in captured


def test_main_runs_a_command_replaced_after_the_first_call(tmp_path,
                                                          monkeypatch):
    from nrpmi import cli

    path = str(tmp_path / "vectors.jsonl")
    assert main(["validate", path]) == 2      # builds the parser
    seen = []
    monkeypatch.setattr(cli, "cmd_validate",
                        lambda args: seen.append(args.vectors) or 7)
    assert main(["validate", path]) == 7
    assert seen == [path]


def test_usage_error_after_a_good_call_exits_2(tmp_path, capsys):
    out = str(tmp_path / "overhead.csv")
    assert main(["overhead", "--out", out]) == 0
    capsys.readouterr()
    assert main(["overhead", "--release", "bogus", "--out", out]) == 2
    assert main(["validate"]) == 2
    err = capsys.readouterr().err
    assert err.count("usage:") == 2
    assert main(["overhead", "--out", out]) == 0


def test_byte_identical_outputs(tmp_path):
    config = write_config(tmp_path, R16_CONFIG)
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for out in (a, b):
        main(["gen-vectors", "--release", "r16", "--config", config,
              "--seed", "9", "--samples", "4", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


def test_overhead_csv(tmp_path):
    out = tmp_path / "overhead.csv"
    assert main(["overhead", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert set(rows[0]) == {"release", "L", "field", "bits", "total"}
    totals = {(r["release"], int(r["L"])): int(r["total"]) for r in rows}
    for l in (1, 2, 3, 4):
        assert totals[("r15-type2", l)] > 10 * totals[("r16", l)]
        assert totals[("r18", l)] < totals[("r16", l)]


def test_simulate_csv(tmp_path):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--snr", "0,10", "--trials", "30",
                 "--seed", "4", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    # monotone in SNR for each scheme and geometry
    for scheme in ("type1", "type2"):
        for ant in ("4x1", "16x1"):
            vals = [float(r["mean_rate"]) for r in rows
                    if r["scheme"] == scheme and r["antennas"] == ant]
            assert vals == sorted(vals)


def test_baselines_csv(tmp_path):
    out = tmp_path / "base.csv"
    assert main(["baselines", "--snr", "15", "--trials", "25",
                 "--seed", "5", "--out", str(out)]) == 0
    rows = {r["scheme"]: float(r["mean_rate"])
            for r in csv.DictReader(out.read_text().splitlines())}
    assert rows["wmmse"] >= rows["rzf"] * 0.95


def test_serialize_pmi_lengths():
    import numpy as np
    from nrpmi import type2_r15, type2_r16, type2_r17, type2_r18
    from nrpmi.bases import ArrayGeometry
    from nrpmi.combinadics import binomial
    from math import ceil, log2

    clog2 = lambda x: ceil(log2(x)) if x > 1 else 0
    geom = ArrayGeometry(4, 2, 4, 4)
    rng = np.random.default_rng(0)

    cfg = type2_r16.R16Config(param_combination=2, r=1, n3=8, rank=2, geom=geom)
    pmi = type2_r16.random_valid_pmi(cfg, rng)
    bits = type2_r16.serialize_pmi(cfg, pmi)
    assert set(bits) <= {"0", "1"}
    knz = int(pmi.bitmap.sum())
    expected = (clog2(16) + clog2(binomial(8, 2))            # i11, i12
                + 2 * clog2(binomial(7, 1))                  # i16 per layer
                + 2 * (2 * cfg.l * cfg.mv)                   # bitmaps
                + 2 * clog2(2 * cfg.l)                       # i18 per layer
                + 2 * 4                                      # i23 per layer
                + (3 + 4) * (knz - cfg.rank))                # i24/i25 reported
    assert len(bits) == expected
    # deterministic
    assert bits == type2_r16.serialize_pmi(cfg, pmi)

    cfg15 = type2_r15.T2R15Config(l=2, n_psk=8, rank=1, subband_count=2,
                                  geom=geom)
    pmi15 = type2_r15.random_valid_pmi(cfg15, rng)
    k2_reported, alphabet = type2_r15.reporting_mask(cfg15, pmi15.k1,
                                                     pmi15.i13)
    n_phase_bits = sum(clog2(int(a)) for a in alphabet[0] if a)
    expected15 = (clog2(16) + clog2(binomial(8, 2)) + clog2(4) + 3 * 3
                  + 2 * n_phase_bits + 2 * int(k2_reported[0].sum()))
    assert len(type2_r15.serialize_pmi(cfg15, pmi15)) == expected15

    cfg17 = type2_r17.R17Config(p_csirs=16, param_combination=6, n3=6,
                                n_threshold=4, rank=1)
    pmi17 = type2_r17.random_valid_pmi(cfg17, rng)
    knz17 = int(pmi17.bitmap.sum())
    expected17 = (clog2(binomial(8, cfg17.l)) + clog2(3)
                  + cfg17.k1_beams * cfg17.m
                  + clog2(cfg17.k1_beams * cfg17.m) + 4
                  + (3 + 4) * (knz17 - 1))
    assert len(type2_r17.serialize_pmi(cfg17, pmi17)) == expected17

    cfg18 = type2_r18.R18Config(geom=geom, param_combination=2, r=1, n3=8,
                                n4=4, rank=1)
    pmi18 = type2_r18.random_valid_pmi(cfg18, rng)
    knz18 = int(pmi18.bitmap.sum())
    expected18 = (clog2(16) + clog2(binomial(8, 2)) + clog2(binomial(7, 1))
                  + 2 * cfg18.l * cfg18.mv * 2 + clog2(2 * cfg18.l * 2)
                  + clog2(3) + 4 + (3 + 4) * (knz18 - 1))
    assert len(type2_r18.serialize_pmi(cfg18, pmi18)) == expected18


def test_serialize_pmi_msb_first():
    import numpy as np
    from nrpmi import type2_r16
    from nrpmi.bases import ArrayGeometry

    geom = ArrayGeometry(4, 2, 4, 4)
    cfg = type2_r16.R16Config(param_combination=2, r=1, n3=8, rank=1, geom=geom)
    rng = np.random.default_rng(1)
    pmi = type2_r16.random_valid_pmi(cfg, rng)
    bits = type2_r16.serialize_pmi(cfg, pmi)
    # leading field: i11 = q1*O2 + q2 in 4 bits, MSB first
    q1, q2 = pmi.i11
    assert bits[:4] == format(q1 * 4 + q2, "04b")


# one small config per release; the rank is set per case
PER_POINT_CONFIGS = {
    "r15-type1": {**T1_CONFIG, "n2": 2, "o2": 4, "mode": 2,
                  "subband_count": 3},
    "r15-type2": {**R15_CONFIG, "subband_count": 3},
    "r15-ps": {"p_csirs": 8, "l": 2, "d": 1, "n_psk": 4,
               "subband_count": 3},
    "r16": {**R16_CONFIG, "n3": 24},
    "r16-ps": {"p_csirs": 16, "param_combination": 2, "r": 1, "n3": 8,
               "d": 2},
    "r17-ps": R17_CONFIG,
    "r18": R18_CONFIG,
}


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("release", list(PER_POINT_CONFIGS))
def test_expected_precoders_stack_the_per_point_calls(release, rank):
    import numpy as np
    from nrpmi import cli, type1, type2_r15

    assert set(PER_POINT_CONFIGS) == set(cli.RELEASES)
    config = cli.build_release_config(
        release, {**PER_POINT_CONFIGS[release], "rank": rank})
    module = cli.RELEASES[release].module
    rng = np.random.default_rng(rank)
    for _ in range(3):
        sample = cli.sample_pmi(release, config, rng)
        pmi = sample.pmi
        if release == "r15-type1":
            points = [[type1.build_precoder(config, pmi, sb)]
                      for sb in range(config.subband_count)]
        elif release.startswith("r15"):
            points = [[type2_r15.reconstruct(config, pmi, sb)]
                      for sb in range(config.subband_count)]
        elif release == "r18":
            ws = module.reconstruct_all(config, pmi)
            points = [[ws[t, iota] for iota in range(config.n4)]
                      for t in range(config.n3)]
        else:
            ws = module.reconstruct_all(config, pmi)
            points = [[ws[t]] for t in range(config.n3)]
        assert np.array_equal(cli.expected_precoders(release, config, pmi),
                              np.array(points))
        assert np.array_equal(cli.expected_precoders(release, config, sample),
                              np.array(points))


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("release", list(PER_POINT_CONFIGS))
def test_random_report_is_the_draw_and_its_reconstruction(release, rank):
    # every release draws through its module's random_report: the report
    # random_valid_pmi draws from the same generator state, the generator
    # left where random_valid_pmi leaves it, and reconstruct_all's precoders
    from nrpmi import cli

    config = cli.build_release_config(
        release, {**PER_POINT_CONFIGS[release], "rank": rank})
    module = cli.RELEASES[release].module
    for seed in range(3):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        pmi, ws = module.random_report(config, rng)
        expected = module.random_valid_pmi(config, twin)
        assert cli.pmi_to_fields(pmi) == cli.pmi_to_fields(expected)
        assert rng.bit_generator.state == twin.bit_generator.state
        rebuilt = module.reconstruct_all(config, pmi)
        assert ws.dtype == rebuilt.dtype and ws.shape == rebuilt.shape
        assert ws.tobytes() == rebuilt.tobytes()


def test_release_serializer_is_the_module_function():
    from nrpmi import cli, type2_r15, type2_r18

    assert cli.RELEASES["r15-type1"].serialize is None
    assert cli.RELEASES["r15-ps"].serialize is type2_r15.serialize_pmi
    assert cli.RELEASES["r18"].serialize is type2_r18.serialize_pmi
