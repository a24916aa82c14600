"""Command-line front end: conformance vectors, overhead tables, simulations.

Subcommands
-----------
gen-vectors   sample random valid reports and write reconstruction records
validate      re-reconstruct a vector file and compare within tolerance
overhead      per-field bit counts and totals as CSV
simulate      Type I vs Type II spectral-efficiency Monte Carlo as CSV
baselines     full-CSI multi-user beamforming sum rates as CSV

Exit codes: 0 success, 1 validation failure, 2 usage or configuration error.
"""

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import math
import os
import stat
import sys
import types
import typing
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import orjson

from . import channel_sim, overhead, type1, type2_r15, type2_r16, type2_r17, type2_r18
from .bases import ArrayGeometry
from .beamforming import mu_beamformer, normalize_blocks, user_rates
from .errors import CodebookError, FormatError

VECTOR_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Release:
    """How the CLI handles one codebook.  Its module's functions are looked
    up when called, so a wrapped module function is seen."""

    module: types.ModuleType  # the codebook module
    config: type              # config dataclass, built from flat JSON keys
    pmi: type                 # report dataclass, rebuilt from its JSON fields
    # CLI defaults of config fields; a port-selection release fixes
    # "geom": None here, and no key sets geom
    defaults: dict = dataclasses.field(default_factory=dict)

    @property
    def serialize(self) -> Callable | None:
        """(config, report) -> bit string; None for Type I."""
        return getattr(self.module, "serialize_pmi", None)


_PORTS = {"geom": None, "d": 1}
RELEASES = {
    "r15-type1": Release(type1, type1.Type1Config, type1.Type1Pmi),
    "r15-type2": Release(type2_r15, type2_r15.T2R15Config, type2_r15.T2R15Pmi,
                         {"l": 2}),
    "r15-ps": Release(type2_r15, type2_r15.T2R15Config, type2_r15.T2R15Pmi,
                      {**_PORTS, "l": 2}),
    "r16": Release(type2_r16, type2_r16.R16Config, type2_r16.R16Pmi,
                   {"r": 1}),
    "r16-ps": Release(type2_r16, type2_r16.R16Config, type2_r16.R16Pmi,
                      {**_PORTS, "r": 1}),
    "r17-ps": Release(type2_r17, type2_r17.R17Config, type2_r17.R17Pmi,
                      {"geom": None}),
    "r18": Release(type2_r18, type2_r18.R18Config, type2_r18.R18Pmi,
                   {"r": 1, "n4": 1}),
}


def _release(name: str) -> Release:
    try:
        return RELEASES[name]
    except KeyError:
        raise CodebookError(f"unknown release {name!r}") from None


class _Field(typing.NamedTuple):
    name: str
    hint: object
    options: tuple  # the annotation's member types, generics as their origin
    required: bool


@functools.cache
def _typed_fields(cls: type) -> tuple[_Field, ...]:
    """A dataclass's fields with the member types of their annotations."""
    out = []
    for f in dataclasses.fields(cls):
        union = isinstance(f.type, types.UnionType)
        options = typing.get_args(f.type) if union else (f.type,)
        out.append(_Field(f.name, f.type,
                          tuple(typing.get_origin(o) or o for o in options),
                          f.default is dataclasses.MISSING))
    return tuple(out)


def _field_value(field: _Field, value):
    """A JSON value as the field's annotated type: a list as an array that
    numpy reads with an integer dtype (no float, bool or overflowing entry)
    or a tuple of ints, an int, bool or None as itself.  Raises FormatError
    when no member of the annotation fits."""
    for option in field.options:
        if type(value) is option:
            return value
        if option is np.ndarray and isinstance(value, list):
            try:
                array = np.asarray(value)
            except ValueError:      # ragged: no array of any dtype
                continue
            if np.issubdtype(array.dtype, np.integer):
                return array
        if option is tuple and isinstance(value, list) \
                and all(type(v) is int for v in value):
            return tuple(value)
    raise FormatError(f"field {field.name} must be {field.hint}, "
                      f"got {value!r}")


def _read_fields(cls: type, obj, what: str, defaults: dict,
                 fixed: tuple = ()) -> dict:
    """Keyword arguments of dataclass ``cls`` from a JSON object: each field
    from its key, else from ``defaults``; a field with a dataclass default
    may be left out.  The fields named in ``fixed`` read no key."""
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be a JSON object, "
                          f"got {type(obj).__name__}")
    values = {}
    for field in _typed_fields(cls):
        name = field.name
        if name in obj and name not in fixed:
            values[name] = _field_value(field, obj[name])
        elif name in defaults:
            values[name] = defaults[name]
        elif field.required:
            raise FormatError(f"{what} key {name!r} missing")
    return values


def build_release_config(release: str, cfg: dict):
    """The release's config object from a flat JSON object: each field from
    its key, typed by its annotation, else from the release's defaults.  A
    release whose defaults hold no ``geom`` builds it from n1/n2/o1/o2; no
    key sets ``geom``."""
    rel = _release(release)
    defaults = rel.defaults
    if "geom" not in defaults:
        geom = ArrayGeometry(**_read_fields(ArrayGeometry, cfg, "config", {}))
        defaults = {**defaults, "geom": geom}
    return rel.config(**_read_fields(rel.config, cfg, "config", defaults,
                                     ("geom",)))


class Sample(typing.NamedTuple):
    """A random valid report and its precoders as ``reconstruct_all``
    gives them."""

    pmi: object
    precoders: np.ndarray


def sample_pmi(release: str, config, rng) -> Sample:
    return Sample(*_release(release).module.random_report(config, rng))


def expected_precoders(release: str, config, pmi) -> np.ndarray:
    """Precoders indexed (t, iota, port, layer); t is the subband or the
    frequency unit, and only Rel-18 has more than one slot interval.
    ``pmi`` is a report, or a ``Sample`` whose precoders are not built
    again."""
    ws = (pmi.precoders if isinstance(pmi, Sample)
          else _release(release).module.reconstruct_all(config, pmi))
    return ws if ws.ndim == 4 else ws[:, None]


def pmi_to_fields(pmi) -> dict:
    """JSON-ready field dict, ndarray fields as nested lists."""
    out = {}
    for name, value in vars(pmi).items():
        if isinstance(value, np.ndarray):
            out[name] = value.tolist()
        elif isinstance(value, tuple):
            out[name] = list(value)
        else:
            out[name] = value
    return out


def fields_to_pmi(release: str, fields: dict):
    """Inverse of pmi_to_fields, typed by the report dataclass: coefficient
    arrays back to integer arrays, each entry as written (a bitmap entry
    other than 0 or 1 is left for the release's check to reject), lists
    back to tuples."""
    pmi_type = _release(release).pmi
    return pmi_type(**_read_fields(pmi_type, fields, "report", {}))


@functools.cache
def _nested_template(shape: tuple) -> str:
    """The text ``json.dumps`` gives a nested list of this shape, with a
    ``%s`` in place of each entry."""
    text = "%s"
    for n in reversed(shape):
        text = "[" + ", ".join([text] * n) + "]"
    return text


# the text json.dumps gives a non-finite float other than NaN
_NON_FINITE = {math.inf: "Infinity", -math.inf: "-Infinity"}


def json_floats(a: np.ndarray) -> str:
    """``json.dumps(a.tolist())`` for a float64 array.  orjson writes every
    entry; its text is ``repr``'s for zero and for magnitudes in [1e-4,
    1e16), so only the entries outside that range, and the non-finite ones
    it writes as null, are written again as ``json.dumps`` writes them."""
    flat = np.ascontiguousarray(a, dtype=np.float64).reshape(-1)
    if not flat.size:
        return _nested_template(a.shape)
    texts = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1] \
        .decode().split(",")
    mag = np.abs(flat)
    other = np.flatnonzero((mag != 0) & ~((mag >= 1e-4) & (mag < 1e16)))
    for i, x in zip(other.tolist(), flat[other].tolist()):
        texts[i] = repr(x) if math.isfinite(x) else _NON_FINITE.get(x, "NaN")
    return _nested_template(a.shape) % tuple(texts)


# orjson reads an integer outside [-2**63, 2**64) as a float, without
# raising; json.loads keeps it an int
_WIDE = 2.0 ** 63
# json.loads recurses once per level and fails near the interpreter's
# recursion limit, where orjson reads on; a value nested deeper than this is
# left to json.loads
_DEPTH = 100
# orjson 3.8 recurses once per level with no limit of its own, and a line
# nested deep enough overflows the native stack: the process dies (SIGSEGV)
# without an exception.  A level takes at most about 160 bytes of stack (an
# 8 MiB stack overflows near 52,000 nested objects or 131,000 nested lists),
# and a line nests no deeper than it holds opening brackets, so a line with
# more of them than this (about 1.3 MiB of stack) is left to json.loads
_OPENS = 2 ** 13


def _opens(line: str) -> int:
    """The number of ``[`` and ``{`` in a line longer than ``_OPENS``: a
    bound on how deep it nests.  UTF-8 puts no other character on the
    bytes 0x5b and 0x7b, the only ones that read 0x7b with bit 0x20 set."""
    raw = np.frombuffer(line.encode("utf-8", "surrogatepass"), np.uint8)
    return int(np.count_nonzero((raw | 0x20) == 0x7B))


def _narrow(value) -> bool:
    """Whether a value orjson parsed is nested at most ``_DEPTH`` deep and
    holds no float of magnitude 2**63 or more, so that ``json.loads`` gives
    the same value."""
    level = [value]
    for _ in range(_DEPTH):
        deeper = []
        for item in level:
            if type(item) is list:
                deeper += item
            elif type(item) is dict:
                deeper += item.values()
            elif type(item) is float and not abs(item) < _WIDE:
                return False
        if not deeper:
            return True
        level = deeper
    return False


def read_record(line: str) -> tuple[object, np.ndarray | None]:
    """``json.loads(line)``, and its ``"expected"`` entry as the array
    numpy reads from it, or None where the entry is not read here: a line
    that is no object with that key, or an entry that numpy reads as no
    integers or floats.

    orjson parses the line, and ``json.loads`` parses it again when orjson
    rejects it (the NaN and Infinity literals, a lone surrogate, a number
    beyond a double) or when its value may differ: it holds a float of
    magnitude 2**63 or more, or nests deeper than json.loads may recurse.
    The expected block, the bulk of a record, is checked on its array, the
    rest of the record entry by entry.  A line that may nest deeper than
    orjson can recurse safely is read by ``json.loads`` alone."""
    if len(line) > _OPENS and _opens(line) > _OPENS:
        return json.loads(line), None
    try:
        record = orjson.loads(line)
    except orjson.JSONDecodeError:
        return json.loads(line), None
    rest, expected = record, None
    if type(record) is dict and "expected" in record:
        try:
            expected = np.asarray(record["expected"])
        except ValueError:      # ragged or too deep: walked entry by entry
            pass
        else:
            kind = expected.dtype.kind
            if kind in "iu" or (kind == "f"
                                and (np.abs(expected) < _WIDE).all()):
                rest = [v for k, v in record.items() if k != "expected"]
            else:
                expected = None
    if _narrow(rest):
        return record, expected
    return json.loads(line), None


@contextlib.contextmanager
def _rewrite(path: str, newline: str | None = None):
    """``open(path, "w", newline=newline)`` for a CLI output file, but the
    file is cut to the bytes written when the block ends, not truncated at
    the open: on ext4 (data=ordered) the truncate to zero of a file
    rewritten moments before blocked for 50-150 ms in the open, where the
    records of a vectors file take 1.5-10 ms.  The file keeps its inode and
    mode, a symlink is written through, and a FIFO or ``/dev/null`` is
    written as before: only a regular file is cut.  The cut runs on an
    exception too, so the file then holds exactly what was written; a
    process killed before the cut can leave old bytes after the new ones."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", newline=newline) as fh:
        try:
            yield fh
        finally:
            fh.flush()
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def cmd_gen_vectors(args) -> int:
    with open(args.config) as fh:
        try:
            cfg_dict = json.load(fh)
        except RecursionError as exc:
            raise FormatError(f"config nests too deeply: {exc}") from None
    config = build_release_config(args.release, cfg_dict)
    rng = np.random.default_rng(args.seed)
    # each record is the json.dumps text of {"release", "config", "pmi",
    # "expected", "tolerance"}; the parts every record shares are written once
    head = (f'{{"release": {json.dumps(args.release)}, '
            f'"config": {json.dumps(cfg_dict)}, "pmi": ')
    tail = f', "tolerance": {json.dumps(VECTOR_TOLERANCE)}}}\n'
    with _rewrite(args.out) as fh:
        for _ in range(args.samples):
            sample = sample_pmi(args.release, config, rng)
            ws = expected_precoders(args.release, config, sample)
            expected = json_floats(np.stack([ws.real, ws.imag], -1))
            fh.write(f'{head}{json.dumps(pmi_to_fields(sample.pmi))}, '
                     f'"expected": {expected}{tail}')
    print(f"wrote {args.samples} records to {args.out}")
    return 0


def cmd_validate(args) -> int:
    failures = 0
    count = 0
    # gen-vectors writes one config into every record of a file, so each
    # distinct config is built once; the key is its decoded text, since
    # == would take 8.0 or true for 8
    configs = {}
    # a byte that is no UTF-8 is kept as a lone surrogate and raised with
    # its line below, not with the 8 KiB chunk that holds it, so the records
    # before it are validated first
    with open(args.vectors, errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.isascii():
                try:
                    line.encode(fh.encoding, "surrogateescape") \
                        .decode(fh.encoding)
                except UnicodeDecodeError as exc:
                    print(f"error: {exc} (line {line_no})", file=sys.stderr)
                    return 2
            if not line.strip():
                continue
            try:
                record, expected = read_record(line)
                if type(record) is not dict:
                    raise FormatError("record must be a JSON object, got "
                                      f"{type(record).__name__}")
                release = record["release"]
                key = release, repr(record["config"])
                if key not in configs:
                    configs[key] = build_release_config(release,
                                                        record["config"])
                config = configs[key]
                pmi = fields_to_pmi(release, record["pmi"])
                if expected is None:
                    try:
                        expected = np.asarray(record["expected"])
                    except ValueError:  # ragged, or deeper than an array
                        raise ValueError("expected must be nested lists of "
                                         "one shape, got a ragged or too "
                                         "deep one") from None
                if expected.dtype.kind not in "iuf":
                    raise ValueError("expected must hold numbers, got "
                                     f"{expected.dtype}")
                if expected.shape[-1:] != (2,):
                    raise ValueError("expected must hold (real, imag) "
                                     f"pairs, got shape {expected.shape}")
                expected = expected[..., 0] + 1j * expected[..., 1]
                if not np.isfinite(expected).all():
                    raise ValueError("expected holds a non-finite entry")
                # a JSON number, never true or a string; an int of any
                # size is finite and is compared as it is
                tolerance = record["tolerance"]
                finite = type(tolerance) is int or (
                    type(tolerance) is float and math.isfinite(tolerance))
                if not (finite and tolerance >= 0):
                    raise ValueError(f"tolerance {tolerance!r} must be a "
                                     "finite number >= 0")
            # a nesting too deep to decode or print is malformed, whichever
            # parser or repr meets it
            except (KeyError, IndexError, TypeError, ValueError,
                    RecursionError) as exc:
                # a KeyError here is a record key: every other lookup
                # raises its own error
                if type(exc) is KeyError:
                    exc = f"record key {exc.args[0]!r} missing"
                print(f"line {line_no}: malformed record: {exc}",
                      file=sys.stderr)
                return 2
            count += 1
            try:
                ws = expected_precoders(release, config, pmi)
            except CodebookError as exc:
                print(f"line {line_no}: FAIL (reconstruction error: {exc})")
                failures += 1
                continue
            err = (float(np.max(np.abs(ws - expected)))
                   if ws.shape == expected.shape else np.inf)
            if not err <= tolerance:
                print(f"line {line_no}: FAIL (max error {err:.3e})")
                failures += 1
    print(f"{count - failures}/{count} records passed")
    return 0 if failures == 0 and count > 0 else 1


def _write_csv(path: str, fieldnames: list[str], rows: list[dict]) -> int:
    with _rewrite(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def cmd_overhead(args) -> int:
    releases = [args.release] if args.release else \
        ["r15-type2", "r16", "r18"]
    rows = []
    for name in releases:
        for l in (1, 2, 3, 4):
            cfg = overhead.OverheadConfig(
                release=name, l=l, rank=2, n1n2=16, o1o2=4, n3=18,
                subband_count=18, n4=4, q=2, mv=5, n_psk=4, k2_cap=6, k_nz=20)
            rows.extend(overhead.overhead_rows(cfg))
    return _write_csv(args.out, ["release", "L", "field", "bits", "total"],
                      rows)


def cmd_simulate(args) -> int:
    rows = channel_sim.spectral_efficiency_experiment(
        snr_db=args.snr, trials=args.trials, seed=args.seed)
    return _write_csv(args.out, ["antennas", "snr_db", "scheme",
                                 "mean_rate", "ci95"], rows)


def cmd_baselines(args) -> int:
    schemes = ("zf", "rzf", "mmse", "wmmse")
    k_users, nr, nt = 3, 2, 8
    rows = []
    for snr_db in args.snr:
        snr = 10 ** (snr_db / 10)
        pt, noise = snr, 1.0
        sums = {s: [] for s in schemes}
        for trial in range(args.trials):
            rng = np.random.default_rng([args.seed, trial])
            channels = [rng.standard_normal((nr, nt))
                        + 1j * rng.standard_normal((nr, nt))
                        for _ in range(k_users)]
            for scheme in schemes:
                if scheme == "wmmse":
                    blocks = mu_beamformer(
                        "wmmse", channels, pt=pt, noise_power=noise,
                        n_iter=40, rng=np.random.default_rng([args.seed, trial, 1]))
                else:
                    blocks = normalize_blocks(mu_beamformer(
                        scheme, channels, xi=noise / pt, pt=pt), pt)
                sums[scheme].append(user_rates(channels, blocks, noise).sum())
        for scheme in schemes:
            vals = np.asarray(sums[scheme])
            rows.append({"snr_db": snr_db, "scheme": scheme,
                         "mean_rate": float(vals.mean()),
                         "ci95": float(1.96 * vals.std(ddof=1)
                                       / np.sqrt(len(vals)))})
    return _write_csv(args.out, ["snr_db", "scheme", "mean_rate", "ci95"],
                      rows)


def _integer(low: int) -> Callable[[str], int]:
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"{text} is below {low}")
        return int(text)
    return integer


# beyond this many dB the linear SNR overflows, underflows to 0 or makes
# the beamformers singular
SNR_DB_LIMIT = 100


def floats(text: str) -> list[float]:
    """A comma-separated list of SNRs in [-SNR_DB_LIMIT, SNR_DB_LIMIT] dB,
    as ``--snr`` takes them."""
    values = [float(s) for s in text.split(",")]
    if not all(-SNR_DB_LIMIT <= v <= SNR_DB_LIMIT for v in values):
        raise argparse.ArgumentTypeError(
            f"must hold numbers in [-{SNR_DB_LIMIT}, {SNR_DB_LIMIT}] dB, "
            f"got {text}")
    return values


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once.  Each subcommand looks its ``cmd_*``
    function up when it runs, so a wrapped one is seen."""
    parser = argparse.ArgumentParser(
        prog="nrpmi",
        description="5G NR PMI codebook conformance vectors and simulations")
    sub = parser.add_subparsers(dest="command", required=True)
    seed = {"type": _integer(0), "default": 0}
    trials = {"type": _integer(2)}  # a 95% interval needs two trials

    gen = sub.add_parser("gen-vectors", help="emit reconstruction records")
    gen.add_argument("--release", required=True, choices=RELEASES)
    gen.add_argument("--config", required=True)
    gen.add_argument("--seed", **seed)
    gen.add_argument("--samples", type=_integer(1), default=10)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=lambda a: cmd_gen_vectors(a))

    val = sub.add_parser("validate", help="check a vector file")
    val.add_argument("vectors")
    val.set_defaults(func=lambda a: cmd_validate(a))

    ovh = sub.add_parser("overhead", help="feedback bit accounting CSV")
    ovh.add_argument("--release", choices=overhead.RELEASES)
    ovh.add_argument("--out", required=True)
    ovh.set_defaults(func=lambda a: cmd_overhead(a))

    sim = sub.add_parser("simulate", help="Type I/II spectral efficiency CSV")
    sim.add_argument("--snr", type=floats, default="-10,0,10,20")
    sim.add_argument("--trials", default=500, **trials)
    sim.add_argument("--seed", **seed)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=lambda a: cmd_simulate(a))

    base = sub.add_parser("baselines", help="multi-user beamforming CSV")
    base.add_argument("--snr", type=floats, default="0,10,20")
    base.add_argument("--trials", default=100, **trials)
    base.add_argument("--seed", **seed)
    base.add_argument("--out", required=True)
    base.set_defaults(func=lambda a: cmd_baselines(a))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    # a vector or config file that does not decode as text raises
    # UnicodeDecodeError while it is read
    except (CodebookError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
