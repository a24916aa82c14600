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
import csv
import dataclasses
import json
import sys
import types
import typing
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import channel_sim, overhead, type1, type2_r15, type2_r16, type2_r17, type2_r18
from .bases import ArrayGeometry
from .beamforming import mu_beamformer, user_rates
from .enhanced import PORT_SELECTION, REGULAR
from .errors import CodebookError

VECTOR_TOLERANCE = 1e-9


def _load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _geom(cfg: dict) -> ArrayGeometry:
    return ArrayGeometry(cfg["n1"], cfg["n2"], cfg["o1"], cfg["o2"])


def _array(cfg: dict) -> dict:
    return {"variant": REGULAR, "geom": _geom(cfg)}


def _ports(cfg: dict) -> dict:
    return {"variant": PORT_SELECTION, "p_csirs": cfg["p_csirs"],
            "d": cfg.get("d", 1)}


def _r15_config(spatial):
    return lambda cfg: type2_r15.T2R15Config(
        l=cfg.get("l", 2), n_psk=cfg.get("n_psk", 8),
        subband_amplitude=cfg.get("subband_amplitude", True),
        rank=cfg.get("rank", 1), subband_count=cfg.get("subband_count", 1),
        **spatial(cfg))


def _r16_config(spatial):
    return lambda cfg: type2_r16.R16Config(
        param_combination=cfg["param_combination"], r=cfg.get("r", 1),
        n3=cfg["n3"], rank=cfg.get("rank", 1), **spatial(cfg))


@dataclass(frozen=True)
class Release:
    """How the CLI handles one codebook.  Its module's functions are looked
    up when called, so a wrapped module function is seen."""

    build: Callable           # flat config keys -> config object
    module: types.ModuleType  # the codebook module
    pmi: type                 # report dataclass, rebuilt from its JSON fields

    @property
    def serialize(self) -> Callable | None:
        """(config, report) -> bit string; None for Type I."""
        return getattr(self.module, "serialize_pmi", None)


RELEASES = {
    "r15-type1": Release(
        lambda cfg: type1.Type1Config(
            _geom(cfg), mode=cfg.get("mode", 1), rank=cfg.get("rank", 1),
            subband_count=cfg.get("subband_count", 1)),
        type1, type1.Type1Pmi),
    "r15-type2": Release(_r15_config(_array), type2_r15, type2_r15.T2R15Pmi),
    "r15-ps": Release(_r15_config(_ports), type2_r15, type2_r15.T2R15Pmi),
    "r16": Release(_r16_config(_array), type2_r16, type2_r16.R16Pmi),
    "r16-ps": Release(_r16_config(_ports), type2_r16, type2_r16.R16Pmi),
    "r17-ps": Release(
        lambda cfg: type2_r17.R17Config(
            p_csirs=cfg["p_csirs"],
            param_combination=cfg.get("alpha_combo",
                                      cfg.get("param_combination")),
            n3=cfg["n3"], n_threshold=cfg.get("n_threshold", 2),
            rank=cfg.get("rank", 1)),
        type2_r17, type2_r17.R17Pmi),
    "r18": Release(
        lambda cfg: type2_r18.R18Config(
            geom=_geom(cfg), param_combination=cfg["param_combination"],
            r=cfg.get("r", 1), n3=cfg["n3"], n4=cfg.get("n4", 1),
            rank=cfg.get("rank", 1)),
        type2_r18, type2_r18.R18Pmi),
}


def _release(name: str) -> Release:
    try:
        return RELEASES[name]
    except KeyError:
        raise CodebookError(f"unknown release {name!r}") from None


def build_release_config(release: str, cfg: dict):
    """Instantiate the release's config object from the flat key set."""
    return _release(release).build(cfg)


def sample_pmi(release: str, config, rng):
    return _release(release).module.random_valid_pmi(config, rng)


def expected_precoders(release: str, config, pmi) -> np.ndarray:
    """Precoders indexed (t, iota, port, layer); t is the subband or the
    frequency unit, and only Rel-18 has more than one slot interval."""
    ws = _release(release).module.reconstruct_all(config, pmi)
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _field_value(name: str, value, hint):
    """A JSON field value as the report field's annotated type: a list as
    an integer array or a tuple of ints, an int or None as itself.  Raises
    TypeError when no member of the annotation fits."""
    union = isinstance(hint, types.UnionType)
    for option in typing.get_args(hint) if union else (hint,):
        if option is np.ndarray and isinstance(value, list):
            return np.asarray(value, dtype=int)
        if typing.get_origin(option) is tuple and isinstance(value, list) \
                and all(map(_is_int, value)):
            return tuple(value)
        if (option is int and _is_int(value)
                or option is type(None) and value is None):
            return value
    raise TypeError(f"field {name} must be {hint}, got {value!r}")


def fields_to_pmi(release: str, fields: dict):
    """Inverse of pmi_to_fields, typed by the report dataclass: coefficient
    arrays back to integer arrays (the bitmap as int8), lists back to
    tuples."""
    pmi_type = _release(release).pmi
    values = {}
    for field in dataclasses.fields(pmi_type):
        value = _field_value(field.name, fields[field.name], field.type)
        values[field.name] = (value.astype(np.int8) if field.name == "bitmap"
                              else value)
    return pmi_type(**values)


def _complex_to_pairs(ws: np.ndarray) -> list:
    stacked = np.stack([ws.real, ws.imag], axis=-1)
    return stacked.tolist()


def cmd_gen_vectors(args) -> int:
    cfg_dict = _load_config(args.config)
    config = build_release_config(args.release, cfg_dict)
    rng = np.random.default_rng(args.seed)
    with open(args.out, "w") as fh:
        for _ in range(args.samples):
            pmi = sample_pmi(args.release, config, rng)
            ws = expected_precoders(args.release, config, pmi)
            record = {
                "release": args.release,
                "config": cfg_dict,
                "pmi": pmi_to_fields(pmi),
                "expected": _complex_to_pairs(ws),
                "tolerance": VECTOR_TOLERANCE,
            }
            fh.write(json.dumps(record) + "\n")
    print(f"wrote {args.samples} records to {args.out}")
    return 0


def cmd_validate(args) -> int:
    failures = 0
    count = 0
    with open(args.vectors) as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                release = record["release"]
                config = build_release_config(release, record["config"])
                pmi = fields_to_pmi(release, record["pmi"])
                expected = np.asarray(record["expected"])
                expected = expected[..., 0] + 1j * expected[..., 1]
                tolerance = float(record["tolerance"])
            except (KeyError, ValueError, TypeError) as exc:
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
            err = float(np.max(np.abs(ws - expected)))
            if err > tolerance:
                print(f"line {line_no}: FAIL (max error {err:.3e})")
                failures += 1
    print(f"{count - failures}/{count} records passed")
    return 0 if failures == 0 and count > 0 else 1


def _write_csv(path: str, fieldnames: list[str], rows: list[dict]) -> int:
    with open(path, "w", newline="") as fh:
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
    snrs = [float(s) for s in args.snr.split(",")]
    rows = channel_sim.spectral_efficiency_experiment(
        snr_db=snrs, trials=args.trials, seed=args.seed)
    return _write_csv(args.out, ["antennas", "snr_db", "scheme",
                                 "mean_rate", "ci95"], rows)


def cmd_baselines(args) -> int:
    snrs = [float(s) for s in args.snr.split(",")]
    schemes = ("zf", "rzf", "mmse", "wmmse")
    k_users, nr, nt = 3, 2, 8
    rows = []
    for snr_db in snrs:
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
                    blocks = mu_beamformer(scheme, channels, xi=noise / pt,
                                           pt=pt)
                    power = sum(np.sum(np.abs(w) ** 2) for w in blocks)
                    blocks = [w * np.sqrt(pt / power) for w in blocks]
                sums[scheme].append(user_rates(channels, blocks, noise).sum())
        for scheme in schemes:
            vals = np.asarray(sums[scheme])
            rows.append({"snr_db": snr_db, "scheme": scheme,
                         "mean_rate": float(vals.mean()),
                         "ci95": float(1.96 * vals.std(ddof=1)
                                       / np.sqrt(len(vals)))})
    return _write_csv(args.out, ["snr_db", "scheme", "mean_rate", "ci95"],
                      rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nrpmi",
        description="5G NR PMI codebook conformance vectors and simulations")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-vectors", help="emit reconstruction records")
    gen.add_argument("--release", required=True, choices=RELEASES)
    gen.add_argument("--config", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--samples", type=int, default=10)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen_vectors)

    val = sub.add_parser("validate", help="check a vector file")
    val.add_argument("vectors")
    val.set_defaults(func=cmd_validate)

    ovh = sub.add_parser("overhead", help="feedback bit accounting CSV")
    ovh.add_argument("--release", choices=overhead.RELEASES)
    ovh.add_argument("--out", required=True)
    ovh.set_defaults(func=cmd_overhead)

    sim = sub.add_parser("simulate", help="Type I/II spectral efficiency CSV")
    sim.add_argument("--snr", default="-10,0,10,20")
    sim.add_argument("--trials", type=int, default=500)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    base = sub.add_parser("baselines", help="multi-user beamforming CSV")
    base.add_argument("--snr", default="0,10,20")
    base.add_argument("--trials", type=int, default=100)
    base.add_argument("--seed", type=int, default=0)
    base.add_argument("--out", required=True)
    base.set_defaults(func=cmd_baselines)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CodebookError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
