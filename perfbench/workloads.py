"""The benchmark's three workloads: inputs from a seed, timed ops, the gate.

Every workload is a closed loop with one client.  An op is one link trial
(``link-t2``, ``link-t1``) or one batch of conformance records for one
release (``conformance``).  A workload's ops for one seed form a fixed pool
that the runner cycles through, so every cycle does identical work and the
traced call counts repeat exactly.

The library is called through module attributes (``channel_sim.search_r16``
rather than an imported name), so the traced run's wrappers see every call.
"""

import contextlib
import hashlib
import io
import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nrpmi import beamforming, channel_sim, cli, type1, type2_r15, type2_r16, type2_r17, type2_r18
from nrpmi.bases import ArrayGeometry

NR = 2               # receive antennas
NOISE_POWER = 0.1    # 10 dB SNR for the Type I search score and every rate
NORM_TOL = 1e-9      # layer columns must have norm 1/sqrt(rank) within this

GEOM = ArrayGeometry(4, 2, 4, 4)   # 16 ports, the ROADMAP's baseline array


class GateError(Exception):
    """An output failed the correctness gate.

    ``failed`` is how many of the op's trials or records failed; None
    means all of them.
    """

    def __init__(self, message: str, failed: int | None = None):
        super().__init__(message)
        self.failed = failed


@dataclass
class OpResult:
    """Outcome of one op: library time split by phase, plus gated outputs.

    ``write_s`` is report production (search, or ``gen-vectors``);
    ``read_s`` is report consumption (reconstruction and rate, or
    ``validate``); ``other_s`` is the rest (the channel draw).
    """

    count: int                     # trials, or records
    reports: int                   # PMI reports written, and read back
    write_s: float = 0.0
    read_s: float = 0.0
    other_s: float = 0.0
    fields: list = field(default_factory=list)   # what the gate digests
    rates: list = field(default_factory=list)    # bit/s/Hz, one per report
    scale: float = 1.0             # host-speed factor, set by the runner

    @property
    def seconds(self) -> float:
        return self.write_s + self.read_s + self.other_s


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"unexpected PMI field value {value!r}")


def pmi_fields(pmi) -> dict:
    """The report's integer fields as plain JSON values."""
    return json.loads(json.dumps(vars(pmi), default=_plain))


def check_layers(ws: np.ndarray, rank: int, what: str) -> None:
    """Every layer column (axis -2 holds the ports) has norm 1/sqrt(rank)."""
    err = float(np.max(np.abs(np.linalg.norm(ws, axis=-2)
                              - 1 / math.sqrt(rank))))
    if not err <= NORM_TOL:
        raise GateError(f"{what}: layer norm off by {err:.3e}")


def check_rate(rate: float, what: str) -> float:
    if not math.isfinite(rate):
        raise GateError(f"{what}: rate {rate} is not finite")
    return rate


def _per_subcarrier(ws_sb: np.ndarray, m: int) -> np.ndarray:
    """Spread per-subband precoders (n_sb, P, rank) over m subcarriers,
    splitting the band as the searches do."""
    edges = np.linspace(0, m, len(ws_sb) + 1).astype(int)
    return np.repeat(ws_sb, np.diff(edges), axis=0)


def _rate(h: np.ndarray, ws: np.ndarray) -> float:
    """Single-user rate over subcarriers: h (M, Nr, P), ws (M, P, rank)."""
    return float(beamforming.user_rates([h], [ws], NOISE_POWER)[0])


# ---------------------------------------------------------------------------
# link-t2: Type II link trials, one channel draw serving five configs

T2_N3 = 24     # subcarriers drawn per trial; every config uses a prefix
T2_N4 = 4      # slot intervals (R18 only)
T2_POOL = 192  # trials per cycle
T2_MODEL = dict(n_paths=6, delay_spread=1e-6, doppler_max=200.0,
                subcarrier_spacing=180e3, n_subcarriers=T2_N3)


def _t2_r15(cfg, h):
    hf = h[0]                                               # (M, Nr, P)
    a = time.perf_counter()
    pmi = type2_r15.search_t2_r15(hf, cfg)
    b = time.perf_counter()
    ws = np.stack([type2_r15.reconstruct(cfg, pmi, sb)
                   for sb in range(cfg.subband_count)])
    rate = _rate(hf, _per_subcarrier(ws, hf.shape[0]))
    c = time.perf_counter()
    return pmi, ws, rate, b - a, c - b


def _t2_enhanced(search: str, release):
    """Runner for a one-interval Rel-16/17 config: ``channel_sim.<search>``
    then ``release.reconstruct_all``."""
    def run(cfg, h):
        hf = h[0, :cfg.n3]
        a = time.perf_counter()
        pmi = getattr(channel_sim, search)(
            channel_sim.ChannelRealization(h=h[:1, :cfg.n3]), cfg)
        b = time.perf_counter()
        ws = release.reconstruct_all(cfg, pmi)              # (N3, P, rank)
        rate = _rate(hf, ws)
        c = time.perf_counter()
        return pmi, ws, rate, b - a, c - b
    return run


def _t2_r18(cfg, h):
    hs = h[:, :cfg.n3]                                      # (N4, N3, Nr, P)
    a = time.perf_counter()
    pmi = channel_sim.search_r18(channel_sim.ChannelRealization(h=hs), cfg)
    b = time.perf_counter()
    ws = type2_r18.reconstruct_all(cfg, pmi)                # (N3, N4, P, rank)
    flat_ws = ws.transpose(1, 0, 2, 3).reshape(-1, *ws.shape[2:])
    rate = _rate(hs.reshape(-1, *hs.shape[2:]), flat_ws)
    c = time.perf_counter()
    return pmi, ws, rate, b - a, c - b


class LinkT2:
    op_size = 1
    tail_pct = 90
    min_cycles = 1      # 192 trials: >= 10 beyond p90

    def __init__(self, seed: int, workdir: Path):
        self.model = channel_sim.ChannelModel(seed=seed, **T2_MODEL)
        self.cases = [
            ("r15", type2_r15.T2R15Config(l=4, n_psk=8, rank=2,
                                          subband_count=4, geom=GEOM),
             _t2_r15),
            ("r16", type2_r16.R16Config(param_combination=4, r=1, n3=18,
                                        rank=2, geom=GEOM),
             _t2_enhanced("search_r16", type2_r16)),
            # N3 > 19 switches on the two-level i15 tap window
            ("r16-window", type2_r16.R16Config(param_combination=4, r=1,
                                               n3=24, rank=2, geom=GEOM),
             _t2_enhanced("search_r16", type2_r16)),
            # port selection, M=2 taps with a reported tap offset
            ("r17", type2_r17.R17Config(p_csirs=16, param_combination=6,
                                        n3=12, n_threshold=4, rank=2),
             _t2_enhanced("search_r17", type2_r17)),
            ("r18", type2_r18.R18Config(geom=GEOM, param_combination=2, r=1,
                                        n3=12, n4=T2_N4, rank=2), _t2_r18),
        ]

    def pool(self):
        return [lambda t=t: self.trial(t) for t in range(T2_POOL)]

    def first_calls(self):
        """Ops that call every config once."""
        return self.pool()[:1]

    def trial(self, t: int) -> OpResult:
        a = time.perf_counter()
        ch = channel_sim.draw_channel(self.model, GEOM, NR, trial=t, n4=T2_N4)
        res = OpResult(count=1, reports=0, other_s=time.perf_counter() - a)
        outputs = []
        for name, cfg, run in self.cases:
            pmi, ws, rate, write_s, read_s = run(cfg, ch.h)
            res.write_s += write_s
            res.read_s += read_s
            outputs.append((name, cfg, pmi, ws, rate))
        for name, cfg, pmi, ws, rate in outputs:
            check_layers(ws, cfg.rank, f"trial {t} {name}")
            res.rates.append(check_rate(rate, f"trial {t} {name}"))
            res.fields.append(pmi_fields(pmi))
            res.reports += 1
        return res


# ---------------------------------------------------------------------------
# link-t1: Type I exhaustive-search trials rotating over codebook sizes

# (N1, N2, rank): 32 to 1024 codewords per subband.  An odd number of
# shapes keeps the median trial inside one shape's cost level.
T1_SHAPES = ((2, 1, 1), (4, 1, 1), (2, 2, 2), (4, 2, 1), (4, 2, 2))
T1_SUBBANDS = 2
T1_MODEL = dict(n_paths=6, delay_spread=1e-6, subcarrier_spacing=180e3,
                n_subcarriers=4)


class LinkT1:
    op_size = 1
    tail_pct = 75
    min_cycles = 8      # 40 trials: >= 10 beyond p75

    def __init__(self, seed: int, workdir: Path):
        self.model = channel_sim.ChannelModel(seed=seed, **T1_MODEL)
        self.cases = []
        for n1, n2, rank in T1_SHAPES:
            geom = ArrayGeometry.from_antennas(n1, n2)
            cfg = type1.Type1Config(geom, mode=1, rank=rank,
                                    subband_count=T1_SUBBANDS)
            self.cases.append((f"{n1}x{n2}-rank{rank}", geom, cfg))

    def pool(self):
        return [lambda k=k: self.trial(k) for k in range(len(self.cases))]

    def first_calls(self):
        return self.pool()

    def trial(self, k: int) -> OpResult:
        name, geom, cfg = self.cases[k]
        a = time.perf_counter()
        h = channel_sim.draw_channel(self.model, geom, NR, trial=k).flat
        b = time.perf_counter()
        pmi = type1.search_type1(h, cfg, noise_power=NOISE_POWER)
        c = time.perf_counter()
        ws = np.stack([type1.build_precoder(cfg, pmi, sb)
                       for sb in range(cfg.subband_count)])
        rate = _rate(h, _per_subcarrier(ws, h.shape[0]))
        d = time.perf_counter()
        check_layers(ws, cfg.rank, f"trial {k} {name}")
        return OpResult(count=1, reports=1, write_s=c - b, read_s=d - c,
                        other_s=b - a, fields=[pmi_fields(pmi)],
                        rates=[check_rate(rate, f"trial {k} {name}")])


# ---------------------------------------------------------------------------
# conformance: gen-vectors then validate, in-process, for all 7 releases

CONF_RECORDS = 24    # records per release per op
_ARRAY = {"n1": 4, "n2": 2, "o1": 4, "o2": 4}
CONF_CONFIGS = {
    "r15-type1": {**_ARRAY, "mode": 1, "rank": 2, "subband_count": 4},
    "r15-type2": {**_ARRAY, "l": 4, "n_psk": 8, "subband_amplitude": True,
                  "rank": 2, "subband_count": 4},
    "r15-ps": {"p_csirs": 16, "l": 2, "n_psk": 4, "subband_amplitude": True,
               "rank": 1, "subband_count": 2, "d": 2},
    "r16": {**_ARRAY, "param_combination": 4, "r": 1, "n3": 18, "rank": 2},
    "r16-ps": {"p_csirs": 16, "param_combination": 2, "r": 1, "n3": 8,
               "rank": 1, "d": 1},
    "r17-ps": {"p_csirs": 16, "param_combination": 6, "n3": 12,
               "n_threshold": 4, "rank": 2},
    "r18": {**_ARRAY, "param_combination": 2, "r": 1, "n3": 12, "n4": 4,
            "rank": 2},
}
_PASSED = re.compile(r"^(\d+)/(\d+) records passed$", re.M)


class Conformance:
    op_size = CONF_RECORDS
    tail_pct = 90
    min_cycles = 15     # 105 ops: >= 10 beyond p90

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.configs = {}
        for release, cfg in CONF_CONFIGS.items():
            path = workdir / f"{release}.config.json"
            path.write_text(json.dumps(cfg))
            self.configs[release] = path

    def pool(self):
        return [lambda k=k, r=r: self.batch(k, r)
                for k, r in enumerate(CONF_CONFIGS)]

    def first_calls(self):
        return self.pool()

    def batch(self, k: int, release: str) -> OpResult:
        out = self.dir / f"{release}.jsonl"
        gen = ["gen-vectors", "--release", release,
               "--config", str(self.configs[release]),
               "--seed", str(self.seed * len(CONF_CONFIGS) + k),
               "--samples", str(CONF_RECORDS), "--out", str(out)]
        log = io.StringIO()
        with contextlib.redirect_stdout(log):
            a = time.perf_counter()
            rc_gen = cli.main(gen)
            b = time.perf_counter()
            rc_val = cli.main(["validate", str(out)])
            c = time.perf_counter()
        if rc_gen != 0:
            raise GateError(f"{release}: gen-vectors exit code {rc_gen}")
        passed = _PASSED.search(log.getvalue())
        n_ok = int(passed.group(1)) if passed else 0
        n_all = int(passed.group(2)) if passed else 0
        if rc_val != 0 or n_all != CONF_RECORDS or n_ok != n_all:
            raise GateError(f"{release}: validate exit code {rc_val}, "
                            f"{n_ok}/{n_all} records passed",
                            failed=CONF_RECORDS - n_ok)
        # the whole file, PMI fields and expected precoders alike, must stay
        # byte-identical
        sha256 = hashlib.sha256(out.read_bytes()).hexdigest()
        return OpResult(count=n_all, reports=n_all, write_s=b - a,
                        read_s=c - b, fields=[{release: sha256}])


WORKLOADS = {"link-t2": LinkT2, "link-t1": LinkT1, "conformance": Conformance}
