"""Benchmark runner: one workload in one process, one client, closed loop.

    python3 perfbench/run.py --workload link-t2 --seed 1 --seconds 20 --trace 0

Lines starting with ``#`` describe the run (environment stamp, each metric
by name and unit, the tail percentile, failures).  The last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``--workload all`` runs every workload in turn, each in its
own process, and prints a summary table.  The exit code is 0 only when
every output passed the correctness gate.
"""

import os
import sys
import time

# one client, one BLAS thread; must be set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402  (loads numpy before set-up starts)

# Set-up starts here, with the library's import; numpy's import is not
# nrpmi's and cannot be blocked by the kernel, which needs numpy.
hostspeed.kernel_seconds()      # warm-up: a fresh process's first is slow
_START_KERNEL = hostspeed.kernel_seconds()
_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0       # inputs of the set-up calls, checked on every run
REFERENCE_SEEDS = 64     # input seeds with a stored reference; --seed is
                         # taken modulo this, so every run is checked
SETUP_RUNS = 7           # set-up samples per run: this process and 6 fresh ones
RATE_RTOL = 1e-9
WORKLOAD_NAMES = ("link-t2", "link-t1", "conformance")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "report_writes_per_s": "reports/s",
    "report_reads_per_s": "reports/s",
    "peak_rss_mb": "MiB",
}
TRACE_THROUGHPUT = ("ops_per_s", "report_writes_per_s", "report_reads_per_s")

# the names the workload's users know each end-to-end metric by
ALIASES = {
    "link-t2": {"ops_per_s": "trials_per_s", "op_p50_ms": "trial_p50_ms",
                "op_tail_ms": "trial_tail_ms"},
    "conformance": {"ops_per_s": "records_per_s",
                    "op_p50_ms": "record_p50_ms",
                    "op_tail_ms": "record_tail_ms",
                    "report_writes_per_s": "gen_records_per_s",
                    "report_reads_per_s": "validate_records_per_s"},
}
ALIASES["link-t1"] = ALIASES["link-t2"]


def import_library():
    """Import the library from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import nrpmi
    origin = Path(nrpmi.__file__).resolve().parent
    if origin != SRC / "nrpmi":
        raise SystemExit(f"nrpmi imported from {origin}, not {SRC}")
    import workloads
    return workloads


def digest(results) -> str:
    fields = [r.fields for r in results]
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def rates_match(got, want) -> bool:
    return len(got) == len(want) and all(
        abs(g - w) <= RATE_RTOL * abs(w) for g, w in zip(got, want))


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def set_up(workloads, name: str, seed: int, workdir: Path):
    """Build the seed's workload and make the first call of every config on
    the reference inputs.  Returns (workload, set-up seconds, errors).

    Set-up is the library's import, the workloads' construction and the
    first calls.  Each of these intervals is blocked by the kernel and
    host-adjusted like an op of the loop.
    """
    imported = time.perf_counter()
    kernel = hostspeed.kernel_seconds()
    seconds = (imported - _START) * hostspeed.scale(_START_KERNEL, kernel)
    errors, results = [], []
    a = time.perf_counter()
    reference = load_reference()["setup"][name]
    ref = workloads.WORKLOADS[name](REFERENCE_SEED, workdir)
    workload = workloads.WORKLOADS[name](seed, workdir)
    try:
        for op in ref.first_calls():
            results.append(op())
            b = time.perf_counter()
            after = hostspeed.kernel_seconds()
            seconds += (b - a) * hostspeed.scale(kernel, after)
            kernel = after
            a = time.perf_counter()
    except Exception as exc:  # the gate reports it; set-up goes on
        errors.append(f"set-up call failed: {type(exc).__name__}: {exc}")
    else:
        if digest(results) != reference["sha256"]:
            errors.append("set-up reports differ from the stored reference")
        if not rates_match([x for r in results for x in r.rates],
                           reference["rates"]):
            errors.append("set-up rates differ from the stored reference")
    return workload, seconds, errors


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of one fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe failed ({proc.returncode}):\n"
                         + proc.stderr + proc.stdout)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_loop(workload, seconds: float, gate_error, min_cycles: int):
    """Cycle through the seed's op pool until ``seconds`` have passed and
    ``min_cycles`` cycles are done.  Each op is blocked by two
    samples of the host-speed kernel, which set its ``scale``."""
    pool = workload.pool()
    results, errors, digests = [], [], set()
    attempted = failed = cycles = 0
    first = None    # (digest, rate sum) of the first cycle
    start = time.perf_counter()
    while cycles < min_cycles or time.perf_counter() - start < seconds:
        cycle = []
        kernel = hostspeed.kernel_seconds()
        for op in pool:
            attempted += workload.op_size
            res = None
            try:
                res = op()
            except gate_error as exc:
                failed += (workload.op_size if exc.failed is None
                           else max(exc.failed, 1))
                errors.append(str(exc))
            except Exception as exc:  # count the op as failed and go on
                failed += workload.op_size
                errors.append(f"{type(exc).__name__}: {exc}")
            after = hostspeed.kernel_seconds()
            if res is not None:
                res.scale = hostspeed.scale(kernel, after)
                cycle.append(res)
            kernel = after
        cycle_digest = digest(cycle)
        digests.add(cycle_digest)
        if first is None:
            first = (cycle_digest, sum(x for r in cycle for x in r.rates))
        for res in cycle:   # keep memory flat however many cycles run
            res.fields.clear()
            res.rates.clear()
        results.extend(cycle)
        cycles += 1
    if len(digests) > 1:
        errors.append("reports differ between cycles over the same inputs")
    return dict(results=results, errors=errors, attempted=attempted,
                failed=failed, cycles=cycles, first=first,
                wall_s=time.perf_counter() - start)


def throughput(results, adjusted: bool = True) -> dict:
    """Ops and reports per second of (host-adjusted) library time."""
    def total(phase):
        return sum(getattr(r, phase) * (r.scale if adjusted else 1.0)
                   for r in results)
    count = sum(r.count for r in results)
    reports = sum(r.reports for r in results)
    return {
        "ops_per_s": count / total("seconds"),
        "report_writes_per_s": reports / total("write_s"),
        "report_reads_per_s": reports / total("read_s"),
    }


def percentile(sorted_values, pct: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    pos = (len(sorted_values) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, inputs: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "seed": seed,
        "input_seed": inputs,
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            setup_runs: int = SETUP_RUNS,
            min_cycles: int | None = None) -> tuple[dict, list]:
    """Run one workload; returns (result object, description lines).
    ``min_cycles`` overrides the workload's minimum (the self-test's tiny
    runs)."""
    workloads = import_library()
    notes = []
    inputs = seed % REFERENCE_SEEDS
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workload, setup_s, errors = set_up(workloads, name, inputs, Path(tmp))
        setup_samples = [setup_s] + [probe_setup(name, inputs)
                                     for _ in range(setup_runs - 1)]
        tracer = None
        if trace:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        try:
            loop = run_loop(workload, seconds, workloads.GateError,
                            min_cycles or workload.min_cycles)
        finally:
            if tracer:
                tracer.uninstall()
    errors += loop["errors"]
    results = loop["results"]

    table = load_reference()["seeds"][name].get(str(inputs))
    if table is None:
        errors.append(f"input seed {inputs} has no stored reference")
    elif (loop["first"][0] != table["sha256"]
          or not rates_match([loop["first"][1]], [table["rate_sum"]])):
        errors.append(f"input seed {inputs}: reports differ from the "
                      f"stored reference")

    metrics = {}
    if results:
        rates = throughput(results)
        raw = throughput(results, adjusted=False)
        notes.append("unadjusted: " + ", ".join(
            f"{key} = {value:.6g}" for key, value in raw.items()))
        # span times get the run's mean host-speed factor
        factor = raw["ops_per_s"] / rates["ops_per_s"]
        if trace:
            for key, (value, unit) in tracer.metrics(
                    sum(r.count for r in results), factor).items():
                metrics[key] = {"value": value, "unit": unit}
            for key in TRACE_THROUGHPUT:
                metrics[f"trace.{key}"] = {"value": rates[key],
                                           "unit": END_TO_END_UNITS[key]}
        else:
            lat = sorted(r.seconds * r.scale / r.count for r in results)
            tail = percentile(lat, workload.tail_pct)
            beyond = sum(x > tail for x in lat)
            values = {
                "setup_s": statistics.median(setup_samples),
                **rates,
                "op_p50_ms": 1e3 * percentile(lat, 50),
                "op_tail_ms": 1e3 * tail,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            for key, unit in END_TO_END_UNITS.items():
                metrics[key] = {"value": values[key], "unit": unit}
            notes.append(f"op_tail_ms is p{workload.tail_pct}: {beyond} of "
                         f"{len(lat)} op latencies lie beyond it")
            notes.append("setup_s is the median of these samples: " + " ".join(
                f"{x:.4f}" for x in setup_samples))

    lines = [f"environment {json.dumps(environment(seed, inputs))}",
             f"{name}: {loop['attempted']} attempted, {loop['failed']} failed "
             f"(failed_ratio {loop['failed'] / loop['attempted']:.6g}), "
             f"{loop['cycles']} cycles of {len(workload.pool())} ops "
             f"in {loop['wall_s']:.2f} s"]
    for key, m in metrics.items():
        alias = ALIASES[name].get(key)
        named = f" ({alias})" if alias else ""
        lines.append(f"{key}{named} = {m['value']:.6g} {m['unit']}")
    lines += notes
    lines += [f"FAIL {e}" for e in errors[:20]]
    result = {"correct": not errors and loop["failed"] == 0 and bool(results),
              "attempted": loop["attempted"], "failed": loop["failed"],
              "metrics": metrics}
    return result, lines


def run_all(args) -> int:
    """Every workload in its own process; a summary table at the end."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode or (1 if not proc.stdout else 0)
        if proc.stdout.strip():
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for key, m in result["metrics"].items():
                rows.append((name, ALIASES[name].get(key, key), m["value"],
                             m["unit"]))
            rows.append((name, "failed_ratio",
                         result["failed"] / result["attempted"],
                         "failed/attempted"))
    print("\nworkload      metric                          value  unit")
    for name, key, value, unit in rows:
        print(f"{name:<13} {key:<30} {value:>8.4g}  {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        workloads = import_library()
        # the gate's verdict on set-up is the measuring process's to report
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            _, setup_s, _ = set_up(workloads, args.workload, args.seed,
                                   Path(tmp))
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result, lines = measure(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    for line in lines:
        print(f"# {line}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
