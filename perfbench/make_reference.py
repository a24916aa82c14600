"""Record the reports the correctness gate compares against.

    python3 perfbench/make_reference.py

writes ``perfbench/reference.json``: for each workload, the digest and
rates of the set-up calls on the reference inputs, and the digest and rate
sum of one op-pool cycle for each input seed below ``run.REFERENCE_SEEDS``.
Run it only when the library's outputs are meant to change; the ROADMAP
keeps them bit-exact.
"""

import json
import tempfile
from pathlib import Path

import run


def main() -> int:
    workloads = run.import_library()
    out = {"setup": {}, "seeds": {}}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        for name in run.WORKLOAD_NAMES:
            make = workloads.WORKLOADS[name]
            results = [op() for op in
                       make(run.REFERENCE_SEED, Path(tmp)).first_calls()]
            out["setup"][name] = {
                "sha256": run.digest(results),
                "rates": [x for r in results for x in r.rates]}
            table = out["seeds"][name] = {}
            for seed in range(run.REFERENCE_SEEDS):
                results = [op() for op in make(seed, Path(tmp)).pool()]
                table[str(seed)] = {
                    "sha256": run.digest(results),
                    "rate_sum": sum(x for r in results for x in r.rates)}
            print(f"{name}: {run.REFERENCE_SEEDS} seeds recorded", flush=True)
    with open(run.REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
