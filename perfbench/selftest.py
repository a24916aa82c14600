"""Self-test of the benchmark, at a tiny size.

    python3 perfbench/selftest.py

1. Runs every workload for one pool cycle, untraced and traced, and checks
   that every metric ``BENCHMARK.json`` names appears with its unit and
   that the gate passed.
2. Runs each traced workload a second time and checks that the call counts
   repeat exactly.
3. Flips one bit of one PMI field and checks that the gate catches it:
   ``i12 ^= 1`` on the R16 conformance records with every beam active
   (through ``cli.fields_to_pmi``, so ``validate`` sees it), and on every
   R16 search result of ``link-t2`` (caught by the reference digest).  The
   conformance case goes through ``run.main`` to show the exit code.
4. Turns the phase of every precoder ``gen-vectors`` writes for ``r16-ps``
   by 1e-12 rad and checks that the gate catches it.  ``validate`` passes
   such records, since it reconstructs with the same code; the digest of
   the written file does not.

Exits 0 when every check holds.
"""

import contextlib
import dataclasses
import io
import json
import sys

import numpy as np

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"self-test FAILED: {what}")
    print(f"ok  {what}")


def tiny(name: str, trace: bool, seed: int = 0) -> dict:
    result, lines = run.measure(name, seed, seconds=0, trace=trace,
                                setup_runs=1, min_cycles=1)
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{name} trace={int(trace)}: result has exactly the four keys")
    if not result["correct"]:
        print("\n".join(lines))
    expect(result["correct"] and result["failed"] == 0,
           f"{name} trace={int(trace)}: gate passed")
    return result


def check_metrics(result: dict, wanted: list, label: str) -> None:
    metrics = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    wrong = [m["name"] for m in wanted if m["name"] in metrics
             and metrics[m["name"]]["unit"] != m["unit"]]
    expect(not missing and not wrong,
           f"{label}: {len(wanted)} metrics present with their units"
           + (f" (missing {missing}, wrong unit {wrong})"
              if missing or wrong else ""))
    expect(set(metrics) == {m["name"] for m in wanted},
           f"{label}: no metric beyond BENCHMARK.json")


def flip_r16_i12_in_validate(workloads) -> None:
    original = workloads.cli.fields_to_pmi

    def flipped(release, fields):
        if release == "r16":
            bitmap = np.asarray(fields["bitmap"])[0]
            l = bitmap.shape[0] // 2
            if all(bitmap[j].any() or bitmap[j + l].any() for j in range(l)):
                fields = dict(fields, i12=fields["i12"] ^ 1)
        return original(release, fields)

    workloads.cli.fields_to_pmi = flipped


def flip_r16_i12_in_search(workloads) -> None:
    original = workloads.channel_sim.search_r16

    def flipped(channel, config):
        pmi = original(channel, config)
        return dataclasses.replace(pmi, i12=pmi.i12 ^ 1)

    workloads.channel_sim.search_r16 = flipped


def turn_r16_ps_precoders(workloads) -> None:
    original = workloads.cli.expected_precoders

    def turned(release, config, pmi):
        ws = original(release, config, pmi)
        return ws * np.exp(1e-12j) if release == "r16-ps" else ws

    workloads.cli.expected_precoders = turned


def main() -> int:
    spec = json.loads(BENCHMARK.read_text())
    workloads = run.import_library()

    for name in run.WORKLOAD_NAMES:
        check_metrics(tiny(name, trace=False), spec["end_to_end"],
                      f"{name} untraced")
        first = tiny(name, trace=True)
        check_metrics(first, spec["per_layer"], f"{name} traced")
        second = tiny(name, trace=True)
        counts = {k: v["value"] for k, v in first["metrics"].items()
                  if not k.endswith("_ms") and not k.endswith("_per_call")
                  and not k.startswith("trace.")}
        expect(counts == {k: second["metrics"][k]["value"] for k in counts},
               f"{name}: {len(counts)} traced counts repeat exactly")

    original = workloads.cli.fields_to_pmi
    flip_r16_i12_in_validate(workloads)
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "conformance", "--seed", "0",
                             "--seconds", "0", "--trace", "0"])
        result = json.loads(out.getvalue().strip().splitlines()[-1])
    finally:
        workloads.cli.fields_to_pmi = original
    expect(code != 0 and not result["correct"] and result["failed"] > 0,
           f"conformance: flipped i12 caught, exit code {code}, "
           f"{result['failed']}/{result['attempted']} records failed")

    original = workloads.channel_sim.search_r16
    flip_r16_i12_in_search(workloads)
    try:
        result, lines = run.measure("link-t2", 0, seconds=0, trace=False,
                                    setup_runs=1, min_cycles=1)
    finally:
        workloads.channel_sim.search_r16 = original
    expect(not result["correct"]
           and any("differ from the stored reference" in line
                   for line in lines),
           "link-t2: flipped i12 in the R16 search caught by the digest")

    original = workloads.cli.expected_precoders
    turn_r16_ps_precoders(workloads)
    try:
        result, lines = run.measure("conformance", 0, seconds=0, trace=False,
                                    setup_runs=1, min_cycles=1)
    finally:
        workloads.cli.expected_precoders = original
    expect(not result["correct"]
           and any("differ from the stored reference" in line
                   for line in lines),
           "conformance: r16-ps precoders turned by 1e-12 rad caught by the "
           "digest")
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
