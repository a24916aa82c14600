"""Per-layer spans for the traced run.

``Tracer.install`` wraps each public function named in ``TRACED`` and puts
the wrapper into every ``nrpmi`` module namespace that holds the original
object, so calls made inside the library (``orthogonal_group`` from a
search, ``reconstruct`` from a fit) are seen too.  ``uninstall`` restores
the originals; the untraced run never installs anything.

A span's self time is its duration minus the time its child spans cover.
Spans are aggregated as they close rather than kept one by one.
"""

import functools
import sys
import time
from dataclasses import dataclass

TRACED = (
    "bases.orthogonal_group",
    "bases.dft_beam",
    "combinadics.encode_combination",
    "combinadics.decode_combination",
    "channel_sim.draw_channel",
    "channel_sim.search_r16",
    "channel_sim.search_r17",
    "channel_sim.search_r18",
    "type2_r15.search_t2_r15",
    "type1.search_type1",
    "type1.build_precoder",
    "type2_r15.reconstruct",
    "type2_r16.reconstruct_all",
    "type2_r17.reconstruct_all",
    "type2_r18.reconstruct_all",
    "type2_r16.validate_budget",
    "type2_r17.validate_budget",
    "type2_r18.validate_budget",
    "type2_r15.random_valid_pmi",
    "type2_r16.random_valid_pmi",
    "type2_r17.random_valid_pmi",
    "type2_r18.random_valid_pmi",
    "beamforming.user_rates",
    "cli.cmd_gen_vectors",
    "cli.cmd_validate",
    "cli.sample_pmi",
    "cli.expected_precoders",
    "cli.fields_to_pmi",
    "cli.build_release_config",
)

# <outer>.<counter>: spans of ``inner`` opened under the nearest enclosing
# ``outer`` span, per ``outer`` call
_SEARCHES = ("channel_sim.search_r16", "channel_sim.search_r17",
             "channel_sim.search_r18", "type2_r15.search_t2_r15")
_FITS = ("type2_r15.reconstruct", "type2_r16.reconstruct_all",
         "type2_r17.reconstruct_all", "type2_r18.reconstruct_all")
NESTED = (
    ("fit_evals", _SEARCHES, _FITS),
    ("candidates", ("type1.search_type1",), ("type1.build_precoder",)),
)
NESTED_UNITS = {"fit_evals": "evals/search", "candidates": "calls/search"}

# the ROADMAP's baseline operations, reported as inclusive time per call
BASELINE = (
    "bases.orthogonal_group",
    "type2_r16.reconstruct_all",
    "type2_r18.reconstruct_all",
    "channel_sim.draw_channel",
    "channel_sim.search_r16",
    "channel_sim.search_r18",
    "type1.search_type1",
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0    # inclusive
    self_s: float = 0.0     # minus child spans


class Tracer:
    def __init__(self):
        self.stats = {name: SpanStats() for name in TRACED}
        self.nested = {(key, outer): 0 for key, outers, _ in NESTED
                       for outer in outers}
        self._stack = []        # open spans: [name, seconds of child spans]
        self._patched = []      # (namespace, attribute, original)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "nrpmi" or n.startswith("nrpmi.")]
        for name in TRACED:
            module, attr = name.rsplit(".", 1)
            original = getattr(sys.modules[f"nrpmi.{module}"], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        counters = [(key, outers) for key, outers, inners in NESTED
                    if name in inners]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for key, outers in counters:
                for span in reversed(stack):
                    if span[0] in outers:
                        self.nested[key, span[0]] += 1
                        break
            span = [name, 0.0]
            stack.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - span[1]
                if stack:
                    stack[-1][1] += elapsed
        return traced

    def metrics(self, ops: int, time_factor: float = 1.0) -> dict:
        """Per-layer metrics, per op; every name appears on every workload.
        Times are multiplied by ``time_factor``."""
        ms = 1e3 * time_factor
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = (st.calls / ops, "calls/op")
            out[f"{name}.self_ms"] = (ms * st.self_s / ops, "ms/op")
        for key, outer in self.nested:
            calls = self.stats[outer].calls
            out[f"{outer}.{key}"] = (self.nested[key, outer] / calls
                                     if calls else 0.0, NESTED_UNITS[key])
        for name in BASELINE:
            st = self.stats[name]
            out[f"{name}.ms_per_call"] = (ms * st.total_s / st.calls
                                          if st.calls else 0.0, "ms/call")
        return out
