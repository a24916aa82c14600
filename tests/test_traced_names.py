"""The traced benchmark run looks up every span of
``perfbench/tracing.py``'s ``TRACED`` by name in ``nrpmi``; a renamed or
removed function must fail here, not only in the benchmark's self-test."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


@pytest.mark.parametrize("name", traced_names())
def test_every_traced_name_resolves_in_nrpmi(name):
    module, attr = name.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(f"nrpmi.{module}"), attr))
