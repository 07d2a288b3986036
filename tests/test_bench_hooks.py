"""The benchmark's traced runs (``bench/layertrace.py``) wrap library
functions by module and name and swap the sampling stage's ``random``
module; a rename in the library would fail only those runs."""

import importlib
import importlib.util
import random
from pathlib import Path

from kcut.dp import exact_values
from kcut.graph import MultiGraph

LAYERTRACE = Path(__file__).resolve().parent.parent / "bench" / "layertrace.py"


def traced_targets():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


def test_every_traced_target_exists():
    targets = traced_targets()
    assert targets
    for _, module, name in targets:
        assert callable(getattr(importlib.import_module(f"kcut.{module}"), name, None)), f"kcut.{module}.{name}"


def test_sampling_draws_through_the_random_module():
    import kcut.sparsify

    assert kcut.sparsify.random is random


def test_exact_values_fills_stats_out_by_keyword():
    stats = {}
    exact_values(MultiGraph.multi(3, [(0, 1), (1, 2)]), 2, 3, stats_out=stats)
    assert stats["trees"] >= 1 and stats["states"] >= 1
