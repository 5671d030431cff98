"""The benchmark's tracer (skillbench/tracing.py) rebinds skillops names
given as strings.  Each must still resolve: a renamed or deleted one would
otherwise fail only the traced benchmark run, which takes about a minute."""

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "skillbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "skillbench_tracing", BENCH_DIR / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _load_tracing()
TARGETS = TRACING.SPAN_TARGETS + TRACING.LEAF_TARGETS


@pytest.mark.parametrize(
    "module_name,attr", [(m, a) for m, a, _ in TARGETS], ids=[f"{m}.{a}" for m, a, _ in TARGETS]
)
def test_every_traced_name_resolves(monkeypatch, module_name, attr):
    monkeypatch.syspath_prepend(str(BENCH_DIR))  # widegen sits beside tracing.py
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr))
