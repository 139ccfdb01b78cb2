"""The benchmark's tracer (perfbench/tracer.py) wraps package functions
by owner and attribute name, reading owner.__dict__[attr]; a function
renamed or moved away from its owner makes a traced run fail."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

from qcstar import acceptance, graphs, ktheory, ncalgebra, representations

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_function_is_where_the_tracer_looks(monkeypatch):
    # read the benchmark's file without writing its bytecode cache
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    qc = SimpleNamespace(acceptance=acceptance, graphs=graphs,
                         ktheory=ktheory, ncalgebra=ncalgebra,
                         representations=representations)
    targets = tracer._targets(qc)
    assert targets
    for owner, attr, name, _ in targets:
        assert attr in owner.__dict__, name
