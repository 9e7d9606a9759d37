"""The benchmark's traced run wraps diffnet names; each must still resolve."""

import importlib
import importlib.util
from pathlib import Path

import diffnet

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.SPANS


def test_every_span_target_resolves_on_the_package():
    for layer, targets in load_spans().items():
        for module, cls, attr in targets:
            owner = (importlib.import_module(f"diffnet.{module}") if module
                     else diffnet)
            if cls is not None:
                owner = getattr(owner, cls)
            assert callable(getattr(owner, attr, None)), (layer, module, cls,
                                                          attr)
