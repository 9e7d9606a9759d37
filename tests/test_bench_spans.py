"""The benchmark's traced run wraps diffnet names; each must still resolve,
and a taped or gradient-free run must still call every one the benchmark
requires."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import diffnet
from diffnet.presets import merge_scenario
from diffnet.scenario import register_parameters
from test_parity import two_destination_scenario

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def load_spans():
    return load_tracer().SPANS


def test_every_span_target_resolves_on_the_package():
    for layer, targets in load_spans().items():
        for module, cls, attr in targets:
            owner = (importlib.import_module(f"diffnet.{module}") if module
                     else diffnet)
            if cls is not None:
                owner = getattr(owner, cls)
            assert callable(getattr(owner, attr, None)), (layer, module, cls,
                                                          attr)


def missing_spans(scenario, tokens, grad):
    """Required op spans that do not fire on one run of `scenario` with
    `tokens` registered, traced as the benchmark's traced units trace an op."""
    tracer = load_tracer()
    scn = scenario()
    ps = register_parameters(scn, tokens)
    layers = tracer.LayerTrace(diffnet, tracer.Tracer())
    layers.tracer.op_id = 0
    layers.install()
    root = layers.tracer.open("bench.op")
    try:
        res = diffnet.Simulator(scn, params=ps, grad=grad).run()
        diffnet.objective_ttt(res)
    finally:
        layers.tracer.close(root)
        layers.uninstall()
        layers.tracer.op_id = -1
    assert not hasattr(diffnet.Simulator.run, "__wrapped__")
    assert not hasattr(diffnet.engine.composition, "__wrapped__")
    return layers.missing(tracer.REQUIRED_OP, {0})


RUNS = [(merge_scenario, "q1,u3"), (two_destination_scenario, "q1,ua")]


@pytest.mark.parametrize("scenario, tokens", RUNS)
def test_every_required_span_fires_on_a_taped_run(scenario, tokens):
    assert missing_spans(scenario, tokens, grad=True) == []


@pytest.mark.parametrize("scenario, tokens", RUNS)
def test_every_required_span_fires_on_a_gradient_free_run(scenario, tokens):
    # the benchmark's gradient-free workload runs on the float op table
    assert missing_spans(scenario, tokens, grad=False) == []
