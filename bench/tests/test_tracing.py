"""The outside-in wrappers return exactly what the wrapped functions return,
bind at every module, and are removed cleanly."""

import numpy as np
import pytest

import dunkl
import layers
from dunkl import core, quadrature, sonine, suites, transform
from tracing import END, START, Target, Tracer, value_digest


@pytest.fixture
def tracer():
    t = Tracer(layers.BUILDERS)
    t.install(layers.BUILDER_TARGETS + layers.LAYER_TARGETS)
    yield t
    t.uninstall()


def test_wrapper_returns_the_same_object_and_raises_the_same_error():
    sentinel = object()
    t = Tracer()
    wrapped = t.wrap(Target("x:f", "f", work=lambda *a: 3), lambda *a: sentinel)
    assert wrapped(1, 2) is sentinel

    def boom():
        raise KeyError("k")

    with pytest.raises(KeyError):
        t.wrap(Target("x:g", "g"), boom)()
    assert [s[0] for s in t.spans] == ["f", "g"]
    assert t.totals()["f"]["work"] == 3


def test_every_binding_is_wrapped_and_restored():
    original = quadrature.jacobi_rule
    t = Tracer()
    t.install(layers.LAYER_TARGETS)
    try:
        for module in (quadrature, core, sonine, transform, dunkl.fractional, dunkl):
            assert module.jacobi_rule is not original
            assert module.jacobi_rule.__wrapped__ is original
        assert suites.SUITES["duality"].__wrapped__ is suites.suite_duality
    finally:
        t.uninstall()
    for module in (quadrature, core, sonine, transform, dunkl.fractional, dunkl):
        assert module.jacobi_rule is original
    assert suites.SUITES["duality"] is suites.suite_duality
    assert "__call__" in transform.SpectralFunction.__dict__
    assert not hasattr(transform.SpectralFunction.__call__, "__wrapped__")


def _results():
    plan = transform.build_plan(0.5, half_width=8.0, n_x=64, lambda_max=8.0, n_lambda=64, self_test=False)
    spectrum = np.exp(-plan.lambda_nodes**2 / 4.0)
    fn = transform.SpectralFunction.from_spectrum(plan, spectrum)
    x = np.linspace(-2.0, 2.0, 7)
    pair = sonine.SoninePair.of(0.0, 1.0)
    g = dunkl.gaussian(1.3)
    return [
        core.dunkl_kernel(0.5, 2.0 + 1j),
        core.dunkl_kernel(1.5, 3j, "bochner"),
        dunkl.KernelFunction(0.5, 1j)(x),
        quadrature.jacobi_rule(0.2, -0.5, 16).nodes,
        transform.forward(plan, plan.sample(lambda v: np.exp(-v * v))).values,
        transform.forward_at(plan, np.exp(-plan.x_nodes**2), x),
        fn(x), fn.even_part(x), fn.odd_quotient(x),
        sonine.sonine_apply(pair, g, 0.7),
        sonine.dual_sonine_grid(pair, g, x),
        sonine.sonine_grid(pair, g, x),
        core.translation(0.5, g, 0.4, -0.9),
    ]


def test_wrapped_calls_return_identical_values(tracer):
    traced = _results()
    tracer.uninstall()
    plain = _results()
    for got, want in zip(traced, plain):
        assert np.array_equal(np.asarray(got), np.asarray(want))
    names = {s[0] for s in tracer.spans}
    assert {"transform.synthesis", "quadrature.jacobi_rule", "sonine.sonine_grid", "transform.build_plan"} <= names
    totals = tracer.totals()
    assert totals["transform.synthesis"]["work"] == 3 * 7 * 64


def test_only_outermost_builder_calls_count(tracer):
    plan = dunkl.witness_plan(0.0)
    inner = [s for s in tracer.spans if s[0] == "transform.build_plan"]
    outer = [s for s in tracer.spans if s[0] == "lizorkin.witness_plan"]
    assert len(inner) == len(outer) == 1
    assert tracer.builder_seconds() == pytest.approx((outer[0][END] - outer[0][START]) * 1e-9)
    assert plan.x_nodes.size == 384


def test_value_digest_matches_equal_values_only():
    a = dunkl.gaussian(1.0)
    assert value_digest(a, np.arange(3.0)) == value_digest(dunkl.gaussian(1.0), np.arange(3.0))
    assert value_digest(a) != value_digest(dunkl.gaussian(2.0))
    assert value_digest(np.arange(3.0)) != value_digest(np.arange(3))
