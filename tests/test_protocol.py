"""The smooth-function base class: every function class derives from it,
``parts`` is its even part and odd quotient read at once, and a bare
callable gives the values of the matching function object at every public
entry point that takes a smooth function."""

import math

import numpy as np
import pytest

from dunkl import core, sonine
from dunkl.functions import (
    KernelFunction,
    PolyFunction,
    PolyGaussian,
    SmoothFunction,
    WrappedFunction,
    as_smooth,
    gaussian,
    monomial_gaussian,
)
from dunkl.fractional import _ForwardImage
from dunkl.sonine import SonineImage, SoninePair
from dunkl.transform import SpectralFunction

PAIR = SoninePair.of(0.0, 1.0)
POINTS = np.array([-1.3, 0.4, 0.9, 2.1])

ROUTES = {
    "sonine_apply": lambda f: [sonine.sonine_apply(PAIR, f, x) for x in POINTS],
    "sonine_grid": lambda f: sonine.sonine_grid(PAIR, f, POINTS),
    "dual_sonine_apply": lambda f: [sonine.dual_sonine_apply(PAIR, f, x) for x in POINTS],
    "dual_sonine_grid": lambda f: sonine.dual_sonine_grid(PAIR, f, POINTS),
    "intertwiner_v": lambda f: [core.intertwiner_v(0.5, f, x) for x in POINTS],
    "dual_intertwiner_v": lambda f: [core.dual_intertwiner_v(0.5, f, x) for x in POINTS],
    "dual_intertwiner_v_grid": lambda f: core.dual_intertwiner_v_grid(0.5, f, POINTS),
    "translation": lambda f: [core.translation(0.5, f, x, 0.7) for x in POINTS],
    "convolution": lambda f: [core.convolution(0.5, f, gaussian(), x) for x in POINTS[:2]],
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_plain_callable_matches_gaussian(route):
    got = np.asarray(ROUTES[route](lambda x: np.exp(-x**2)))
    want = np.asarray(ROUTES[route](gaussian()))
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_every_function_class_implements_the_protocol():
    """Typing is nominal: every function class derives from SmoothFunction,
    and an object with the five methods that does not is wrapped."""
    objects = [
        PolyFunction(np.array([1.0, 2.0])),
        monomial_gaussian(1),
        KernelFunction(0.5, 1j),
        WrappedFunction(np.sin, df=np.cos),
        SpectralFunction(0.5, np.array([-1.0, 0.5, 2.0]), np.array([0.2, 1.0, 0.4])),
        SonineImage(PAIR, gaussian()),
    ]
    for f in objects:
        assert isinstance(f, SmoothFunction), type(f).__name__
        assert as_smooth(f) is f
    assert issubclass(_ForwardImage, SmoothFunction)
    assert isinstance(as_smooth(np.sin), WrappedFunction)
    assert not isinstance(np.sin, SmoothFunction)

    class Duck:
        def __call__(self, x):
            return np.exp(-np.asarray(x) ** 2)

        even_part = __call__

        def odd_quotient(self, x):
            return np.zeros(np.shape(x))

        def derivative(self, x):
            return -2.0 * np.asarray(x) * self(x)

        def taylor_coeff(self, k):
            return 0.0 if k % 2 else (-1.0) ** (k // 2) / math.factorial(k // 2)

    duck = Duck()
    assert not isinstance(duck, SmoothFunction)
    wrapped = as_smooth(duck)
    assert type(wrapped) is WrappedFunction
    assert np.array_equal(wrapped(POINTS), duck(POINTS))


# 8.5 lies beyond the transform image's band, where its parts are zeros
PARTS_POINTS = [np.float64(0.0), 0.9, np.array([0.0, -1.3, 0.4, 2.1]), np.array([[0.0, 0.7, -2.4], [-0.7, 1.9, 8.5]])]


def _parts_objects(plan):
    """One object of every function class: a spectrum on the plan's nodes
    both plan-free (direct sums) and reading the plan's proxy, and a transform
    image reading the analysis proxy within its band and zero beyond."""
    spectrum = np.exp(-plan.lambda_nodes**2 / 4.0) * (1.0 + 0.3j * plan.lambda_nodes)
    return {
        "poly": PolyFunction(np.array([1.0, 2.0, -0.5, 0.25])),
        "poly-gaussian": PolyGaussian(PolyFunction(np.array([0.7, -0.4, 1.1])), 0.6),
        "kernel-real": KernelFunction(0.5, 1.3),
        "kernel-imaginary": KernelFunction(0.5, 1.5j),
        "wrapped": WrappedFunction(np.sin, df=np.cos),
        "sonine-image": SonineImage(PAIR, gaussian()),
        "spectral-plan-free": SpectralFunction(plan.order, plan.lambda_nodes, plan.lambda_weights * spectrum),
        "spectral-proxy": SpectralFunction.from_spectrum(plan, spectrum),
        "forward-image": _ForwardImage(plan, gaussian()),
    }


@pytest.mark.parametrize(
    "name",
    ["poly", "poly-gaussian", "kernel-real", "kernel-imaginary", "wrapped", "sonine-image",
     "spectral-plan-free", "spectral-proxy", "forward-image"],
)
def test_parts_is_both_methods_at_once(name, witness_plan_factory):
    """``parts(x)`` equals (even_part(x), odd_quotient(x)) bit for bit, each
    part C-contiguous and in the shape of x, at 0-d, 1-d and 2-d points."""
    plan = witness_plan_factory(0.5)
    f = _parts_objects(plan)[name]
    for x in PARTS_POINTS:
        got = f.parts(x)
        assert isinstance(got, tuple) and len(got) == 2
        for part, want in zip(got, (f.even_part(x), f.odd_quotient(x))):
            part, want = np.asarray(part), np.asarray(want)
            assert part.dtype == want.dtype and np.array_equal(part, want), (name, x)
            assert part.shape == np.shape(x) and part.flags.c_contiguous, (name, x)
