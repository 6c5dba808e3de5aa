"""The smooth-function protocol: every function class implements it, and a
bare callable gives the values of the matching function object at every
public entry point that takes a smooth function."""

import numpy as np
import pytest

from dunkl import core, sonine
from dunkl.functions import (
    KernelFunction,
    PolyFunction,
    SmoothFunction,
    WrappedFunction,
    as_smooth,
    gaussian,
    monomial_gaussian,
)
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
    assert isinstance(as_smooth(np.sin), WrappedFunction)
    assert not isinstance(np.sin, SmoothFunction)
