import collections

import pytest

from dunkl.functions import SmoothFunction
from dunkl.lizorkin import make_witness, witness_plan
from dunkl.transform import build_plan


@pytest.fixture(scope="session")
def plan_factory():
    cache = {}

    def get(alpha, **kw):
        key = (round(float(alpha), 12), tuple(sorted(kw.items())))
        if key not in cache:
            cache[key] = build_plan(alpha, **kw)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def witness_plan_factory():
    cache = {}

    def get(alpha):
        key = round(float(alpha), 12)
        if key not in cache:
            cache[key] = witness_plan(alpha)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def witness_factory(witness_plan_factory):
    cache = {}

    def get(alpha, m=0):
        key = (round(float(alpha), 12), m)
        if key not in cache:
            cache[key] = make_witness(alpha, witness_plan_factory(alpha), m=m)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def verify_all_run(tmp_path_factory):
    """One default ``dunkl verify --suites all`` run: (exit code, report path)."""
    from dunkl.cli import main

    out = tmp_path_factory.mktemp("verify-all") / "report.json"
    return main(["verify", "--suites", "all", "--out", str(out)]), out


class _Counting(SmoothFunction):
    """A SmoothFunction that counts its value, even-part and odd-quotient calls;
    its ``parts`` is the default, one call of each part."""

    def __init__(self, f):
        self.f, self.calls = f, collections.Counter()

    def __call__(self, x):
        self.calls["value"] += 1
        return self.f(x)

    def even_part(self, x):
        self.calls["even_part"] += 1
        return self.f.even_part(x)

    def odd_quotient(self, x):
        self.calls["odd_quotient"] += 1
        return self.f.odd_quotient(x)

    def derivative(self, x):
        return self.f.derivative(x)

    def taylor_coeff(self, k):
        return self.f.taylor_coeff(k)


@pytest.fixture
def counting():
    """``counting(f)`` wraps f so that its ``calls`` count the value, even-part and odd-quotient calls."""
    return _Counting
