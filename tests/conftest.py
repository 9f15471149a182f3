import pytest

from corpusdef import P44, U24

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # the same examples on every run, and no wall-clock limit per example
    settings.register_profile("deterministic", derandomize=True, deadline=None)
    settings.load_profile("deterministic")


@pytest.fixture
def p44():
    return P44


@pytest.fixture
def u24():
    return U24
