import numpy as np
import pytest

from hopfbvp.core import Grid, HopfParams, Profile


@pytest.fixture
def params_flat():
    """The exactly solvable quadruple: alpha(t) = 2t."""
    return HopfParams(p=1, q=1, lam=1.0, mu=1.0)


@pytest.fixture
def params_main():
    """The main solvable regime used throughout: p=1, q=2, mu > lam*q."""
    return HopfParams(p=1, q=2, lam=1.0, mu=4.0)


def uniform_profile(fn, t_lo, t_hi, n, junction_index=None):
    t = np.linspace(t_lo, t_hi, n)
    return Profile(Grid(t, junction_index=junction_index), fn(t))
