import numpy as np
import pytest

from qcqp_hull.gamma import build_gamma_data
from qcqp_hull.generators import example1
from qcqp_hull.hull import soc_description


@pytest.fixture(scope="session")
def ex1():
    return example1()


@pytest.fixture(scope="session")
def ex1_gd(ex1):
    return build_gamma_data(ex1)


@pytest.fixture(scope="session")
def ex1_soc(ex1, ex1_gd):
    return soc_description(ex1_gd.v, ex1)


def random_spd(rng, n, shift=1.0):
    S = rng.normal(size=(n, n))
    S = 0.5 * (S + S.T)
    lam = np.linalg.eigvalsh(S)[0]
    return S + (abs(lam) + shift) * np.eye(n)
