import math
from fractions import Fraction

import pytest

from port_trees.special import harmonic, reciprocal_gamma


def test_reciprocal_gamma_poles_exactly_zero():
    assert reciprocal_gamma(0.0) == 0.0
    assert reciprocal_gamma(-3.0) == 0.0
    assert reciprocal_gamma(-100.0) == 0.0


def test_reciprocal_gamma_positive():
    assert reciprocal_gamma(2.0) == pytest.approx(1.0, rel=1e-14)
    assert reciprocal_gamma(0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)


def test_reciprocal_gamma_negative_nonintegers():
    # Gamma(-0.5) = -2 sqrt(pi)
    assert reciprocal_gamma(-0.5) == pytest.approx(-1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-13)


@pytest.mark.parametrize("x", [0.5 + 0.5 * k for k in range(100)])
def test_reciprocal_gamma_inverts_log_gamma(x):
    assert reciprocal_gamma(x) * math.exp(math.lgamma(x)) == pytest.approx(1.0, abs=1e-12)


def test_harmonic_telescopes():
    for order in (1, 2):
        h = harmonic(0, order)
        assert h == 0
        for n in range(1, 400):
            assert harmonic(n, order) - h == Fraction(1, n**order)
            h = harmonic(n, order)
    with pytest.raises(ValueError):
        harmonic(5, order=0)
