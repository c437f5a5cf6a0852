import math
from fractions import Fraction

import pytest

from port_trees.special import (
    harmonic,
    hypergeometric_pfq,
    log_gamma,
    reciprocal_gamma,
)


def test_log_gamma_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
    assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
    assert log_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-14)


def test_log_gamma_domain():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-2.5)


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
    assert reciprocal_gamma(x) * math.exp(log_gamma(x)) == pytest.approx(1.0, abs=1e-12)


def test_harmonic_telescopes():
    for order in (1, 2):
        h = harmonic(0, order)
        assert h == 0
        for n in range(1, 400):
            assert harmonic(n, order) - h == Fraction(1, n**order)
            h = harmonic(n, order)
    with pytest.raises(ValueError):
        harmonic(5, order=0)


def test_pfq_trivial_cases():
    # a zero upper parameter keeps only the s=0 term
    assert hypergeometric_pfq([0, Fraction(33, 10)], [Fraction(17, 10)], 1) == 1
    # 3F2 with upper -1: 1 + (-1)(1)(1)/1 = 0
    assert hypergeometric_pfq([-1, 1, 1], [1, 1], 1) == 0


def test_pfq_matches_binomial_sum():
    # 1F0(-m;;z) = (1-z)^m for integer m
    for m in (1, 2, 5):
        for z in (Fraction(3, 10), Fraction(-6, 5)):
            assert hypergeometric_pfq([-m], [], z) == (1 - z) ** m


@pytest.mark.parametrize("m", [1, 4, 9])
def test_pfq_chu_vandermonde(m):
    # 2F1(-m, b; c; 1) = (c-b)_m / (c)_m
    b, c = Fraction(3, 2), Fraction(7, 3)
    expected = math.prod(c - b + i for i in range(m)) / math.prod(c + i for i in range(m))
    assert hypergeometric_pfq([-m, b], [c], 1) == expected


def test_pfq_rejects_nonterminating():
    with pytest.raises(ValueError):
        hypergeometric_pfq([Fraction(1, 2), 1], [2], 1)
    # half-integer upper parameters never hit an integer zero
    with pytest.raises(ValueError):
        hypergeometric_pfq([Fraction(-1, 2)], [2], 1)


def test_pfq_rejects_lower_pole_before_termination():
    # lower parameter -1 dies at s=1, before the upper -3 stops at s=3
    with pytest.raises(ValueError):
        hypergeometric_pfq([-3], [-1], 1)


def test_pfq_rejects_non_rational_arguments():
    with pytest.raises(ValueError, match="rational"):
        hypergeometric_pfq([-2, 0.5], [1], 1)
    with pytest.raises(ValueError, match="rational"):
        hypergeometric_pfq([-2], [1.5], 1)
    with pytest.raises(ValueError, match="rational"):
        hypergeometric_pfq([-2], [1], 0.25)
