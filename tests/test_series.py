import numpy as np
import pytest

from _oracles import dict_series_mul
from umbilic.series import PowerSeries2, geometric_inverse


def random_triangular(rng, degree, density=0.6):
    """A series with random complex coefficients on a random subset of the
    monomials of total degree <= degree."""
    return PowerSeries2(degree, {(k, l): rng.normal() + 1j * rng.normal()
                                 for k in range(degree + 1) for l in range(degree + 1 - k)
                                 if rng.random() < density})


def test_monomial_derivative_rules():
    f = PowerSeries2(4, {(2, 1): 1.0})
    assert f.derivative("D").coeffs == {(1, 1): 2.0}
    assert f.derivative("Dbar").coeffs == {(2, 0): 1.0}


def test_derivative_of_constant_is_zero():
    f = PowerSeries2.constant(5.0, 3)
    assert f.derivative("D").coeffs == {}


def test_derivative_drops_degree_and_reality():
    f = PowerSeries2(4, {(1, 1): 1.0}, real_tag=True)
    df = f.derivative("D")
    assert df.max_degree == 3
    assert not df.real_tag


def test_eval_examples():
    f = PowerSeries2(2, {(1, 0): 1.0, (0, 1): 1.0})
    assert f.eval(1 + 2j) == pytest.approx(2.0)
    g = PowerSeries2(2, {(1, 1): 1.0})
    assert g.eval(3j) == pytest.approx(9.0)
    assert PowerSeries2.zero(5).eval(0.7 - 0.1j) == 0.0


def test_mul_truncates_to_min_degree():
    a = PowerSeries2(5, {(1, 0): 1.0})
    b = PowerSeries2(3, {(0, 1): 1.0})
    p = a.mul(b)
    assert p.max_degree == 3
    assert p.coeffs == {(1, 1): 1.0}


def test_mul_with_explicit_out_degree():
    a = PowerSeries2(2, {(2, 0): 1.0})
    p = a.mul(a, out_degree=4)
    assert p.coeffs == {(4, 0): 1.0}


@pytest.mark.parametrize("out_degree", [None, 2, 5, 7, 9, 12, 16])
def test_mul_matches_dict_convolution(out_degree):
    # operand degrees 5 and 9: out_degree below both, equal to each, between
    # and above them
    rng = np.random.default_rng(out_degree or 0)
    a, b = random_triangular(rng, 5), random_triangular(rng, 9)
    p = a.mul(b, out_degree=out_degree)
    assert p.max_degree == (5 if out_degree is None else out_degree)
    want = dict_series_mul(a.coeffs, b.coeffs, p.max_degree)
    assert set(p.coeffs) == set(want)
    for kl, c in want.items():
        assert abs(p.coeff(*kl) - c) <= 1e-13 * (1.0 + abs(c))


def test_coeffs_lists_the_nonzero_entries():
    f = PowerSeries2(3, {(2, 1): 1 + 2j, (0, 0): 0.0, (1, 1): -0.5})
    assert f.coeffs == {(2, 1): 1 + 2j, (1, 1): -0.5}
    assert f.c.shape == (4, 4)
    assert f.coeffs == PowerSeries2(3, f.c).coeffs


def test_real_tag_requires_hermitian_coefficients():
    with pytest.raises(ValueError):
        PowerSeries2(3, {(2, 1): 1.0}, real_tag=True)
    PowerSeries2(3, {(2, 1): 1.0 + 1j, (1, 2): 1.0 - 1j}, real_tag=True)


def test_leibniz_exact_to_truncation():
    rng = np.random.default_rng(1)
    a = PowerSeries2(6, {(k, l): rng.normal() + 1j * rng.normal()
                         for k in range(4) for l in range(4) if k + l <= 6})
    b = PowerSeries2(6, {(k, l): rng.normal() + 1j * rng.normal()
                         for k in range(4) for l in range(4) if k + l <= 6})
    lhs = a.mul(b).derivative("D")
    rhs = a.derivative("D").mul(b).add(b.derivative("D").mul(a)).truncate(lhs.max_degree)
    diff = lhs.add(rhs.scale(-1.0))
    assert diff.max_coeff() < 1e-12


def test_geometric_inverse():
    e = PowerSeries2(8, {(1, 1): 0.5, (2, 0): 0.25, (0, 2): 0.25})
    inv = geometric_inverse(e, 8)
    one = e.add(PowerSeries2.constant(1.0, 8)).mul(inv)
    resid = one.add(PowerSeries2.constant(-1.0, 8))
    assert resid.max_coeff() < 1e-12


def test_geometric_inverse_needs_positive_valuation():
    with pytest.raises(ValueError):
        geometric_inverse(PowerSeries2.constant(0.5, 4), 4)


def test_lift_and_truncate_semantics():
    f = PowerSeries2(2, {(1, 1): 1.0}, real_tag=True)
    lifted = f.lift(6)
    assert lifted.max_degree == 6 and lifted.coeffs == f.coeffs
    with pytest.raises(ValueError):
        lifted.lift(3)
    cut = lifted.truncate(1)
    assert cut.max_degree == 1 and cut.coeffs == {}


def test_valuation():
    f = PowerSeries2(4, {(1, 1): 2.0, (3, 0): 1.0})
    assert f.valuation() == 2
    assert PowerSeries2.zero(3).valuation() == 4


def test_rejects_bad_indices():
    with pytest.raises(ValueError):
        PowerSeries2(3, {(2, 2): 1.0})
    with pytest.raises(ValueError):
        PowerSeries2(3, {(-1, 0): 1.0})
    with pytest.raises(ValueError):
        PowerSeries2(3, {(10 ** 400, -10 ** 400): 1.0})
    with pytest.raises(ValueError):
        PowerSeries2(1, np.ones((2, 2)))  # (1, 1) lies beyond degree 1
    with pytest.raises(ValueError):
        PowerSeries2(1, np.zeros((3, 3)))
