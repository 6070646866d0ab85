"""Polynomial ring laws, Lie-Poisson brackets and B-gradients."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from su3mag import (Polynomial, parse_polynomial, lie_poisson_bracket,
                    b_gradient, build_su3_gellmann, build_su3_chevalley,
                    DegreeCapError)
from su3mag.scalars import Scalar
from su3mag.invariants import casimirs_su3

VARS = ("x", "y", "z")


def _poly_strategy():
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=4)
    expo = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
    term = st.tuples(expo, coeff)
    return st.lists(term, max_size=5).map(
        lambda terms: sum((Polynomial(VARS, {e: Scalar(c)})
                           for e, c in terms), Polynomial.zero(VARS)))


polys = _poly_strategy()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


def test_degree_cap():
    p = Polynomial.var(VARS, "x") ** 5
    with pytest.raises(DegreeCapError):
        p * p


def test_evaluate_exact_and_float():
    x = Polynomial.var(VARS, "x")
    y = Polynomial.var(VARS, "y")
    p = x + y
    assert p.evaluate([1, 2, 0]) == Scalar(3)
    assert Polynomial.zero(VARS).evaluate([1.0, 2.0, 3.0]) == 0.0
    with pytest.raises(ValueError):
        p.evaluate([1, 2])


def test_one_pass_gradient_matches_the_partials():
    """Polynomial.gradient agrees with evaluating each partial within a
    relative 1e-15 (another summation order), for the Casimirs and for
    constant and zero polynomials, and raises OverflowError where a
    partial overflows at a finite point, as evaluate does."""
    rng = np.random.default_rng(0)
    alg = build_su3_chevalley()
    names = alg.coord_names
    polys = list(casimirs_su3(alg)) + [Polynomial.const(names, 3),
                                       Polynomial.zero(names)]
    for p in polys:
        for _ in range(20):
            x = rng.uniform(-2, 2, len(names))
            ref = np.array([float(p.diff(v).evaluate(x)) for v in names])
            grad = p.gradient(x)
            assert grad.shape == (len(names),)
            assert np.abs(grad - ref).max() <= 1e-15 * np.abs(ref).max()
    cube = Polynomial(("x",), {(3,): Scalar(1)})
    mixed = Polynomial(("x", "y"), {(1, 2): Scalar(1)})
    for p, big in ((cube, [1e200]), (mixed, [1e200, 1e200])):
        with pytest.raises(OverflowError):
            p.diff(p.vars[-1]).evaluate(big)
        with pytest.raises(OverflowError):
            p.gradient(big)
    assert cube.gradient([np.inf]).tolist() == [np.inf]


def test_serialization_round_trip():
    p = (Polynomial.var(VARS, "x", Scalar(Fraction(1, 2)))
         + Polynomial.var(VARS, "y") ** 2 * Scalar.sqrt3(Fraction(-2, 7))
         + Polynomial.const(VARS, 5))
    text = p.text()
    assert parse_polynomial(text, VARS) == p
    assert parse_polynomial("0", VARS) == Polynomial.zero(VARS)


def test_coordinate_brackets_close_on_structure_constants():
    alg = build_su3_gellmann()
    names = alg.coord_names
    for i in range(alg.dim):
        for j in range(alg.dim):
            br = lie_poisson_bracket(Polynomial.var(names, names[i]),
                                     Polynomial.var(names, names[j]), alg)
            expect = Polynomial.zero(names)
            for (a, b, k), c in alg.structure.items():
                if a == i and b == j:
                    expect = expect + Polynomial.var(names, names[k], c)
            assert (br - expect).is_zero()


def test_bracket_antisymmetry_and_jacobi_on_coordinates():
    alg = build_su3_gellmann()
    names = alg.coord_names
    xs = [Polynomial.var(names, v) for v in names]
    rng = np.random.default_rng(0)
    for _ in range(10):
        a, b, c = rng.integers(0, 8, 3)
        assert lie_poisson_bracket(xs[a], xs[a], alg).is_zero()
        jac = (lie_poisson_bracket(xs[a], lie_poisson_bracket(xs[b], xs[c], alg), alg)
               + lie_poisson_bracket(xs[b], lie_poisson_bracket(xs[c], xs[a], alg), alg)
               + lie_poisson_bracket(xs[c], lie_poisson_bracket(xs[a], xs[b], alg), alg))
        assert jac.is_zero()


def test_bracket_leibniz_exact_on_random_polynomials():
    alg = build_su3_gellmann()
    names = alg.coord_names
    rng = np.random.default_rng(1)

    def rand_poly(deg):
        p = Polynomial.zero(names)
        for _ in range(4):
            expo = [0] * 8
            for _ in range(deg):
                expo[rng.integers(0, 8)] += 1
            p = p + Polynomial(names, {tuple(expo): Scalar(int(rng.integers(-3, 4)))})
        return p

    for _ in range(5):
        p, q, r = rand_poly(2), rand_poly(1), rand_poly(2)
        lhs = lie_poisson_bracket(p * q, r, alg)
        rhs = p * lie_poisson_bracket(q, r, alg) + q * lie_poisson_bracket(p, r, alg)
        assert (lhs - rhs).is_zero()
        # grading: deg {p,q} <= deg p + deg q - 1
        br = lie_poisson_bracket(p, r, alg)
        if not br.is_zero():
            assert br.degree() <= p.degree() + r.degree() - 1


def test_b_gradient_defining_property_and_linearity():
    alg = build_su3_chevalley()
    names = alg.coord_names
    rng = np.random.default_rng(2)
    p = Polynomial.var(names, "x1") * Polynomial.var(names, "y2") \
        + Polynomial.var(names, "h1") ** 2
    grad = b_gradient(p, alg)
    # dp_X(V) = B(grad p(X), V) checked symbolically on basis directions
    for j, v in enumerate(names):
        pairing = Polynomial.zero(names)
        for i in range(alg.dim):
            if not alg.bform[i][j].is_zero():
                pairing = pairing + grad[i] * alg.bform[i][j]
        assert (pairing - p.diff(v)).is_zero()
    # linear coordinate: constant gradient vector (B^-1 applied to covector)
    lin = Polynomial.var(names, "x2")
    g = b_gradient(lin, alg)
    assert all(c.degree() == 0 for c in g)


def test_b_gradient_casimir_examples():
    """grad C2 = 2 Y, and for -B(Y,Y) the gradient is -2Y; grad C3 checked
    against central finite differences at five random points."""
    alg = build_su3_chevalley()
    names = alg.coord_names
    c2, c3 = casimirs_su3(alg)
    grad2 = b_gradient(c2, alg)
    for i, comp in enumerate(grad2):
        expect = Polynomial.var(names, names[i], 2)
        assert (comp - expect).is_zero()
    # the opposite normalization -B(Y,Y) has gradient -2Y
    gradneg = b_gradient(-1 * c2, alg)
    for i, comp in enumerate(gradneg):
        assert (comp - Polynomial.var(names, names[i], -2)).is_zero()
    grad3 = b_gradient(c3, alg)
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(5):
        x = rng.uniform(-1, 1, 8)
        g = np.array([float(c.evaluate(x)) for c in grad3])
        fd = np.zeros(8)
        for j in range(8):
            e = np.zeros(8)
            e[j] = h
            fd[j] = (float(c3.evaluate(x + e)) - float(c3.evaluate(x - e))) / (2 * h)
        # fd is the plain partial-derivative covector; pair through B
        pred = np.array([[float(v) for v in row] for row in alg.bform]) @ g
        assert np.abs(pred - fd).max() < 1e-6
