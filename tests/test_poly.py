"""Polynomial ring laws, the ring operations' term order and degree
memo, Lie-Poisson brackets and B-gradients."""

from fractions import Fraction
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from su3mag import (Polynomial, parse_polynomial, lie_poisson_bracket,
                    b_gradient, build_su3_gellmann, build_su3_chevalley,
                    DegreeCapError)
from su3mag.scalars import Scalar
from su3mag.invariants import casimirs_su3

from oracles import (derivative_by_loop, extension_by_loop,
                     negation_by_loop, product_by_loop, substitution_by_loop,
                     sum_by_loop)

VARS = ("x", "y", "z")
WIDE = ("w", "z", "v", "x", "y")


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


# term maps in draw order, through the validating constructor, with
# coefficients from a small set of Q(sqrt3) so that sums cancel often
_drawn_polys = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 1)] * 3),
              st.builds(Scalar, st.integers(-2, 2), st.integers(-1, 1))),
    max_size=6).map(lambda pairs: Polynomial(VARS, dict(pairs)))


def _poly(text):
    return parse_polynomial(text, VARS)


# (x + y + 1)(y - x + xy): the xy products cancel (x*y, then y*(-x)) and
# xy comes back from 1*xy, so the loop puts it last
CANCEL_AND_REAPPEAR = (_poly("1 * x^1 + 1 * y^1 + 1"),
                       _poly("1 * y^1 + -1 * x^1 + 1 * x^1 * y^1"))


def _assert_same_order(result, oracle):
    """The same variables, the same terms in the same order, and the same
    float values and gradients bit for bit at four points."""
    assert result.vars == oracle.vars
    assert list(result.terms.items()) == list(oracle.terms.items())
    points = np.random.default_rng(7).uniform(-2, 2, (4, len(result.vars)))
    assert (result.evaluate_stack(points).tobytes()
            == oracle.evaluate_stack(points).tobytes())
    assert (result.gradient(points).tobytes()
            == oracle.gradient(points).tobytes())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_drawn_polys, _drawn_polys, _drawn_polys)
@example(*CANCEL_AND_REAPPEAR, CANCEL_AND_REAPPEAR[0])
def test_ring_operations_keep_the_term_loops_order(p, q, r):
    """Each ring operation builds the term map, in its insertion order,
    that the term loops of the oracles build through the validating
    constructor, so float evaluation sums in the same order."""
    _assert_same_order(p + q, sum_by_loop(p, q))
    _assert_same_order(-p, negation_by_loop(p))
    _assert_same_order(p - q, sum_by_loop(p, negation_by_loop(q)))
    _assert_same_order(p * q, product_by_loop(p, q))
    _assert_same_order(q * p, product_by_loop(q, p))
    for name in VARS:
        _assert_same_order(p.diff(name), derivative_by_loop(p, name))
    _assert_same_order(p.extend(WIDE), extension_by_loop(p, WIDE))
    images = [h.diff("x") for h in (q, r, p)]
    _assert_same_order(p.substitute(VARS, images),
                       substitution_by_loop(p, VARS, images))
    wide = [h.extend(WIDE) for h in (p, q, r)]
    _assert_same_order(p.substitute(WIDE, wide),
                       substitution_by_loop(p, WIDE, wide))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_drawn_polys, _drawn_polys)
def test_degree_is_the_top_degree_after_every_operation(p, q):
    zero = Polynomial.zero(VARS)
    x = Polynomial.var(VARS, "x")
    results = [p + q, p - q, q - p, -p, p * q, (p * q) * x, p * zero,
               zero * p, p * 0, 0 * p, p * 3, p ** 2, p.diff("y"),
               p.extend(WIDE), (-(p * q)).extend(WIDE), p + 1, 1 - p,
               p.substitute(VARS, [q.diff("z"), x, zero])]
    for r in results:
        assert r.degree() == max(map(sum, r.terms), default=0)


def test_degree_memo_on_cancellation_zero_and_the_cap():
    """A sum whose top part cancels, the zero polynomial, products with a
    zero factor and a product's recorded degree read the top degree; a
    product over the cap raises with both factors' degrees memoized."""
    x, y = Polynomial.var(VARS, "x"), Polynomial.var(VARS, "y")
    cancelled = x ** 2 + y - x ** 2
    assert cancelled.degree() == 1 and list(cancelled.terms) == [(0, 1, 0)]
    zero = Polynomial.zero(VARS)
    assert zero.degree() == 0
    p = x * y + y ** 3
    assert (x * y).degree() == 2 and p.degree() == 3
    for r in (p * 0, 0 * p, p * Fraction(0), p * zero, zero * p):
        assert r.is_zero() and r.terms == {} and r.degree() == 0
    assert (p * p).degree() == 6
    big = x ** 5
    assert big.degree() == 5
    also = Polynomial(VARS, {(0, 4, 0): Scalar(1)})
    assert also.degree() == 4
    with pytest.raises(DegreeCapError):
        big * also
    with pytest.raises(DegreeCapError):
        also * big


def test_substitute_takes_one_image_per_variable():
    """x*y + y over (x, y) with the one image t is refused by a one-line
    ValueError, not read as t + 1 with the missing image taken as 1; so
    is an image too many."""
    x, y = Polynomial.var(("x", "y"), "x"), Polynomial.var(("x", "y"), "y")
    t = Polynomial.var(("t",), "t")
    for images, message in (([t], "1 images for 2 vars"),
                            ([t, t, t], "3 images for 2 vars")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            (x * y + y).substitute(("t",), images)
    assert (x * y + y).substitute(("t",), [t, t]) == t * t + t


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul],
                         ids=lambda op: op.__name__)
def test_an_inexact_operand_is_a_type_error(op):
    """A float, None or a string on either side of +, - or * is a
    TypeError (NotImplemented from both operands); an int or a Fraction
    is a constant polynomial."""
    p = Polynomial.var(VARS, "x")
    for other in (0.5, None, "1"):
        with pytest.raises(TypeError):
            op(p, other)
        with pytest.raises(TypeError):
            op(other, p)
    half = Fraction(1, 2)
    assert op(p, half) == op(p, Polynomial.const(VARS, half))
    assert op(half, p) == op(Polynomial.const(VARS, half), p)
    assert op(2, p) == op(Polynomial.const(VARS, 2), p)


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
