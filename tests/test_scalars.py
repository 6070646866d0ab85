"""Field axioms and serialization of the exact scalar type."""

import math
import operator
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from su3mag.scalars import Scalar, CScalar, parse_scalar

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
scalars = st.builds(Scalar, rationals, rationals)
# wide denominators, so that sums and products need a real gcd reduction
wide = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                    max_denominator=10 ** 6)
pairs = st.tuples(wide, wide)


# ---------------------------------------------------------------------------
# reference: the field as a pair (a, c) of Fractions, a + c sqrt3,
# operation by operation
# ---------------------------------------------------------------------------

def ref_add(x, y):
    return tuple(p + q for p, q in zip(x, y))


def ref_neg(x):
    return tuple(-p for p in x)


def ref_mul(x, y):
    a1, c1 = x
    a2, c2 = y
    return (a1 * a2 + 3 * c1 * c2, a1 * c2 + c1 * a2)


def ref_inv(x):
    a, c = x
    norm = a * a - 3 * c * c
    return (a / norm, -c / norm)


def ref_pow(x, n):
    out = (Fraction(1), Fraction(0))
    for _ in range(n):
        out = ref_mul(out, x)
    return out


def view(s):
    return (s.a, s.c)


def assert_normal(s):
    n0, n1, den = s.ints
    assert all(type(n) is int for n in s.ints)
    assert den > 0
    assert math.gcd(n0, n1, den) == 1
    if not (n0 or n1):
        assert s.ints == (0, 0, 1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pairs, pairs, st.integers(min_value=0, max_value=5))
def test_integer_kernel_matches_fraction_reference(x, y, n):
    sx, sy = Scalar(*x), Scalar(*y)
    assert view(sx) == x
    results = [(sx + sy, ref_add(x, y)), (sx - sy, ref_add(x, ref_neg(y))),
               (-sx, ref_neg(x)), (sx * sy, ref_mul(x, y)),
               (sx ** n, ref_pow(x, n)), (sx - sx, (0, 0))]
    if any(x):
        results.append((sx.inv(), ref_inv(x)))
        results.append((sy / sx, ref_mul(y, ref_inv(x))))
    for got, want in results:
        assert view(got) == want
        assert_normal(got)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(pairs, wide)
def test_mixed_operands_and_normal_form(x, q):
    sx = Scalar(*x)
    assert_normal(sx)
    qx = (q, 0)
    assert view(sx * q) == view(q * sx) == ref_mul(x, qx)
    assert view(sx + q) == view(q + sx) == ref_add(x, qx)
    assert view(q - sx) == ref_add(qx, ref_neg(x))
    assert sx == Scalar(*x) and hash(sx) == hash(Scalar(*x))
    if sx.is_rational():
        assert sx == x[0]


def test_normal_form_examples():
    assert Scalar(0).ints == (0, 0, 1)
    assert Scalar(Fraction(2, 4), Fraction(1, 3)).ints == (3, 2, 6)
    half = Scalar(Fraction(1, 2))
    assert (half + half).ints == (1, 0, 1)
    assert (half - half).ints == (0, 0, 1)
    # 1/(-sqrt3/3) = -sqrt3, and 1/(-3/7) = -7/3 on the integers
    assert Scalar.sqrt3(Fraction(-1, 3)).inv().ints == (0, -1, 1)
    assert Scalar(Fraction(-3, 7)).inv().ints == (-7, 0, 3)


def test_views_are_read_only_and_floats_refused():
    s = Scalar(Fraction(1, 2), Fraction(-3, 4))
    assert s.a == Fraction(1, 2) and s.c == Fraction(-3, 4)
    assert isinstance(Scalar(1).c, Fraction) and Scalar(1).c == 0
    with pytest.raises(AttributeError):
        s.a = Fraction(1)
    with pytest.raises(TypeError):
        Scalar(0.5)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for x, y in ((s, 0.5), (0.5, s)):
            with pytest.raises(TypeError):
                op(x, y)
    assert (Scalar(1) == 1.0) is False and (1.0 == Scalar(1)) is False
    # equal values built in different ways hash alike
    for x, y in ((Scalar(Fraction(2, 4)), Scalar(Fraction(1, 2))),
                 (Scalar(1), Scalar.of(True)), (Scalar.of(3), Scalar(3))):
        assert x == y and hash(x) == hash(y)
        assert_normal(y)


def test_constructor_takes_what_is_exact_takes():
    """Each argument of Scalar(a, c) enters through the one
    coercion: a numpy integer, which is_exact and Scalar.of refuse, is
    refused too, and a Scalar argument counts with its full value."""
    import numpy as np
    from su3mag.scalars import is_exact
    for bad in (np.int64(3), np.float64(0.5), 0.5):
        assert not is_exact(bad)
        with pytest.raises(TypeError):
            Scalar(bad)
        with pytest.raises(TypeError):
            Scalar(0, bad)
        with pytest.raises(TypeError):
            Scalar.of(bad)
    assert Scalar(np.int64(3).item()) == Scalar.of(3)
    assert Scalar(True, Fraction(1, 2)) == 1 + Scalar.sqrt3(Fraction(1, 2))
    # (1 + sqrt3) + sqrt3 (1 + sqrt3) = 4 + 2 sqrt3
    one_s3 = Scalar(1, 1)
    assert Scalar(one_s3, one_s3).ints == (4, 2, 1)
    assert Scalar(0, Scalar.sqrt3()).ints == (3, 0, 1)


def test_int_operands_and_hashing_stay_on_integers(monkeypatch):
    """An int operand of + - * / == and hash() go through the one
    coercion on integers: no Fraction is built and Scalar.__init__ is
    never called."""
    x = Scalar(Fraction(1, 2), Fraction(-3, 4))
    calls = []
    real_new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **k:
                        calls.append(a) or real_new(cls, *a, **k))
    monkeypatch.setattr(Scalar, "__init__", lambda self, *a:
                        calls.append(a))
    for k in (3, True):
        for op in (operator.add, operator.sub, operator.mul,
                   operator.truediv, operator.eq):
            op(x, k)
            op(k, x)
    hash(x)
    assert not calls


def test_a_rational_scalar_is_found_under_the_equal_int_or_fraction(
        monkeypatch):
    """Dict and set lookups agree with ==, and hashing a rational Scalar
    builds no Fraction."""
    assert {Scalar(1): "x"}.get(1) == "x"
    assert Scalar(Fraction(1, 2)) in {Fraction(1, 2)}
    assert {1: "y"}.get(Scalar(1)) == "y"
    x = Scalar(Fraction(-3, 4))
    calls = []
    real_new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **k:
                        calls.append(a) or real_new(cls, *a, **k))
    hash(x)
    assert not calls


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30))
def test_rational_hash_is_the_hash_of_the_value(n, d):
    """A rational Scalar hashes as the equal Fraction (so as the equal
    int), also at -1, whose hash is -2, and at a denominator the hash
    modulus divides; an irrational one hashes its integers."""
    P = sys.hash_info.modulus
    for num, den in ((n, d), (-1, 1), (n, P * d)):
        assert hash(Scalar(Fraction(num, den))) == hash(Fraction(num, den))
    assert hash(Scalar(-1)) == hash(-1) == -2
    x = Scalar(Fraction(n, d), 1)
    assert hash(x) == hash(x.ints)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None, derandomize=True)
@given(scalars)
def test_division(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inv()
    else:
        assert a * a.inv() == Scalar(1)
        assert (a / a) == Scalar(1)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(scalars)
def test_float_view_matches_exact_value(a):
    expect = float(a.a) + float(a.c) * math.sqrt(3)
    assert abs(float(a) - expect) <= 1e-12 * max(1.0, abs(expect))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(scalars, st.builds(Scalar, wide, wide)))
def test_text_round_trip(a):
    back = parse_scalar(a.text())
    assert back == a and back.ints == a.ints
    assert back.text() == a.text()


def test_text_format_examples():
    assert Scalar(Fraction(3, 4)).text() == "3/4"
    s = Scalar(Fraction(1, 2)) + Scalar.sqrt3(Fraction(-2, 3))
    assert s.text() == "(1/2)+(-2/3)√3"
    assert parse_scalar(s.text()) == s
    # Q(sqrt3) has no other part: a chunk tagged otherwise, say the sqrt2
    # or sqrt6 of Q(sqrt2, sqrt3), is a one-line error naming its tag
    for tag in ("√2", "√6", "√5"):
        text = f"(1/2)+(1/3){tag}"
        with pytest.raises(ValueError, match=re.escape(
                f"scalar '{text}' has a part '{tag}'; ")) as exc:
            parse_scalar(text)
        assert "\n" not in str(exc.value)


def test_sqrt_constants_multiply():
    assert Scalar.sqrt3() * Scalar.sqrt3() == Scalar(3)
    assert Scalar.sqrt3(Fraction(1, 2)) * Scalar.sqrt3(Fraction(2, 3)) == 1
    # the conjugates of 1 + sqrt3 and of the unit 2 + sqrt3
    assert Scalar(1, 1) * Scalar(1, -1) == Scalar(-2)
    assert Scalar(2, 1) * Scalar(2, -1) == Scalar(1)


def test_complex_scalars():
    i = CScalar.i()
    assert i * i == CScalar(-1)
    z = CScalar(Scalar(1), Scalar(2))
    assert z * z.conj() == CScalar(Scalar(5))
    assert complex(z) == 1 + 2j
