"""Exact scalar arithmetic in the real quadratic field Q(sqrt3).

Every structure constant, bilinear-form entry and invariant-polynomial
coefficient appearing in the two SU(3) bases lives in Q(sqrt3), and those
of su(2) are rational.

An element is stored in its integral representation (Cohen, GTM 138, §4.2):
two integer numerators over one common denominator,

    (n0 + n1*sqrt3) / den,     den > 0,

reduced so that gcd(n0, n1, den) == 1; zero is (0, 0, 1).
The reduced form is unique, so equality reads the tuple, and a rational
hashes as Python hashes its value: as the equal int or Fraction.  An int
or Fraction operand, and each argument of the constructor, enters through
one coercion, ``_coerce`` (also ``Scalar.of``; ``is_exact`` names what it
accepts), on its integers.  So
every ring operation works on Python ints and ends with one gcd; no
``Fraction`` is built on the arithmetic path, hashing included.
Elimination has its own fused kernel, ``submul_ints``, on the ints, and
only this module spells the ints out: other modules use ``submul_ints``,
``neg_ints``, ``inv_ints`` and ``scale_ints``.  The rational coefficients
a, c of a + c*sqrt3 are available as read-only ``Fraction`` views.

Division is exact field division: the inverse is the conjugate over the
rational field norm, both computed on the integer numerators.
"""

from __future__ import annotations

from fractions import Fraction
import math
from sys import hash_info as _HASH

_SQRT3 = math.sqrt(3.0)

_gcd = math.gcd
_new = object.__new__
_ZERO_INTS = (0, 0, 1)


def _reduce(n0, n1, den):
    """The reduced ints of (n0 + n1 s3)/den, den > 0."""
    g = _gcd(n0, n1, den)
    if g == 1:
        return (n0, n1, den)
    return (n0 // g, n1 // g, den // g)


def _make(n0, n1, den):
    """The Scalar (n0 + n1 s3)/den for den > 0, reduced."""
    s = _new(Scalar)
    s.ints = _reduce(n0, n1, den)
    return s


def from_ints(ints):
    """The Scalar whose integral representation is the reduced ints."""
    s = _new(Scalar)
    s.ints = ints
    return s


def submul_ints(a, f, v):
    """The reduced ints of a - f*v, or of -f*v when a is None; a, f and v
    are reduced ints.  One product and one gcd, with no Scalar built."""
    f0, f1, fd = f
    v0, v1, vd = v
    if not f1:
        p0, p1 = f0 * v0, f0 * v1
    elif not v1:
        p0, p1 = v0 * f0, v0 * f1
    else:
        p0, p1 = f0 * v0 + 3 * f1 * v1, f0 * v1 + f1 * v0
    pd = fd * vd
    if a is None:
        return _reduce(-p0, -p1, pd)
    a0, a1, ad = a
    if ad == pd:
        return _reduce(a0 - p0, a1 - p1, ad)
    return _reduce(a0 * pd - p0 * ad, a1 * pd - p1 * ad, ad * pd)


def neg_ints(t):
    """The reduced ints of -x, for the reduced ints t of x."""
    n0, n1, den = t
    return (-n0, -n1, den)


def inv_ints(t):
    """The reduced ints of 1/x, for the reduced ints t of a nonzero x.

    x (n0 - n1*sqrt3) = (n0^2 - 3 n1^2)/den is rational, and nonzero since
    sqrt3 is irrational, so 1/x = den (n0 - n1*sqrt3) / (n0^2 - 3 n1^2);
    a rational n0/den inverts to den/n0 with no gcd.
    """
    n0, n1, den = t
    if not n1:
        return (den, 0, n0) if n0 > 0 else (-den, 0, -n0)
    norm = n0 * n0 - 3 * n1 * n1
    if norm < 0:
        norm, den = -norm, -den
    return _reduce(den * n0, -den * n1, norm)


def scale_ints(t, e):
    """The reduced ints of e*x, for the reduced ints t of x and an int e."""
    n0, n1, den = t
    return _reduce(n0 * e, n1 * e, den)


def _coerce(x):
    """x as a Scalar: a Scalar is itself, an int or a Fraction goes to
    _make on its integers; anything else raises TypeError."""
    if type(x) is Scalar:
        return x
    if isinstance(x, int):
        return _make(int(x), 0, 1)
    if isinstance(x, Fraction):
        return _make(x.numerator, 0, x.denominator)
    raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")


def is_exact(x):
    """Whether _coerce accepts x: a Scalar, an int or a Fraction.  Scalar
    is tested first: the Fraction test goes through ABCMeta."""
    return isinstance(x, (Scalar, int, Fraction))


class Scalar:
    """An element a + c*sqrt3 with a, c rational.

    ``ints`` is the reduced integral representation (n0, n1, den).
    """

    __slots__ = ("ints",)

    def __init__(self, a=0, c=0):
        """a + c sqrt3, for a and c that is_exact accepts (each through
        _coerce); anything else raises TypeError."""
        # a - c (-sqrt3): one product and one gcd
        self.ints = submul_ints(_coerce(a).ints, _coerce(c).ints, (0, -1, 1))

    # -- constructors -----------------------------------------------------

    of = staticmethod(_coerce)

    @staticmethod
    def sqrt3(coeff=1):
        return Scalar(0, coeff)

    # -- rational views -----------------------------------------------------

    @property
    def a(self):
        return Fraction(self.ints[0], self.ints[2])

    @property
    def c(self):
        return Fraction(self.ints[1], self.ints[2])

    # -- field operations --------------------------------------------------

    def __add__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        b0, b1, bd = other.ints
        if not (b0 or b1):
            return self
        a0, a1, ad = self.ints
        if not (a0 or a1):
            return other
        if ad == bd:
            return _make(a0 + b0, a1 + b1, ad)
        return _make(a0 * bd + b0 * ad, a1 * bd + b1 * ad, ad * bd)

    __radd__ = __add__

    def __neg__(self):
        return from_ints(neg_ints(self.ints))

    def __sub__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        a0, a1, ad = self.ints
        b0, b1, bd = other.ints
        if not a1:
            if not a0:
                return self
            return _make(a0 * b0, a0 * b1, ad * bd)
        if not b1:
            if not b0:
                return other
            return _make(b0 * a0, b0 * a1, ad * bd)
        return _make(a0 * b0 + 3 * a1 * b1, a0 * b1 + a1 * b0, ad * bd)

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse, via the conjugate (inv_ints)."""
        if self.is_zero():
            raise ZeroDivisionError("Scalar division by zero")
        return from_ints(inv_ints(self.ints))

    def __truediv__(self, other):
        return self * _coerce(other).inv()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inv()

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("Scalar powers must be nonnegative integers")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates / views -------------------------------------------------

    def is_zero(self):
        return self.ints == _ZERO_INTS

    def is_rational(self):
        return not self.ints[1]

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self.ints == other.ints

    def __hash__(self):
        n0, n1, den = self.ints
        if n1:
            return hash(self.ints)
        # Python's hash of the rational n0/den ("Hashing of numeric types")
        h = hash(hash(abs(n0)) * pow(den, -1, _HASH.modulus)
                 if den % _HASH.modulus else _HASH.inf)
        h = h if n0 >= 0 else -h
        return -2 if h == -1 else h

    def __float__(self):
        n0, n1, den = self.ints
        # each component rounded as float(Fraction(n_i, den)) would be
        return n0 / den + n1 / den * _SQRT3

    # -- canonical text form -------------------------------------------------

    def text(self):
        """Canonical serialization, bit-exact round-trip via parse_scalar.

        Rational values print as "p/q"; values with an irrational part
        print as "(p/q)+(r/s)√3".
        """
        if self.is_rational():
            return str(self.a)
        return f"({self.a})+({self.c})√3"

    def __repr__(self):
        return f"Scalar({self.text()})"


def parse_scalar(s):
    """Inverse of Scalar.text().  A chunk with any tag but √3 (say the √2
    or √6 of a larger field) is refused by a ValueError naming the tag."""
    s = s.strip()
    if "(" not in s:
        return Scalar(Fraction(s))
    # '+' separates the "(p/q)" and "(r/s)√3" chunks; coefficients may be
    # negative
    parts = {"": 0, "√3": 0}
    for chunk in s.split("+"):
        coeff, tag = chunk.strip()[1:].split(")")
        if tag not in parts:
            raise ValueError(f"scalar {s!r} has a part {tag!r}; "
                             f"only rational and √3 parts are exact here")
        parts[tag] = Fraction(coeff)
    return Scalar(*parts.values())


ZERO = Scalar(0)
ONE = Scalar(1)


def _cnew(re, im):
    z = _new(CScalar)
    z.re = re
    z.im = im
    return z


class CScalar:
    """Exact complex number with Scalar real and imaginary parts.

    Used for exact 3x3 matrix representations of su(3) basis elements and
    for exact complex root coordinates z_k.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _coerce(re)
        self.im = _coerce(im)

    @staticmethod
    def of(x):
        """x as a CScalar; a real part goes through _coerce."""
        return x if type(x) is CScalar else CScalar(x)

    @staticmethod
    def i(coeff=1):
        return CScalar(0, coeff)

    def __add__(self, other):
        other = CScalar.of(other)
        return _cnew(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return _cnew(-self.re, -self.im)

    def __sub__(self, other):
        other = CScalar.of(other)
        return _cnew(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return CScalar.of(other) + (-self)

    def __mul__(self, other):
        other = CScalar.of(other)
        ar, ai, br, bi = self.re, self.im, other.re, other.im
        if ai.is_zero():
            return _cnew(ar * br, ar * bi)
        if ar.is_zero():
            return _cnew(-(ai * bi), ai * br)
        return _cnew(ar * br - ai * bi, ar * bi + ai * br)

    __rmul__ = __mul__

    def conj(self):
        return _cnew(self.re, -self.im)

    def is_zero(self):
        return self.re.is_zero() and self.im.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        try:
            other = CScalar.of(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"CScalar({self.re.text()}, {self.im.text()})"


CZERO = CScalar(0)


def cmat(entries):
    """Build an exact matrix (tuple of tuples of CScalar) from a nested list."""
    return tuple(tuple(CScalar.of(x) for x in row) for row in entries)


def cmat_mul(A, B):
    """Exact matrix product; zero entries of A and B are skipped."""
    p = len(B[0])
    out = []
    for row in A:
        acc = [CZERO] * p
        for a, brow in zip(row, B):
            if a.is_zero():
                continue
            for j, b in enumerate(brow):
                if not b.is_zero():
                    acc[j] = acc[j] + a * b
        out.append(tuple(acc))
    return tuple(out)


def cmat_add(A, B):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(A, B))


def cmat_scale(c, A):
    c = CScalar.of(c)
    return tuple(tuple(c * x for x in row) for row in A)


def cmat_sub(A, B):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(A, B))


def cmat_commutator(A, B):
    return cmat_sub(cmat_mul(A, B), cmat_mul(B, A))

