"""Exact scalar arithmetic in the real quadratic field Q(sqrt2, sqrt3).

Every structure constant, bilinear-form entry and invariant-polynomial
coefficient appearing in the two SU(3) bases lives in Q(sqrt3); a handful of
root-vector normalizations additionally need sqrt2, so we work in the degree-4
extension Q(sqrt2, sqrt3) with basis (1, sqrt2, sqrt3, sqrt6).

An element is stored in its integral representation (Cohen, GTM 138, §4.2):
four integer numerators over one common denominator,

    (n0 + n1*sqrt2 + n2*sqrt3 + n3*sqrt6) / den,     den > 0,

reduced so that gcd(n0, n1, n2, n3, den) == 1; zero is (0, 0, 0, 0, 1).
The reduced form is unique, so equality reads the tuple, and a rational
hashes as Python hashes its value: as the equal int or Fraction.  An int
or Fraction operand, and each argument of the constructor, enters through
one coercion, ``_coerce`` (also ``Scalar.of``; ``is_exact`` names what it
accepts), on its integers.  So
every ring operation works on Python ints and ends with one gcd; no
``Fraction`` is built on the arithmetic path, hashing included.
Elimination has its own fused kernel, ``submul_ints``, on the ints.  The
rational coefficients a, b, c, d are available as read-only ``Fraction``
views.

Division is exact field division: the inverse is the conjugate product over
the rational field norm, both computed on the integer numerators.
"""

from __future__ import annotations

from fractions import Fraction
import math
from sys import hash_info as _HASH

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_SQRT6 = math.sqrt(6.0)

_gcd = math.gcd
_new = object.__new__
_ZERO_INTS = (0, 0, 0, 0, 1)


def _mul4(a0, a1, a2, a3, b0, b1, b2, b3):
    """Product of two numerator quadruples: s2*s3 = s6, s2*s6 = 2*s3, ..."""
    return (a0 * b0 + 2 * a1 * b1 + 3 * a2 * b2 + 6 * a3 * b3,
            a0 * b1 + a1 * b0 + 3 * (a2 * b3 + a3 * b2),
            a0 * b2 + a2 * b0 + 2 * (a1 * b3 + a3 * b1),
            a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1)


def _reduce(n0, n1, n2, n3, den):
    """The reduced ints of (n0 + n1 s2 + n2 s3 + n3 s6)/den, den > 0."""
    g = _gcd(n0, n1, n2, n3, den)
    if g == 1:
        return (n0, n1, n2, n3, den)
    return (n0 // g, n1 // g, n2 // g, n3 // g, den // g)


def _make(n0, n1, n2, n3, den):
    """The Scalar (n0 + n1 s2 + n2 s3 + n3 s6)/den for den > 0, reduced."""
    s = _new(Scalar)
    s.ints = _reduce(n0, n1, n2, n3, den)
    return s


def from_ints(ints):
    """The Scalar whose integral representation is the reduced ints."""
    s = _new(Scalar)
    s.ints = ints
    return s


def submul_ints(a, f, v):
    """The reduced ints of a - f*v, or of -f*v when a is None; a, f and v
    are reduced ints.  One product and one gcd, with no Scalar built."""
    f0, f1, f2, f3, fd = f
    v0, v1, v2, v3, vd = v
    if not (f1 or f2 or f3):
        p0, p1, p2, p3 = f0 * v0, f0 * v1, f0 * v2, f0 * v3
    elif not (v1 or v2 or v3):
        p0, p1, p2, p3 = v0 * f0, v0 * f1, v0 * f2, v0 * f3
    else:
        p0, p1, p2, p3 = _mul4(f0, f1, f2, f3, v0, v1, v2, v3)
    pd = fd * vd
    if a is None:
        return _reduce(-p0, -p1, -p2, -p3, pd)
    a0, a1, a2, a3, ad = a
    if ad == pd:
        return _reduce(a0 - p0, a1 - p1, a2 - p2, a3 - p3, ad)
    return _reduce(a0 * pd - p0 * ad, a1 * pd - p1 * ad,
                   a2 * pd - p2 * ad, a3 * pd - p3 * ad, ad * pd)


def _coerce(x):
    """x as a Scalar: a Scalar is itself, an int or a Fraction goes to
    _make on its integers; anything else raises TypeError."""
    if type(x) is Scalar:
        return x
    if isinstance(x, int):
        return _make(int(x), 0, 0, 0, 1)
    if isinstance(x, Fraction):
        return _make(x.numerator, 0, 0, 0, x.denominator)
    raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")


def is_exact(x):
    """Whether _coerce accepts x: a Scalar, an int or a Fraction."""
    return isinstance(x, (int, Fraction, Scalar))


# the reduced ints of -1, -sqrt2, -sqrt3 and -sqrt6: submul_ints(a, x, -u)
# is a + x u
_MINUS_UNITS = ((-1, 0, 0, 0, 1), (0, -1, 0, 0, 1), (0, 0, -1, 0, 1),
                (0, 0, 0, -1, 1))


class Scalar:
    """An element a + b*sqrt2 + c*sqrt3 + d*sqrt6 with a,b,c,d rational.

    ``ints`` is the reduced integral representation (n0, n1, n2, n3, den).
    """

    __slots__ = ("ints",)

    def __init__(self, a=0, b=0, c=0, d=0):
        """a + b sqrt2 + c sqrt3 + d sqrt6, for a, b, c, d that is_exact
        accepts (each through _coerce); anything else raises TypeError."""
        ints = None
        for x, unit in zip((a, b, c, d), _MINUS_UNITS):
            ints = submul_ints(ints, _coerce(x).ints, unit)
        self.ints = ints

    # -- constructors -----------------------------------------------------

    of = staticmethod(_coerce)

    @staticmethod
    def sqrt3(coeff=1):
        return Scalar(0, 0, coeff, 0)

    @staticmethod
    def sqrt2(coeff=1):
        return Scalar(0, coeff, 0, 0)

    @staticmethod
    def sqrt6(coeff=1):
        return Scalar(0, 0, 0, coeff)

    # -- rational views -----------------------------------------------------

    @property
    def a(self):
        return Fraction(self.ints[0], self.ints[4])

    @property
    def b(self):
        return Fraction(self.ints[1], self.ints[4])

    @property
    def c(self):
        return Fraction(self.ints[2], self.ints[4])

    @property
    def d(self):
        return Fraction(self.ints[3], self.ints[4])

    # -- field operations --------------------------------------------------

    def __add__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        b0, b1, b2, b3, bd = other.ints
        if not (b0 or b1 or b2 or b3):
            return self
        a0, a1, a2, a3, ad = self.ints
        if not (a0 or a1 or a2 or a3):
            return other
        if ad == bd:
            return _make(a0 + b0, a1 + b1, a2 + b2, a3 + b3, ad)
        return _make(a0 * bd + b0 * ad, a1 * bd + b1 * ad,
                     a2 * bd + b2 * ad, a3 * bd + b3 * ad, ad * bd)

    __radd__ = __add__

    def __neg__(self):
        a0, a1, a2, a3, ad = self.ints
        return from_ints((-a0, -a1, -a2, -a3, ad))

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
        a0, a1, a2, a3, ad = self.ints
        b0, b1, b2, b3, bd = other.ints
        if not (a1 or a2 or a3):
            if not a0:
                return self
            return _make(a0 * b0, a0 * b1, a0 * b2, a0 * b3, ad * bd)
        if not (b1 or b2 or b3):
            if not b0:
                return other
            return _make(b0 * a0, b0 * a1, b0 * a2, b0 * a3, ad * bd)
        return _make(*_mul4(a0, a1, a2, a3, b0, b1, b2, b3), ad * bd)

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse, via the conjugate product.

        With s(x) = a - b*sqrt2 + c*sqrt3 - d*sqrt6 and
        t(x) = a + b*sqrt2 - c*sqrt3 - d*sqrt6, the product
        x * s(x) * t(x) * s(t(x)) is the rational field norm.  On the
        numerators n of x = n/den this is an integer N, and
        1/x = den * s(n) t(n) st(n) / N.
        """
        if self.is_zero():
            raise ZeroDivisionError("Scalar division by zero")
        n0, n1, n2, n3, den = self.ints
        if not (n1 or n2 or n3):
            conj, norm = (1, 0, 0, 0), n0  # a rational n0/den: 1/x = den/n0
        else:
            conj = _mul4(n0, -n1, n2, -n3, n0, n1, -n2, -n3)
            conj = _mul4(*conj, n0, -n1, -n2, n3)
            norm = _mul4(n0, n1, n2, n3, *conj)[0]  # rational by construction
        if norm < 0:
            norm, den = -norm, -den
        return _make(den * conj[0], den * conj[1], den * conj[2],
                     den * conj[3], norm)

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
        _, n1, n2, n3, _ = self.ints
        return not (n1 or n2 or n3)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self.ints == other.ints

    def __hash__(self):
        n0, n1, n2, n3, den = self.ints
        if n1 or n2 or n3:
            return hash(self.ints)
        # Python's hash of the rational n0/den ("Hashing of numeric types")
        h = hash(hash(abs(n0)) * pow(den, -1, _HASH.modulus)
                 if den % _HASH.modulus else _HASH.inf)
        h = h if n0 >= 0 else -h
        return -2 if h == -1 else h

    def __float__(self):
        n0, n1, n2, n3, den = self.ints
        # each component rounded as float(Fraction(n_i, den)) would be
        return (n0 / den + n1 / den * _SQRT2
                + n2 / den * _SQRT3 + n3 / den * _SQRT6)

    # -- canonical text form -------------------------------------------------

    def text(self):
        """Canonical serialization, bit-exact round-trip via parse_scalar.

        Rational values print as "p/q"; values with irrational parts print
        as "(p/q)+(r/s)√3", extended with √2/√6 terms only when nonzero.
        """
        if self.is_rational():
            return str(self.a)
        parts = [f"({self.a})"]
        for coeff, tag in ((self.b, "√2"), (self.c, "√3"), (self.d, "√6")):
            if coeff:
                parts.append(f"({coeff}){tag}")
        return "+".join(parts)

    def __repr__(self):
        return f"Scalar({self.text()})"


def parse_scalar(s):
    """Inverse of Scalar.text()."""
    s = s.strip()
    if "(" not in s:
        return Scalar(Fraction(s))
    # '+' separates the "(p/q)" and "(r/s)tag" chunks, one per part;
    # coefficients may be negative
    parts = dict.fromkeys(("", "√2", "√3", "√6"), 0)
    for chunk in s.split("+"):
        coeff, tag = chunk.strip()[1:].split(")")
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

