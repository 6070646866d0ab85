"""Sparse multivariate polynomials over Q(sqrt3).

Polynomials carry an ordered variable tuple (coordinate functions bound to a
Lie algebra basis, slice coordinates, or the formal magnetic parameter "eps")
and a term map {exponent tuple: Scalar}.  Monomial order is graded
lexicographic in the fixed variable order, which gives deterministic normal
forms for the exact-match tests.

A term map holds tuple exponents, each of the variable tuple's length, and
no zero coefficient.  The public constructor ``Polynomial(vars, terms)``
checks and cleans any map it is given; the ring operations (``+``, ``-``,
the product of two polynomials, ``diff``, ``extend`` and ``substitute``
through them) build maps that already hold, and hand them to the new
object through one private constructor, ``_from_terms``, unchecked.  No
code outside this module calls it.  A term map keeps the order in which
its operation inserted the terms, and float evaluation (``evaluate_stack``,
``gradient``) sums in that order, so the order is part of the result.
The degree is memoized: a constant records 0, a sum of two recorded degrees
that differ the larger, a product of two nonzero factors the sum of their
degrees (exact, as Q(sqrt3)[x] is an integral domain).

The module also provides the Lie-Poisson bracket

    {p, q} = sum_{i,j,k}  C_ij^k x_k (dp/dx_i)(dq/dx_j)

and B-gradients dp_X(V) = B(grad p(X), V) used throughout.
"""

from __future__ import annotations

from operator import add

import numpy as np

from .scalars import Scalar, is_exact, parse_scalar

DEGREE_CAP = 8

_OVERFLOW = "polynomial value overflows at a finite point"


class DegreeCapError(ValueError):
    """Raised when a symbolic operation would exceed the degree cap."""


class Polynomial:
    __slots__ = ("vars", "terms", "_floats", "_grad", "_hash", "_degree")

    def __init__(self, variables, terms=None):
        self.vars = tuple(variables)
        cleaned = {}
        if terms:
            for expo, coeff in terms.items():
                coeff = Scalar.of(coeff)
                if coeff.is_zero():
                    continue
                if len(expo) != len(self.vars):
                    raise ValueError("exponent length does not match variables")
                cleaned[tuple(expo)] = coeff
        self.terms = cleaned
        self._floats = None
        self._grad = None
        self._hash = None
        self._degree = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(variables):
        return Polynomial.const(variables, 0)

    @staticmethod
    def const(variables, c):
        variables, c = tuple(variables), Scalar.of(c)
        return _from_terms(variables, {(0,) * len(variables): c} if c else {},
                           0)

    @staticmethod
    def var(variables, name, coeff=1):
        variables = tuple(variables)
        i = variables.index(name)
        expo = [0] * len(variables)
        expo[i] = 1
        return Polynomial(variables, {tuple(expo): Scalar.of(coeff)})

    # -- ring operations ----------------------------------------------------

    def _check_compatible(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if type(other) is not Polynomial:
            if not is_exact(other):
                return NotImplemented
            other = Polynomial.const(self.vars, other)
        self._check_compatible(other)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            acc = terms.get(expo)
            coeff = coeff if acc is None else acc + coeff
            if coeff.is_zero():
                terms.pop(expo, None)
            else:
                terms[expo] = coeff
        d1, d2 = self._degree, other._degree  # unequal: no top cancels
        return _from_terms(self.vars, terms, max(d1, d2) if d1 != d2
                           and None not in (d1, d2) else None)

    __radd__ = __add__

    def __neg__(self):
        return _from_terms(self.vars, {e: -c for e, c in self.terms.items()},
                           self._degree)

    def __sub__(self, other):
        if type(other) is not Polynomial and not is_exact(other):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not is_exact(other):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Polynomial:
            if not is_exact(other):
                return NotImplemented
            c = Scalar.of(other)
            return Polynomial(self.vars,
                              {e: c * v for e, v in self.terms.items()})
        self._check_compatible(other)
        degree = self.degree() + other.degree()
        if degree > DEGREE_CAP:
            raise DegreeCapError(
                f"product degree {degree} exceeds cap {DEGREE_CAP}")
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                acc = terms.get(e)
                c = c if acc is None else acc + c
                if c.is_zero():
                    terms.pop(e, None)
                else:
                    terms[e] = c
        return _from_terms(self.vars, terms, degree if terms else 0)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = Polynomial.const(self.vars, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vars, frozenset(self.terms.items())))
        return self._hash

    def is_zero(self):
        return not self.terms

    # -- calculus -----------------------------------------------------------

    def degree(self):
        if self._degree is None:
            self._degree = max(map(sum, self.terms), default=0)
        return self._degree

    def diff(self, name):
        i = self.vars.index(name)
        terms = {}
        for expo, coeff in self.terms.items():
            k = expo[i]
            if k == 0:
                continue
            e = list(expo)
            e[i] = k - 1
            terms[tuple(e)] = coeff * k
        return _from_terms(self.vars, terms)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, point):
        """Exact evaluation at a point of exact values (a Scalar); at any
        other point the float value, a Python float, which is the one
        row of evaluate_stack."""
        if len(point) != len(self.vars):
            raise ValueError("point length does not match variables")
        if all(map(is_exact, point)):
            pt = [Scalar.of(x) for x in point]
            out = Scalar(0)
            for expo, coeff in self.terms.items():
                term = coeff
                for x, k in zip(pt, expo):
                    if k:
                        term = term * x ** k
                out = out + term
            return out
        return float(self.evaluate_stack([[float(x) for x in point]])[0])

    def evaluate_stack(self, points):
        """Float values at each row of a (points, vars) array: the terms
        in ``terms`` order, each a product of its float coefficient and
        np.float_power of the variables, which rounds as Python's
        ``x ** k`` does (np.power does not).  A value that overflows at
        a finite point raises OverflowError.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != len(self.vars):
            raise ValueError("points must be rows of one value per variable")
        n = len(points)
        out = np.zeros(n)
        with np.errstate(over="ignore", invalid="ignore"):
            for coeff, powers in self._float_form():
                term = np.full(n, coeff)
                for i, k in powers:
                    term = term * np.float_power(points[:, i], k)
                out = out + term
        if np.any(~np.isfinite(out) & np.isfinite(points).all(axis=1)):
            raise OverflowError(_OVERFLOW)
        return out

    def _float_form(self):
        """(float coefficient, ((variable index, exponent), ...)) per term,
        in ``terms`` order, zero exponents left out; built on first use."""
        if self._floats is None:
            self._floats = [(float(coeff),
                             tuple((i, k) for i, k in enumerate(expo) if k))
                            for expo, coeff in self.terms.items()]
        return self._floats

    def gradient(self, point):
        """Float partial derivatives at a point, one per variable, or row
        by row at a (points, vars) stack, in one pass: the distinct
        monomials of the partials are evaluated once per row and combined
        with their coefficients by one matmul (the array form of
        _gradient_form), which keeps row k bit for bit the gradient at
        point k.  As evaluate_stack does, a value that overflows at a
        finite point raises OverflowError."""
        coeffs, factors = self._gradient_form()
        point = np.asarray(point, dtype=float)
        # one column per point, so that a factor row gathers by one index
        x = np.concatenate((point, np.ones(point.shape[:-1] + (1,))),
                           axis=-1).T
        with np.errstate(over="ignore", invalid="ignore"):
            monos = x[factors[0]]
            for idx in factors[1:]:
                monos = monos * x[idx]
            monos = np.ascontiguousarray(monos.T)
            grad = np.matmul(coeffs, monos[..., None])[..., 0]
        if not np.isfinite(grad).all() and np.any(
                ~np.isfinite(grad).all(axis=-1)
                & np.isfinite(point).all(axis=-1)):
            raise OverflowError(_OVERFLOW)
        return grad

    def _gradient_form(self):
        """(coefficients, factors) of the partials, built on first use:
        partial i is sum_u coefficients[i, u] m_u over the distinct
        monomials m_u of the partials, and m_u is the product over rows
        f of factors of the point's entry at f[u]: one variable index
        per degree, padded with the index just past the variables, which
        reads 1."""
        if self._grad is None:
            monos = {}
            entries = []
            for expo, coeff in self.terms.items():
                for i, k in enumerate(expo):
                    if k:
                        mono = expo[:i] + (k - 1,) + expo[i + 1:]
                        entries.append((i, monos.setdefault(mono, len(monos)),
                                        float(coeff * k)))
            coeffs = np.zeros((len(self.vars), len(monos)))
            for i, u, c in entries:
                coeffs[i, u] = c
            width = max([1] + [sum(m) for m in monos])
            factors = np.full((width, len(monos)), len(self.vars))
            for u, mono in enumerate(monos):
                idx = [i for i, k in enumerate(mono) for _ in range(k)]
                factors[:len(idx), u] = idx
            self._grad = (coeffs, factors)
        return self._grad

    def substitute(self, target_vars, images):
        """Substitute each variable by its image over target_vars."""
        if len(images) != len(self.vars):
            raise ValueError(f"{len(images)} images for {len(self.vars)} vars")
        target_vars = tuple(target_vars)
        out = Polynomial.zero(target_vars)
        for expo, coeff in self.terms.items():
            term = Polynomial.const(target_vars, coeff)
            for img, k in zip(images, expo):
                for _ in range(k):
                    term = term * img
            out = out + term
        return out

    def extend(self, variables):
        """View this polynomial in a larger variable tuple (superset)."""
        variables = tuple(variables)
        idx = [variables.index(v) for v in self.vars]
        terms = {}
        for expo, coeff in self.terms.items():
            e = [0] * len(variables)
            for j, k in zip(idx, expo):
                e[j] = k
            terms[tuple(e)] = coeff
        return _from_terms(variables, terms, self._degree)

    # -- ordering and text ----------------------------------------------------

    def _sorted_terms(self):
        # graded lexicographic: by total degree, then lexicographic on expo
        return sorted(self.terms.items(),
                      key=lambda item: (sum(item[0]), item[0]), reverse=True)

    def text(self):
        if not self.terms:
            return "0"
        chunks = []
        for expo, coeff in self._sorted_terms():
            factors = [coeff.text()]
            for name, k in zip(self.vars, expo):
                if k:
                    factors.append(f"{name}^{k}")
            chunks.append(" * ".join(factors))
        return " + ".join(chunks)

    def __repr__(self):
        return f"Polynomial[{','.join(self.vars)}]({self.text()})"


_new = object.__new__


def _from_terms(variables, terms, degree=None):
    """The Polynomial over the variable tuple with the term map terms,
    taken as it is: tuple exponents of len(variables), no zero
    coefficient.  degree, when given, is the exact degree."""
    p = _new(Polynomial)
    p.vars = variables
    p.terms = terms
    p._floats = p._grad = p._hash = None
    p._degree = degree
    return p


def parse_polynomial(text, variables):
    """Inverse of Polynomial.text() for the canonical form."""
    variables = tuple(variables)
    text = text.strip()
    if text == "0":
        return Polynomial.zero(variables)
    out = Polynomial.zero(variables)
    for chunk in text.split(" + "):
        factors = chunk.split(" * ")
        coeff = parse_scalar(factors[0])
        expo = [0] * len(variables)
        for f in factors[1:]:
            name, k = f.split("^")
            expo[variables.index(name)] = int(k)
        out = out + Polynomial(variables, {tuple(expo): coeff})
    return out


def lie_poisson_bracket(p, q, alg):
    """Lie-Poisson bracket of p, q in the coordinates of algebra ``alg``.

    {p,q} = sum C_ij^k x_k dp/dx_i dq/dx_j = B(x, [grad p, grad q]),
    computed exactly: the B-gradients bracketed by the algebra's one exact
    contraction (LieAlgebraSpec.bracket_coords).  Variables of p and q
    must both equal alg.coord_names.
    """
    names = alg.coord_names
    comm = alg.bracket_coords(b_gradient(p, alg), b_gradient(q, alg))
    # B(x, comm) = sum_k x_k comm_k: the basis is B-orthonormal
    out = Polynomial.zero(names)
    for name, c in zip(names, comm):
        if not c.is_zero():
            out = out + Polynomial.var(names, name) * c
    return out


def b_gradient(p, alg):
    """B-gradient of p: the list V of polynomials, one per basis
    direction, with dp_X(W) = B(V(X), W)."""
    names = alg.coord_names
    if p.vars != names:
        raise ValueError("polynomial is not over the algebra coordinates")
    # the basis is B-orthonormal (LieAlgebraSpec checks it), so the
    # B-gradient is the vector of partials
    return [p.diff(v) for v in names]
