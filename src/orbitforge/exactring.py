"""Exact moment algebra: Laurent polynomials in the stage moduli.

The circle construction places atom rings whose radii and directions involve
|e| and e^{1/s} of Gaussian-rational residuals e, which are not Gaussian
rationals themselves.  Instead of numerical radicals, each stage s has two
commuting symbols:

    R_s   the modulus of the stage-s residual (a positive real),
    E_s   the principal s-th root of the residual's direction,

related by E_s**s = resid_s * R_s**-1, where resid_s is the stage-s residual,
a polynomial in the moduli of earlier stages only.  Stage s adds
R_s * E_s**k * rho**(k-s) to moment k only for the multiples k = q*s, so the
relation is applied once, as a closed-form substitution: :func:`add_stage`
adds

    R_s**(1-q) * resid_s**q * rho**(k-s)

to moment k, and no power of E_s is ever formed.  E_s only enters as a float,
for the atom positions.  Every moment is then a Laurent polynomial in the
R_s, the measure's k-th moment minus the k-th target is the empty polynomial
and the total mass is one, so exactness is a syntactic fact checked by
normal-form comparison, not a float being small.

A polynomial is a dict mapping monomials to Gaussian-rational coefficients,
each a :class:`QI` held as ints (a, b, d) for (a + b*i)/d in a normal form
unique to its value; a monomial is a tuple of (stage, exponent) pairs sorted
by stage, with nonzero (possibly negative) exponents of the R_s.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DegenerateInputError


class QI:
    """Gaussian rational (a + b*i)/d as ints with d > 0 and gcd(a, b, d) == 1.

    That normal form is unique, so == compares the fields and zero is a == b
    == 0.  Input is read through ``Fraction`` (NaN and infinities refused);
    ``re``, ``im`` and :meth:`modulus_sq` are ``Fraction`` values.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if isinstance(re, complex):
            if im != 0:
                raise DegenerateInputError("complex input already carries both parts")
            re, im = re.real, re.imag
        try:
            re, im = Fraction(re), Fraction(im)
        except (ValueError, OverflowError) as exc:  # NaN, infinity, bad literal
            raise DegenerateInputError(f"not a finite rational: {exc}") from None
        # over the lcm of two reduced denominators no prime divides all three
        self.d = math.lcm(re.denominator, im.denominator)
        self.a = re.numerator * (self.d // re.denominator)
        self.b = im.numerator * (self.d // im.denominator)

    re = property(lambda self: Fraction(self.a, self.d))
    im = property(lambda self: Fraction(self.b, self.d))

    def __add__(self, other):
        other = _as_qi(other)
        a, b, d = self.a * other.d, self.b * other.d, self.d * other.d
        return _qi(a + other.a * self.d, b + other.b * self.d, d)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -_as_qi(other)

    def __rsub__(self, other):
        return _as_qi(other) - self

    def __mul__(self, other):
        other = _as_qi(other)
        a, b, c, e = self.a, self.b, other.a, other.b
        return _qi(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c^2 + e^2))
        other = _as_qi(other)
        a, b, c, e, f = self.a, self.b, other.a, other.b, other.d
        if c == 0 and e == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _qi((a * c + b * e) * f, (b * c - a * e) * f, self.d * (c * c + e * e))

    def __neg__(self):
        return _qi(-self.a, -self.b, self.d)

    def __eq__(self, other):
        try:
            other = _as_qi(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def modulus_sq(self):
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def to_complex(self):
        # int / int rounds correctly, as float(Fraction) does; + 0.0 turns a tiny
        # negative imaginary part's -0.0 into complex(Fraction, Fraction)'s 0.0
        return complex(self.a / self.d, self.b / self.d + 0.0)

    __complex__ = to_complex

    def __repr__(self):
        return f"QI({self.re}, {self.im})"


def _qi(a, b, d):
    """The QI (a + b*i)/d for ints a, b and d > 0, in normal form."""
    g = math.gcd(a, b, d)
    q = object.__new__(QI)
    q.a, q.b, q.d = a // g, b // g, d // g
    return q


def _as_qi(x):
    if isinstance(x, QI):
        return x
    if isinstance(x, complex):
        return QI(x.real, x.imag)
    return QI(x)


QI_ONE = QI(1)

EMPTY_MONOMIAL = ()


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    out = dict(m1)
    for sym, e in m2:
        new = out.get(sym, 0) + e
        if new:
            out[sym] = new
        else:
            out.pop(sym, None)
    return tuple(sorted(out.items()))


def _accumulate(out, mono, coeff):
    """out[mono] += coeff, storing coeff itself for a new monomial and
    dropping the monomial when the sum is zero."""
    old = out.get(mono)
    if old is None:
        if coeff:
            out[mono] = coeff
        return
    new = old + coeff
    if new:
        out[mono] = new
    else:
        del out[mono]


def minus(p, q):
    """The polynomial p - q."""
    out = dict(p)
    for mono, coeff in q.items():
        _accumulate(out, mono, -coeff)
    return out


def add_stage(moments, s, resid, rho):
    """Add stage s to the moment polynomials: R_s**(1-q) * resid**q *
    rho**(k-s) to ``moments[k - 1]`` for each multiple k = q*s, where resid,
    the stage-s residual, involves the moduli of earlier stages only and rho
    is a Fraction.  resid**q takes one more product per multiple."""
    power = {EMPTY_MONOMIAL: QI_ONE}
    for q, k in enumerate(range(s, len(moments) + 1, s), start=1):
        nxt = {}
        for m1, c1 in power.items():
            for m2, c2 in resid.items():
                _accumulate(nxt, _mono_mul(m1, m2), c1 * c2)
        power = nxt
        modulus = ((s, 1 - q),) if q > 1 else EMPTY_MONOMIAL
        scale = QI(rho ** (k - s))
        for mono, coeff in power.items():
            _accumulate(moments[k - 1], _mono_mul(modulus, mono), coeff * scale)


def evaluate(p, moduli):
    """Numeric mirror of p: ``moduli`` maps stage s to the float value of R_s."""
    total = 0j
    for mono, coeff in p.items():
        term = coeff.to_complex()
        for s, e in mono:
            term *= moduli[s] ** e
        total += term
    return total
