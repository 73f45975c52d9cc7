"""A small formal ring that makes moment matching exactly verifiable.

The circle construction places atom rings whose radii and directions involve
|e| and e^{1/s} of Gaussian-rational residuals e, which are not Gaussian
rationals themselves.  Instead of numerical radicals, each stage s introduces
two commuting symbols:

    R_s   the modulus of the stage-s residual (a positive real),
    E_s   the principal s-th root of the residual's direction,

subject to the single rewrite rule

    E_s**s  ->  residual_s * R_s**-1

where residual_s is the stored stage-s residual, an element built from
symbols of earlier stages only.  Under that rule the measure's k-th moment
minus the k-th target reduces to the literal zero element, and the total mass
to the literal one, so exactness is a syntactic fact checked by normal-form
comparison, not a float being small.

Elements are dicts mapping monomials to Gaussian-rational coefficients, each
a :class:`QI` held as ints (a, b, d) for (a + b*i)/d in a normal form unique
to its value; monomials map symbols to integer exponents (R_s exponents may be
negative, E_s exponents stay in 0..s-1 after reduction).  Rewriting
terminates because each application strictly lowers the E_s exponent and only
introduces symbols of smaller stage index.
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

# monomial: tuple of ((kind, stage), exponent), sorted by symbol
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


class Ring:
    """Carrier for the per-stage residual elements the rewrite rule needs."""

    def __init__(self):
        self.residuals = {}

    def store_residual(self, stage, element):
        if stage in self.residuals:
            raise DegenerateInputError(f"stage {stage} residual already stored")
        self.residuals[stage] = element

    # -- element construction -------------------------------------------

    def zero(self):
        return RingElement(self, {})

    def const(self, value):
        value = _as_qi(value)
        return RingElement(self, {EMPTY_MONOMIAL: value} if value else {})

    def symbol(self, kind, stage, exponent=1):
        if kind not in ("R", "E"):
            raise DegenerateInputError(f"unknown symbol kind {kind!r}")
        exponent = int(exponent)
        if exponent == 0:
            return self.const(1)
        if kind == "E" and exponent < 0:
            raise DegenerateInputError("direction symbols only carry positive powers")
        mono = (((kind, int(stage)), exponent),)
        return RingElement(self, {mono: QI_ONE})._reduced()

    # -- rewriting --------------------------------------------------------

    def _reduce_term(self, mono, coeff, out):
        """Accumulate the normal form of coeff*mono into the dict out."""
        for (kind, stage), e in mono:
            if kind == "E" and e >= stage:
                q, rem = divmod(e, stage)
                rest = dict(mono)
                if rem:
                    rest[("E", stage)] = rem
                else:
                    del rest[("E", stage)]
                r_exp = rest.get(("R", stage), 0) - q
                if r_exp:
                    rest[("R", stage)] = r_exp
                else:
                    rest.pop(("R", stage), None)
                rest = tuple(sorted(rest.items()))
                residual = self.residuals.get(stage)
                if residual is None:
                    raise DegenerateInputError(
                        f"no stored residual for stage {stage}; cannot rewrite E_{stage}^{e}"
                    )
                power = residual._pow_raw(q)
                for m2, c2 in power.items():
                    self._reduce_term(_mono_mul(rest, m2), coeff * c2, out)
                return
        _accumulate(out, mono, coeff)


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


class RingElement:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def _reduced(self):
        out = {}
        for mono, coeff in self.terms.items():
            self.ring._reduce_term(mono, coeff, out)
        return RingElement(self.ring, out)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, RingElement):
            return self.ring is other.ring and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            _accumulate(out, mono, coeff)
        return RingElement(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return RingElement(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def _pow_raw(self, q):
        """terms of self**q without re-wrapping (q >= 0)."""
        result = {EMPTY_MONOMIAL: QI_ONE}
        for _ in range(q):
            nxt = {}
            for m1, c1 in result.items():
                for m2, c2 in self.terms.items():
                    _accumulate(nxt, _mono_mul(m1, m2), c1 * c2)
            result = nxt
        return result

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                self.ring._reduce_term(_mono_mul(m1, m2), c1 * c2, out)
        return RingElement(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, q):
        q = int(q)
        if q < 0:
            raise DegenerateInputError("negative element powers are not defined")
        out = self.ring.const(1)
        for _ in range(q):
            out = out * self
        return out

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring is not self.ring:
                raise DegenerateInputError("elements belong to different rings")
            return other
        return self.ring.const(other)

    def evaluate(self, valuation):
        """Numeric mirror: valuation maps (kind, stage) to a complex value."""
        total = 0j
        for mono, coeff in self.terms.items():
            term = coeff.to_complex()
            for sym, e in mono:
                term *= valuation[sym] ** e
            total += term
        return total

    def __repr__(self):
        if not self.terms:
            return "RingElement(0)"
        parts = []
        for mono, coeff in sorted(self.terms.items()):
            if mono:
                syms = "*".join(
                    f"{kind}_{stage}^{e}" if e != 1 else f"{kind}_{stage}"
                    for (kind, stage), e in mono
                )
                parts.append(f"({coeff.re}+{coeff.im}i)*{syms}")
            else:
                parts.append(f"({coeff.re}+{coeff.im}i)")
        return "RingElement(" + " + ".join(parts) + ")"
