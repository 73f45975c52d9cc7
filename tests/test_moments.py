import cmath
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitforge.errors import (
    DegenerateInputError,
    DomainError,
    ResolutionError,
)
from orbitforge import exactring, moments
from orbitforge.exactring import QI, Ring
from orbitforge.moments import (
    AtomicMeasure,
    admissible_radius,
    admissible_radius_exact,
    circle_moment_match,
    poisson_atoms,
    power_profile_measure,
)


# -- admissible radius ----------------------------------------------------


def test_radius_rho_one_closed_form():
    # b_k = 2 b_{k-1} + 1 with b_1 = 1 telescopes to 2^k - 1
    for n in range(1, 9):
        assert admissible_radius_exact(1, n) == Fraction(1, 2 ** n - 1)


def test_radius_frozen_values():
    # hand-computed from the recurrence
    assert admissible_radius_exact(2, 1) == Fraction(2)
    assert admissible_radius_exact(2, 2) == Fraction(4, 5)
    assert admissible_radius_exact(Fraction(1, 2), 2) == Fraction(1, 8)
    assert admissible_radius_exact(Fraction(1, 2), 3) == Fraction(1, 24)
    assert admissible_radius(1, 3) == pytest.approx(1 / 7)


def test_radius_validation():
    with pytest.raises(DegenerateInputError):
        admissible_radius_exact(1, 0)
    with pytest.raises(DegenerateInputError):
        admissible_radius_exact(0, 3)


# -- root-of-unity collapse (the identity the exact ring leans on) --------


def test_gadget_orthogonality_identity():
    for s in range(1, 9):
        for k in range(1, 9):
            total = sum(cmath.exp(2j * cmath.pi * j * k / s) for j in range(1, s + 1))
            want = s if k % s == 0 else 0.0
            assert abs(total - want) < 1e-10


# -- float mode -----------------------------------------------------------


def random_targets(rng, n, rho):
    r = admissible_radius(rho, n)
    mags = r * rng.random(n)
    args = 2 * np.pi * rng.random(n)
    return mags * np.exp(1j * args)


@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [1, 3, 6])
def test_float_match_hits_targets(rho, n):
    rng = np.random.default_rng(n * 10 + int(rho * 2))
    for _ in range(10):
        eps = random_targets(rng, n, rho)
        res = circle_moment_match(eps, rho=rho)
        assert np.max(np.abs(res.residuals)) < 1e-12
        assert abs(res.mass_defect) < 1e-12
        np.testing.assert_allclose(np.abs(res.measure.positions), rho, atol=1e-12)
        assert np.all(res.measure.weights > 0)


def test_zero_targets_give_pure_padding():
    res = circle_moment_match([0, 0, 0])
    assert res.stages == []
    assert len(res.measure.weights) == 4  # (n+1)-th roots only
    np.testing.assert_allclose(res.measure.weights, 0.25)
    assert np.max(np.abs(res.residuals)) < 1e-15


def test_single_stage_structure():
    res = circle_moment_match([0.5])
    # one stage-1 atom plus two padding atoms
    assert res.stages == [1]
    assert len(res.measure.weights) == 3
    assert res.measure.moment(1) == pytest.approx(0.5, abs=1e-15)


def test_stage_skipping_keeps_later_stages():
    # moment 1 already zero, moment 2 needs work
    res = circle_moment_match([0.0, 0.1])
    assert res.stages == [2]


def test_domain_error_reports_radius():
    r = admissible_radius(1.0, 4)
    with pytest.raises(DomainError) as exc:
        circle_moment_match([0, 0, 0, 2 * r])
    assert exc.value.admissible_radius == pytest.approx(r)


finite_small = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@given(st.lists(st.builds(complex, finite_small, finite_small), min_size=1, max_size=6))
@settings(max_examples=60)
def test_float_match_random_targets(raw):
    n = len(raw)
    r = admissible_radius(1.0, n)
    eps = [r * z / (abs(z) + 1.0) for z in raw]  # scaled strictly inside
    res = circle_moment_match(eps)
    assert np.max(np.abs(res.residuals)) < 1e-12
    assert abs(res.mass_defect) < 1e-12


# -- exact mode -----------------------------------------------------------


def test_exact_mode_syntactic_zero():
    rng = np.random.default_rng(7)
    for rho in (Fraction(1, 2), 1, 2):
        n = 6
        r = admissible_radius_exact(rho, n)
        eps = [
            QI(
                Fraction(int(rng.integers(-99, 100)), 401) * r,
                Fraction(int(rng.integers(-99, 100)), 401) * r,
            )
            for _ in range(n)
        ]
        res = circle_moment_match(eps, rho=rho, mode="exact")
        assert res.exact_certificate["moment_defects_zero"]
        assert res.exact_certificate["mass_defect_zero"]
        # the float mirror of the exact atoms still lands on the targets
        assert np.max(np.abs(res.residuals)) < 1e-10
        assert abs(res.mass_defect) < 1e-10


def test_exact_mode_boundary_is_admissible():
    # |eps_1| = r exactly must pass, the next rational step must fail
    r = admissible_radius_exact(1, 3)
    res = circle_moment_match([QI(r), QI(0), QI(0)], mode="exact")
    assert res.exact_certificate["moment_defects_zero"]
    with pytest.raises(DomainError):
        circle_moment_match([QI(r + Fraction(1, 10 ** 12)), QI(0), QI(0)], mode="exact")


def test_exact_mode_accepts_float_and_fraction_targets():
    res = circle_moment_match([0.125, Fraction(1, 16)], rho=1, mode="exact")
    assert res.exact_certificate["moment_defects_zero"]


def test_exact_single_full_weight():
    # eps = (1,) at rho = 1 forces a single unit atom at 1
    res = circle_moment_match([1], mode="exact")
    assert len(res.measure.weights) == 1
    assert res.measure.positions[0] == pytest.approx(1.0)
    assert res.measure.weights[0] == pytest.approx(1.0)


def test_mode_validation():
    with pytest.raises(DegenerateInputError):
        circle_moment_match([0.1], mode="symbolic")
    with pytest.raises(DegenerateInputError):
        circle_moment_match([])


# -- exact ring internals ---------------------------------------------------


def test_qi_field_arithmetic():
    a = QI(Fraction(1, 3), Fraction(1, 2))
    b = QI(2, -1)
    assert (a * b) / b == a
    assert a + b - b == a
    assert QI(1) / QI(0, 1) == QI(0, -1)  # 1/i = -i
    assert complex(QI(Fraction(1, 4), 1)) == 0.25 + 1j


def test_ring_rewrite_rule():
    ring = Ring()
    resid = ring.const(QI(Fraction(3, 7), Fraction(-2, 7)))
    ring.store_residual(2, resid)
    # R_2 * E_2^2 -> residual
    elem = ring.symbol("R", 2) * ring.symbol("E", 2, 2)
    assert elem == resid
    # R_2 * E_2^4 -> residual^2 * R_2^-1
    elem4 = ring.symbol("R", 2) * ring.symbol("E", 2, 4)
    want = resid * resid * ring.symbol("R", 2, -1)
    assert elem4 == want


def test_ring_mirror_evaluation():
    ring = Ring()
    resid = ring.const(QI(Fraction(1, 2), Fraction(1, 2)))
    ring.store_residual(3, resid)
    mirror = complex(Fraction(1, 2), Fraction(1, 2))
    val = {("R", 3): abs(mirror), ("E", 3): cmath.exp(1j * cmath.phase(mirror) / 3)}
    got = (ring.symbol("R", 3) * ring.symbol("E", 3, 3)).evaluate(val)
    assert got == pytest.approx(mirror, abs=1e-14)


# -- QI against the two-Fraction reference ------------------------------------


class FractionQI:
    """Reference: the Gaussian rational as two Fractions, one per part."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, complex):
            if im != 0:
                raise DegenerateInputError("complex input already carries both parts")
            re, im = re.real, re.imag
        try:
            self.re = Fraction(re)
            self.im = Fraction(im)
        except (ValueError, OverflowError) as exc:
            raise DegenerateInputError(f"not a finite rational: {exc}") from None

    def __add__(self, other):
        other = _as_reference(other)
        return FractionQI(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_reference(other)
        return FractionQI(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _as_reference(other) - self

    def __mul__(self, other):
        other = _as_reference(other)
        return FractionQI(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_reference(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return FractionQI(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __neg__(self):
        return FractionQI(-self.re, -self.im)

    def __eq__(self, other):
        try:
            other = _as_reference(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def modulus_sq(self):
        return self.re * self.re + self.im * self.im

    def to_complex(self):
        return complex(self.re, self.im)

    __complex__ = to_complex

    def __repr__(self):
        return f"QI({self.re}, {self.im})"


def _as_reference(x):
    if isinstance(x, FractionQI):
        return x
    if isinstance(x, complex):
        return FractionQI(x.real, x.imag)
    return FractionQI(x)


def _complex_bits(q):
    try:
        z = q.to_complex()
    except OverflowError:
        return "overflow"
    return struct.pack("<dd", z.real, z.imag)


# zero, negatives, shared and coprime denominators, and a huge one whose
# parts round to subnormals and signed zeros
gaussian_parts = st.tuples(
    st.integers(-10 ** 6, 10 ** 6) | st.just(0),
    st.sampled_from([1, 2, 3, 4, 6, 7, 12, 35, 401, 2 ** 61 - 1, 10 ** 330]),
)


@given(st.lists(gaussian_parts, min_size=4, max_size=4))
@settings(max_examples=400, deadline=None)
def test_qi_agrees_with_the_two_fraction_reference(parts):
    (a, p), (b, q), (c, r), (e, t) = parts
    x, y = QI(Fraction(a, p), Fraction(b, q)), QI(Fraction(c, r), Fraction(e, t))
    rx, ry = FractionQI(Fraction(a, p), Fraction(b, q)), FractionQI(Fraction(c, r), Fraction(e, t))
    pairs = [(x, rx), (y, ry), (x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry), (-x, -rx)]
    if ry:
        pairs.append((x / y, rx / ry))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    for z, rz in pairs:
        assert (z.re, z.im) == (rz.re, rz.im)
        assert bool(z) == bool(rz)
        assert z.modulus_sq() == rz.modulus_sq()
        assert repr(z) == repr(rz)
        assert _complex_bits(z) == _complex_bits(rz)
        assert z.d > 0 and math.gcd(z.a, z.b, z.d) == 1
    assert (x == y) == (rx == ry)
    # one value reached two ways: the normal form, and so the hash, agree
    twin = QI(Fraction(a * 6, p * 6), Fraction(b, q)) + y - y
    assert twin == x and hash(twin) == hash(x)
    with pytest.MonkeyPatch.context() as mp:
        made = []
        new = Fraction.__new__
        mp.setattr(Fraction, "__new__", lambda cls, *args, **kw: made.append(args) or new(cls, *args, **kw))
        x + y, x * y
    assert made == []


def _exact_atoms(qi):
    """60 seeded exact matches with targets drawn as in acceptance criterion 1."""
    rng = np.random.default_rng(13)
    out = []
    for i in range(60):
        n, rho = 1 + i % 6, (Fraction(1, 2), Fraction(1), Fraction(2))[(i // 6) % 3]
        r = admissible_radius_exact(rho, n)
        targets = [
            qi(Fraction(int(rng.integers(-99, 100)), 401) * r, Fraction(int(rng.integers(-99, 100)), 401) * r)
            for _ in range(n)
        ]
        res = circle_moment_match(targets, rho=rho, mode="exact")
        out.append((res.measure.positions.tobytes(), res.measure.weights.tobytes()))
    return out


def test_exact_matches_are_bit_identical_to_the_fraction_reference(monkeypatch):
    atoms = _exact_atoms(QI)
    for module in (exactring, moments):
        monkeypatch.setattr(module, "QI", FractionQI)
    monkeypatch.setattr(exactring, "QI_ZERO", FractionQI(0))
    monkeypatch.setattr(exactring, "QI_ONE", FractionQI(1))
    assert _exact_atoms(FractionQI) == atoms


# -- harmonic measure route -------------------------------------------------


def test_poisson_atoms_mass_and_moments():
    mu = poisson_atoms(0.4 + 0.1j, rho=1.0, m=256)
    assert mu.mass() == pytest.approx(1.0, abs=1e-14)
    for k in range(1, 5):
        assert mu.moment(k) == pytest.approx((0.4 + 0.1j) ** k, abs=1e-9)


def test_poisson_requires_interior_point():
    with pytest.raises(DomainError):
        poisson_atoms(1.0, rho=1.0)


def test_power_profile_measure_meets_tolerance():
    res = power_profile_measure(0.5j, n=4, tol=1e-12)
    assert np.max(np.abs(res.residuals)) <= 1e-12
    assert res.mode == "poisson"


def test_power_profile_resolution_refusal():
    with pytest.raises(ResolutionError):
        power_profile_measure(0.99, n=3, tol=1e-14, max_nodes=64)


def test_measure_json_round_trip():
    mu = poisson_atoms(0.2, m=8)
    clone = AtomicMeasure.from_json(mu.to_json())
    np.testing.assert_allclose(clone.positions, mu.positions)
    np.testing.assert_allclose(clone.weights, mu.weights)
