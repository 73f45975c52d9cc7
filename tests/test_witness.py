import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitforge.errors import (
    DegenerateInputError,
    NumericalError,
    PreconditionError,
    ResolutionError,
    UnsupportedModelError,
    WindowBudgetError,
)
from orbitforge.moments import admissible_radius
from orbitforge.operators import (
    BilateralShift,
    ConstantWeights,
    DenseOperator,
    DiagonalUnitary,
    MultiplicationGrid,
    OperatorPower,
    QuadraticIrrationalRotation,
    UnilateralShift,
)
from orbitforge import witness
from orbitforge.harness import build_model
from orbitforge.nrange import we_membership_witness
from orbitforge.vectors import WindowVector, add_scaled, inner, normalize
from orbitforge.witness import (
    almost_orthogonal_orbit,
    rokhlin_tower,
    rotation_tower,
    zero_iteration_step,
    zero_tuple_vector,
)


def shift_tuple(n):
    s = BilateralShift()
    return tuple(s if p == 1 else OperatorPower(s, p) for p in range(1, n + 1))


def raw_forms(base, x, powers):
    out = []
    for p in powers:
        y = x
        for _ in range(p):
            y = base.apply(y)
        out.append(inner(y, x))
    return np.array(out)


# -- zeroing ladder -----------------------------------------------------------


def test_step_from_zero_vector_gives_half_norm():
    ops = shift_tuple(4)
    x1 = zero_iteration_step(ops, WindowVector.zero(), 0)
    assert x1.norm() ** 2 == pytest.approx(0.5, abs=1e-12)
    forms = raw_forms(BilateralShift(), x1, range(1, 5))
    assert np.max(np.abs(forms)) <= 1e-10


def test_ten_stages_follow_the_norm_ladder():
    ops = shift_tuple(4)
    x = WindowVector.zero()
    for k in range(10):
        x = zero_iteration_step(ops, x, k)
        assert abs(x.norm() ** 2 - (1.0 - 2.0 ** (-k - 1))) <= 1e-10
    w = normalize(x)
    assert np.max(np.abs(raw_forms(BilateralShift(), w, range(1, 5)))) <= 1e-8
    # distance from the zero start obeys the tail bound at k = 0
    assert (w - WindowVector.zero()).norm() <= 3.0 * 2.0 ** (-0.5)


def test_step_rejects_off_ladder_norms():
    ops = shift_tuple(2)
    with pytest.raises(PreconditionError):
        zero_iteration_step(ops, WindowVector.basis(0), 0)  # norm 1, expects 0
    with pytest.raises(PreconditionError):
        zero_iteration_step(ops, 0.3 * WindowVector.basis(0), 1)


def test_step_rejects_oversized_forms():
    ops = shift_tuple(4)
    # stage-1 norm is right but <S x, x> = 1/4 exceeds r/4
    x = 0.5 * (WindowVector.basis(0) + WindowVector.basis(1))
    assert x.norm() ** 2 == pytest.approx(0.5)
    assert admissible_radius(1.0, 4) / 4 < 0.25
    with pytest.raises(PreconditionError):
        zero_iteration_step(ops, x, 1)


def test_step_separates_rounding_from_violation():
    # stage 60: the cap r 2^-61 is far below the float64 floor of a
    # two-entry form, so an excess within the floor is a numerical failure
    ops = shift_tuple(2)
    tiny = WindowVector.basis(0) + 1e-17 * WindowVector.basis(1)
    with pytest.raises(NumericalError, match="floor") as exc:
        zero_iteration_step(ops, tiny, 60)
    assert exc.value.floor > 0
    assert exc.value.residual <= admissible_radius(1.0, 2) * 2.0 ** -61 + exc.value.floor
    # the same shape with an excess far above the floor is a refusal
    big = WindowVector.basis(0) + 1e-12 * WindowVector.basis(1)
    with pytest.raises(PreconditionError):
        zero_iteration_step(ops, big, 60)


def test_zero_tuple_vector_stops_at_float_floor():
    # tol far below what float64 certifies: the ladder stops where the stage
    # cap meets the rounding floor and names both, the same on every build
    messages = []
    for _ in range(2):
        with pytest.raises(NumericalError, match="floor") as exc:
            zero_tuple_vector(shift_tuple(2), tol=1e-30)
        floor = exc.value.floor
        assert floor > 0
        assert f"{floor:.3e}" in str(exc.value)
        assert "cap" in str(exc.value)
        assert exc.value.residual > 1e-30
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_zero_tuple_vector_certificate():
    cert = zero_tuple_vector(shift_tuple(4))
    w = cert.x
    assert abs(w.norm() - 1.0) <= 1e-12
    forms = raw_forms(BilateralShift(), w, range(1, 5))
    assert np.max(np.abs(forms)) <= 1e-8
    assert cert.passed()
    assert cert.checks["distance"].bound == pytest.approx(1.5)
    for rec in cert.params["stages"]:
        assert abs(rec["norm_sq"] - rec["expected_norm_sq"]) <= 1e-10


def test_zero_tuple_vector_exact_start_returns_scaled():
    cert = zero_tuple_vector(shift_tuple(4), start=WindowVector.basis(0))
    assert cert.params["early_exit"] is True
    assert cert.params["stages"] == []
    assert (cert.x - WindowVector.basis(0)).norm() <= 1e-12


def test_zero_tuple_vector_unit_start_with_bad_forms_refuses():
    # <S x, x> = 1/2 for this unit vector; not a valid entry point
    x = normalize(WindowVector.basis(0) + WindowVector.basis(1))
    with pytest.raises(PreconditionError):
        zero_tuple_vector(shift_tuple(4), start=x)


def test_zero_tuple_vector_avoids_subspace():
    avoid = [WindowVector.basis(j) for j in range(10)]
    cert = zero_tuple_vector(shift_tuple(4), avoid=avoid)
    lo, _hi = cert.x.support_range()
    assert lo > 9
    for v in avoid:
        assert abs(inner(cert.x, v)) == 0.0


def test_zero_tuple_vector_ladder_start():
    # enter at stage 2 with the exact ladder norm sqrt(1 - 1/4)
    start = math.sqrt(0.75) * WindowVector.basis(0)
    cert = zero_tuple_vector(shift_tuple(3), start=start, start_stage=2)
    assert cert.passed()
    assert (cert.x - start).norm() <= 3.0 * 2.0 ** (-2.0 ** 0 - 0.5) + 1e-12
    assert cert.checks["distance"].bound == pytest.approx(3.0 * 2.0 ** (-2.0))


def test_zeroing_rejects_dense_models():
    a = DenseOperator(np.eye(3, dtype=complex))
    with pytest.raises(PreconditionError):
        zero_tuple_vector((a,))


@pytest.mark.parametrize(
    "make",
    [
        lambda: DenseOperator(np.eye(600)),
        lambda: DenseOperator(np.eye(4)),
        lambda: MultiplicationGrid(16),
    ],
    ids=["dense-600", "dense-4", "grid-16"],
)
def test_finite_dimensional_refusals_run_no_eigensolver(make, monkeypatch):
    # sigma_pi_e is empty in finite dimension: the refusal needs no spectrum
    def no_eigensolver(*args, **kwargs):
        raise AssertionError("an eigensolver ran")

    monkeypatch.setattr(np.linalg, "eig", no_eigensolver)
    op = make()
    builders = [
        lambda: almost_orthogonal_orbit(op, 4, 0.1),
        lambda: rokhlin_tower(op, 65, 0.25),
        lambda: zero_tuple_vector((op,)),
        lambda: we_membership_witness(op, [0.1], 0.01),
    ]
    for build in builders:
        with pytest.raises(PreconditionError):
            build()


@pytest.mark.parametrize(
    "model", ["bilateral-shift:2", "bilateral-shift:0.5j", "unilateral-shift:3"]
)
def test_orbit_and_tower_need_the_unit_circle(model):
    # the n-th roots of unity must lie on the essential circle; eps = 2 and
    # n = 65 pass the tower's height gate, so the circle rule is what refuses
    op = build_model(model)
    with pytest.raises(PreconditionError, match="circle of radius 1 is not"):
        almost_orthogonal_orbit(op, 4, 0.1)
    with pytest.raises(PreconditionError, match="circle of radius 1 is not"):
        rokhlin_tower(op, 65, 2.0)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 14))
def test_ladder_norm_identity_any_stage(k):
    # one step from a clean ladder vector keeps the closed-form norm exactly
    ops = shift_tuple(2)
    scale = math.sqrt(1.0 - 2.0 ** (-k)) if k else 0.0
    x = scale * WindowVector.basis(0)
    x2 = zero_iteration_step(ops, x, k)
    assert abs(x2.norm() ** 2 - (1.0 - 2.0 ** (-k - 1))) <= 1e-12


# -- almost orthogonal orbits --------------------------------------------------


def _recheck_orbit(base, cert):
    orbit = [cert.x]
    for _ in range(cert.n):
        orbit.append(base.apply(orbit[-1]))
    for j in range(1, cert.n):
        assert abs(inner(orbit[j], orbit[0])) <= 1e-8
        assert abs(orbit[j].norm() - 1.0) < cert.eps
    for a in range(cert.n):
        for b in range(cert.n):
            if a != b:
                assert abs(inner(orbit[a], orbit[b])) < cert.eps
    assert (orbit[cert.n] - cert.x).norm() < cert.eps


@pytest.mark.parametrize("n,eps", [(1, 0.3), (4, 0.1), (8, 0.1)])
def test_orbit_certificate_bilateral(n, eps):
    cert = almost_orthogonal_orbit(BilateralShift(), n, eps)
    assert cert.passed()
    _recheck_orbit(BilateralShift(), cert)


def test_orbit_certificate_unilateral():
    cert = almost_orthogonal_orbit(UnilateralShift(), 6, 0.2)
    assert cert.passed()
    assert cert.x.support_range()[0] >= 0
    _recheck_orbit(UnilateralShift(), cert)


def test_orbit_certificate_diagonal():
    op = DiagonalUnitary(QuadraticIrrationalRotation(2))
    cert = almost_orthogonal_orbit(op, 8, 0.05)
    assert cert.passed()
    # basis atoms: norms are exact and the recurrence is far below eps
    assert cert.checks["norm_window"].measured <= 1e-12
    assert cert.checks["recurrence"].measured <= 1e-6
    _recheck_orbit(op, cert)


@pytest.mark.parametrize(
    "op",
    [
        BilateralShift(),
        UnilateralShift(),
        BilateralShift(ConstantWeights(1j)),
        DiagonalUnitary(QuadraticIrrationalRotation(2)),
        DiagonalUnitary(QuadraticIrrationalRotation(3), index_set="N"),
    ],
    ids=["bilateral", "unilateral", "unit-weight", "diagonal-qi-2", "diagonal-qi-3-N"],
)
@pytest.mark.parametrize("n", [2, 8, 16])
def test_orbit_forms_meet_half_the_exactness_threshold(op, n):
    # shift windows cancel exactly under the DFT mix and diagonal phases sit
    # within 1e-8/(2n) of their roots, so no zeroing pass is ever needed
    cert = almost_orthogonal_orbit(op, n, 0.1)
    forms = raw_forms(op, cert.x, range(1, n))
    assert np.max(np.abs(forms)) <= witness.HARD_TOL / 2


@pytest.mark.parametrize(
    "op",
    [BilateralShift(), DiagonalUnitary(QuadraticIrrationalRotation(2))],
    ids=["bilateral", "diagonal-qi-2"],
)
def test_orbit_with_a_perturbed_family_fails_its_orthogonality_line(monkeypatch, op):
    # one root moved by 0.01 rad breaks the DFT cancellation: the forms are
    # about 0.01 j/n, which the verifier's orthogonality line must catch
    family = witness.approx_eigenvector_family

    def perturbed(base, lambdas, m, **kw):
        lambdas = np.array(lambdas)
        lambdas[0] *= np.exp(0.01j)
        return family(base, lambdas, m, **kw)

    monkeypatch.setattr(witness, "approx_eigenvector_family", perturbed)
    with pytest.raises(NumericalError, match="orthogonality"):
        almost_orthogonal_orbit(op, 8, 0.1)


def test_orbit_scaling_coherence():
    # every slack measured at eps/2 must in particular satisfy the eps bound
    tight = almost_orthogonal_orbit(BilateralShift(), 4, 0.05)
    for name, entry in tight.checks.items():
        loose_bound = 0.1 if name != "orthogonality" else entry.bound
        assert entry.measured < loose_bound


def test_orbit_budget_and_validation():
    with pytest.raises(WindowBudgetError) as exc:
        almost_orthogonal_orbit(BilateralShift(), 8, 0.1, window_budget=1000)
    assert exc.value.budget == 1000
    assert exc.value.required > 1000
    with pytest.raises(DegenerateInputError):
        almost_orthogonal_orbit(BilateralShift(), 0, 0.1)
    with pytest.raises(DegenerateInputError):
        almost_orthogonal_orbit(BilateralShift(), 4, 1.0)
    with pytest.raises(PreconditionError):
        almost_orthogonal_orbit(DenseOperator(np.eye(4, dtype=complex)), 4, 0.1)


def test_orbit_window_policy_recorded():
    cert = almost_orthogonal_orbit(BilateralShift(), 8, 0.1, window_budget=10**6)
    assert cert.params["window_length"] == 6400
    assert cert.params["proof_window_length"] >= cert.params["window_length"]
    assert cert.params["entries_charged"] <= 10**6
    assert cert.checks["recurrence"].measured == pytest.approx(
        math.sqrt(2.0 * 8 / 6400), rel=1e-9
    )


# -- rokhlin towers ------------------------------------------------------------


def _recheck_tower_links(base, tower):
    n = tower.n
    for j in range(n):
        r = (base.apply(tower.w[j]) - tower.w[(j + 1) % n]).norm()
        assert r == pytest.approx(tower.link_residuals[j], abs=1e-12)


def test_rokhlin_tower_bilateral():
    tower = rokhlin_tower(BilateralShift(), 65, 0.25)
    assert tower.passed()
    assert tower.checks["gram_identity"].measured <= 1e-10
    assert tower.checks["mean_identity"].measured <= 1e-12
    assert float(np.max(tower.link_residuals)) < 0.25
    _recheck_tower_links(BilateralShift(), tower)
    # mean identity against the raw vectors
    mean = WindowVector.zero()
    for v in tower.w:
        mean = mean + v
    assert (mean * (1.0 / math.sqrt(65)) - tower.u).norm() <= 1e-12


def _links_by_subtraction(base, w):
    n = len(w)
    return np.array([(base.apply(w[j]) - w[(j + 1) % n]).norm() for j in range(n)])


def test_links_bit_identical_to_subtraction():
    rng = np.random.default_rng(5)
    x = WindowVector(np.arange(12, dtype=np.int64), rng.normal(size=12) + 1j * rng.normal(size=12))
    # T w_0 - w_1 cancels exactly except at index 4, T w_3 - w_4 cancels
    # entirely, and the far-apart w_2 takes the sparse path of the sum
    nudged = x.translate(1).scale_by(lambda idx: np.where(idx == 4, 1 + 2.0 ** -40, 1.0))
    far = WindowVector([-50, 3, 90], [0.5, -0.25j, 1.0])
    w = [x, nudged, far, x.translate(1), x.translate(2)]
    links = witness._links(BilateralShift(), w)
    assert links[3] == 0.0 and 0.0 < links[0] < 1e-10
    for base in (BilateralShift(), DiagonalUnitary(QuadraticIrrationalRotation(2))):
        assert witness._links(base, w).tobytes() == _links_by_subtraction(base, w).tobytes()
    tower = rokhlin_tower(BilateralShift(), 17, 0.5)
    got = witness._links(BilateralShift(), tower.w)
    assert got.tobytes() == _links_by_subtraction(BilateralShift(), tower.w).tobytes()


def test_rokhlin_tower_refuses_below_threshold():
    with pytest.raises(PreconditionError) as exc:
        rokhlin_tower(BilateralShift(), 64, 0.25)
    assert exc.value.minimal_n == 65


def test_rokhlin_tower_refuses_float_boundary_height():
    # 4/0.1^2 rounds to 399.99...: n=400 clears the naive gate but makes
    # eps - 2/sqrt(n) exactly zero, so the admissible height is 401
    with pytest.raises(PreconditionError) as exc:
        rokhlin_tower(BilateralShift(), 400, 0.1)
    assert exc.value.minimal_n == 401
    assert 0.1 - 2.0 / math.sqrt(401) > 0.0


def test_rokhlin_tower_diagonal():
    op = DiagonalUnitary(QuadraticIrrationalRotation(2))
    tower = rokhlin_tower(op, 101, 0.2)
    assert tower.passed()
    assert float(np.max(tower.link_residuals)) < 0.2
    # e_0 has phase zero here, so the mean vector is an exact fixed point
    assert tower.params["mean_link_defect"] <= 1e-15


def test_rokhlin_tower_custom_mean():
    u = normalize(WindowVector.basis(0) + 2.0 * WindowVector.basis(1))
    tower = rokhlin_tower(UnilateralShift(), 70, 0.25, u=u)
    assert tower.passed()
    assert (sum(tower.w[1:], tower.w[0]) * (1.0 / math.sqrt(70)) - u).norm() <= 1e-12


def test_rokhlin_tower_validation():
    with pytest.raises(DegenerateInputError):
        rokhlin_tower(BilateralShift(), 65, 0.0)
    with pytest.raises(DegenerateInputError):
        rokhlin_tower(BilateralShift(), 65, 0.25, u=2.0 * WindowVector.basis(0))
    with pytest.raises(WindowBudgetError):
        rokhlin_tower(BilateralShift(), 65, 0.25, window_budget=500)


# -- rotation towers ------------------------------------------------------------


@pytest.mark.parametrize("n", [8, 64, 512])
def test_rotation_tower_grid(n):
    grid = MultiplicationGrid(4096)
    tower = rotation_tower(grid, n)
    assert tower.passed()
    assert float(np.max(tower.link_residuals)) <= 2.0 * math.pi / n
    assert tower.sum_defect <= 1e-12
    for v in tower.w[:3]:
        assert abs(v.norm() - 1.0) <= 1e-12
    _recheck_tower_links(grid, tower)
    assert tower.params["class_counts"][0] == 0


def test_rotation_tower_pointwise_sum_is_exact():
    grid = MultiplicationGrid(256)
    tower = rotation_tower(grid, 8)
    total = np.zeros(256, np.complex128)
    for v in tower.w:
        total += v.to_dense(256)
    assert np.max(np.abs(total)) <= 1e-12


def test_rotation_tower_minimal_height():
    grid = MultiplicationGrid(64)
    tower = rotation_tower(grid, 2)
    # every node folds onto the single admissible class 1
    assert tower.params["class_counts"] == [0, 64]
    assert tower.sum_defect <= 1e-15


def test_rotation_tower_partial_support():
    grid = MultiplicationGrid(128)
    values = np.zeros(128)
    values[10:50] = 1.0
    w0 = normalize(grid.embed(values))
    tower = rotation_tower(grid, 4, w0=w0)
    assert tower.passed()
    assert tower.w[0].support_range() == (10, 49)


def test_rotation_tower_refusals():
    with pytest.raises(ResolutionError):
        rotation_tower(MultiplicationGrid(15), 8)
    with pytest.raises(UnsupportedModelError):
        rotation_tower(BilateralShift(), 8)
    with pytest.raises(DegenerateInputError):
        rotation_tower(MultiplicationGrid(64), 1)
    with pytest.raises(DegenerateInputError):
        rotation_tower(MultiplicationGrid(64), 8, w0=0.5 * WindowVector.basis(0))


# -- many-term sums against the two-term loops they replaced


def mix_by_loop(terms):
    """The family mix of almost_orthogonal_orbit, one merge per term."""
    v = WindowVector.zero()
    for scale, vec in terms:
        v = add_scaled(v, vec, 1.0, scale)
    return v


@pytest.mark.parametrize(
    "op, n",
    [
        (BilateralShift(), 8),
        (UnilateralShift(), 4),
        (DiagonalUnitary(QuadraticIrrationalRotation(2)), 4),
    ],
)
def test_orbit_family_mix_matches_loop(monkeypatch, op, n):
    cert = almost_orthogonal_orbit(op, n, 0.25)
    monkeypatch.setattr(witness, "combine", mix_by_loop)
    ref = almost_orthogonal_orbit(op, n, 0.25)
    assert cert.x == ref.x
    assert np.array_equal(cert.gram, ref.gram)
    assert np.array_equal(cert.norms, ref.norms)
    assert cert.recurrence == ref.recurrence


def sum_defect_by_loop(w):
    total = WindowVector.zero()
    for v in w:
        total = total + v
    return float(np.max(np.abs(total.values))) if len(total.values) else 0.0


@pytest.mark.parametrize("n", [2, 8, 64])
def test_rotation_tower_sum_defect_matches_loop(n):
    grid = MultiplicationGrid(1024)
    values = np.zeros(1024)
    values[10:500:3] = 1.0  # a strided w0: fancy-index adds
    for w0 in (None, normalize(grid.embed(values))):
        tower = rotation_tower(grid, n, w0=w0)
        assert tower.sum_defect == sum_defect_by_loop(tower.w)
