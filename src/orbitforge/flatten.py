"""Subspaces on which all powers of T compress to almost zero.

The target quantity is sup over n >= 1 of ||P_L T^n P_L||; for d = 1, the
span of one unit x, it is sup_n |<T^n x, x>|.  On plain shift models the
supremum is made finite and exact by combinatorics instead of analysis: each
basis vector is an equal-weight mix of s basis atoms placed on a Sidon set, a
set of integers whose pairwise differences are all distinct.  Shifting by n
then aligns at most one atom pair, so

    |<T^n x, x>| <= 1/s      for every n >= 1,

with exact zero beyond the support span.  Stage r takes s_r > 16 K^2 / t_r^2
atoms for its threshold t_r (see :class:`FlatSchedule`), a wide margin under
t_r.

The subspace construction draws all stages from one shared Sidon pool: any
two atoms in the pool, whatever their stages, realize each difference at most
once, so every cross-stage compression entry is at most 1/sqrt(s_i s_j) in
modulus with no separation argument needed.  Stage chunks are offset upward
so later vectors are exactly orthogonal to the earlier ones and to their
power images over the declared horizon.

Models whose powers do not vanish weakly (diagonal unitaries, grid
multiplications) are refused with the probe evidence.  A supremum over all n
is never reported unless it can be certified exactly, which also rules out
weighted shifts here: their power forms carry weight products over
astronomically many steps that nothing in the run recomputes honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateInputError,
    NumericalError,
    PreconditionError,
    UnsupportedModelError,
)
from .certify import Certificate, Check, by_label, require
from .operators import (
    BilateralShift,
    DiagonalUnitary,
    MultiplicationGrid,
    UnilateralShift,
    apply_power,
)
from .vectors import BudgetMeter, WindowVector, cross_gram, gram

__all__ = [
    "DecayProfile",
    "FlatSchedule",
    "flat_report_csv",
    "flat_subspace",
    "next_prime",
    "sidon_set",
    "weak_decay_probe",
]


# -- primes and Sidon sets ----------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Deterministic Miller-Rabin, exact for any 64-bit integer."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n):
    n = max(int(n), 2)
    while not _is_prime(n):
        n += 1
    return n


def sidon_set(size):
    """First ``size`` elements of an explicit Sidon set, strictly increasing.

    Uses b_j = 2 p j + (j^2 mod p) for a prime p >= size; all pairwise
    differences are distinct, the classical quadratic construction.  Elements
    stay below 2 p^2 + p, well inside int64 for any realistic size.
    """
    size = int(size)
    if size < 1:
        raise DegenerateInputError("need a positive set size")
    p = next_prime(size)
    j = np.arange(size, dtype=np.int64)
    return 2 * p * j + (j * j) % p


# -- decay probing -------------------------------------------------------------


@dataclass(frozen=True)
class DecayProfile:
    """Finite-horizon record of max |<T^n a, b>| over probe pairs.

    ``power_bound`` certifies sup ||T^n|| over the horizon.  For banded
    models ``exact_zero_beyond`` is the index past which every probe inner
    product vanishes identically, a statement about supports rather than
    magnitudes.
    """

    horizon: int
    ns: np.ndarray
    values: np.ndarray
    power_bound: float
    exact_zero_beyond: int | None

    @property
    def decays(self):
        if self.exact_zero_beyond is not None:
            return True
        tail = self.values[self.ns > self.horizon // 2]
        return bool(len(tail)) and float(np.max(tail)) <= 1e-8

    def to_json(self):
        return {
            "horizon": self.horizon,
            "probes": [[int(n), float(v)] for n, v in zip(self.ns, self.values)],
            "power_bound": self.power_bound,
            "exact_zero_beyond": self.exact_zero_beyond,
            "decays": self.decays,
        }


def _banded(op):
    return isinstance(op, (BilateralShift, UnilateralShift))


def weak_decay_probe(op, probe_vectors, horizon):
    """Measure max |<T^n a, b>| for n = 0..horizon over ordered probe pairs."""
    horizon = int(horizon)
    if horizon < 0:
        raise DegenerateInputError("horizon must be nonnegative")
    probes = list(probe_vectors)
    if not probes:
        raise DegenerateInputError("need at least one probe vector")
    for v in probes:
        if abs(v.norm() - 1.0) > 1e-9:
            raise DegenerateInputError("probe vectors must be unit")
    nb = float(op.norm_bound())
    try:
        power_bound = nb ** horizon if nb > 1 else 1.0
    except OverflowError:
        power_bound = math.inf
    if not math.isfinite(power_bound):
        raise NumericalError(
            f"power bound overflows float64: norm bound ||T|| <= {nb!r} "
            f"raised to the horizon {horizon}"
        )
    values = np.zeros(horizon + 1)
    orbits = list(probes)
    for n in range(horizon + 1):
        values[n] = np.max(np.abs(cross_gram(orbits, probes)))
        if n < horizon:
            orbits = [op.apply(a) for a in orbits]
    beyond = None
    if _banded(op):
        beyond = max(
            b.support_range()[1] - a.support_range()[0] + 1
            for a in probes
            for b in probes
        )
        beyond = max(beyond, 1)
    return DecayProfile(
        horizon=horizon,
        ns=np.arange(horizon + 1),
        values=values,
        power_bound=power_bound,
        exact_zero_beyond=beyond,
    )


def _flat_power_bound(op):
    """K = sup_n ||T^n||, exact for the supported models, else a refusal."""
    if _banded(op):
        if op.weights is None:
            return 1.0
        raise UnsupportedModelError(
            "weighted shifts tie each power form to a weight product over "
            "the whole hop; only the plain shifts carry the exact Sidon "
            "certificate"
        )
    if isinstance(op, (DiagonalUnitary, MultiplicationGrid)):
        profile = weak_decay_probe(op, [WindowVector.basis(0)], 16)
        raise PreconditionError(
            "powers do not vanish weakly: probe measured "
            f"|<T^n e_0, e_0>| = {float(np.max(profile.values[1:])):.3f} "
            f"persisting over horizon {profile.horizon}"
        )
    raise UnsupportedModelError(
        f"cannot certify a supremum over all powers for {type(op).__name__}"
    )


# -- schedules ------------------------------------------------------------------


@dataclass(frozen=True)
class FlatSchedule:
    """Stage bookkeeping: counts, exact thresholds, and separation times.

    thresholds[r] is the stage-r bound eps / (2^{r+3} (r+1)) kept as an
    exact Fraction; counts[r] is the smallest integer with
    counts[r] > 16 K^2 / thresholds[r]^2; times[r] is the first power beyond
    which everything built through stage r is supported too low to matter.
    """

    eps: float
    power_bound: float
    counts: tuple
    thresholds: tuple
    times: tuple

    @property
    def s(self):
        return sum(self.counts)

    def validate(self):
        k2 = Fraction(self.power_bound) ** 2
        for s_r, thr in zip(self.counts, self.thresholds):
            if not Fraction(s_r) * thr * thr > 16 * k2:
                raise NumericalError("stage count misses s > 16 K^2 / eps^2")
        if list(self.times) != sorted(set(self.times)):
            raise NumericalError("stage times must be strictly increasing")

    def to_json(self):
        return {
            "eps": self.eps,
            "power_bound": self.power_bound,
            "counts": list(self.counts),
            "thresholds": [str(t) for t in self.thresholds],
            "thresholds_float": [float(t) for t in self.thresholds],
            "times": list(self.times),
        }


def _stage_count(eps_fraction, power_bound):
    need = 16 * Fraction(power_bound) ** 2 / (eps_fraction * eps_fraction)
    return max(math.floor(need) + 1, 2)


def _stage_thresholds(eps, stages):
    e = Fraction(eps)
    return tuple(e / (2 ** (r + 3) * (r + 1)) for r in range(stages))


# -- flat subspaces ---------------------------------------------------------------


def _sidon_mix(positions):
    s = len(positions)
    return WindowVector(positions, np.full(s, 1.0 / math.sqrt(s), np.complex128))


def flat_subspace(op, eps, d, window_budget=None, rng=None):
    """Orthonormal y_1..y_d compressing every positive power below eps.

    Stage r gets s_r atoms at the threshold eps / (2^{r+3} (r+1)), all drawn
    from one Sidon pool, chunks stacked upward with gaps covering the
    accumulated time horizon.  The returned record is the one of
    :func:`verify_flat_subspace` on the basis, with the schedule: it certifies
    the supremum in closed form (lower-triangular entries bounded by
    1/sqrt(s_i s_j), one aligned pair each) and rechecks sampled powers
    honestly from the raw vectors.  The statement bounds ||P T^n P|| and
    reads no numerical radius.
    """
    eps = float(eps)
    if not 0 < eps < math.inf:  # NaN fails both comparisons
        raise DegenerateInputError("eps must be positive and finite")
    d = int(d)
    if d < 1:
        raise DegenerateInputError("need at least one subspace dimension")
    K = _flat_power_bound(op)
    meter = BudgetMeter(window_budget)

    thresholds = _stage_thresholds(eps, d)
    counts = tuple(_stage_count(t, K) for t in thresholds)
    meter.charge(sum(counts))
    pool = sidon_set(sum(counts))

    vectors = []
    times = []
    offset = 1
    start = 0
    for s_r in counts:
        chunk = pool[start : start + s_r]
        positions = chunk + (offset - int(chunk[0]))
        vectors.append(_sidon_mix(positions))
        start += s_r
        horizon = int(positions[-1]) - int(vectors[0].indices[0]) + 1
        times.append(horizon)
        # next chunk sits beyond every T^n / T^{*n} image, n < horizon
        offset = int(positions[-1]) + horizon + 1
    schedule = FlatSchedule(
        eps=eps, power_bound=K, counts=counts, thresholds=thresholds, times=tuple(times)
    )
    schedule.validate()

    cert = verify_flat_subspace(op, vectors, eps, rng)
    cert.schedule = schedule
    require(cert.lines(), "flat subspace")
    return cert


@dataclass(kw_only=True)
class FlatCertificate(Certificate):
    """The flat-subspace record: the basis, the measured numbers of
    :func:`verify_flat_subspace` with one ``per_n`` row per sampled power,
    and the builder's schedule."""

    basis: tuple
    eps: float
    gram_defect: float
    sup_bound_closed_form: float
    stage_bounds: list
    total_span: int
    per_n: list
    schedule: FlatSchedule | None = None

    def to_json(self):
        return {
            "gram_defect": self.gram_defect,
            "sup_bound_closed_form": self.sup_bound_closed_form,
            "stage_bounds": self.stage_bounds,
            "total_span": self.total_span,
            "per_n": self.per_n,
            "schedule": self.schedule and self.schedule.to_json(),
            "stage_bounds_target": [
                float(Fraction(self.eps) / 2 ** (r + 1)) for r in range(len(self.basis))
            ],
            "eps": self.eps,
            "checks": [c.to_json() for c in self.lines()],
            "passed": self.passed(),
        }


def _sample_ratio_bound(d):
    """Enclosure of the computed ||C_n|| / stage bound when the exact one is <= 1.

    Every atom value is fl(1 / fl(sqrt(s))), within a factor 1 + gamma_2 of
    1/sqrt(s) (gamma_k = k u / (1 - k u), u = 2^-53), and each compression
    entry has at most one aligned atom pair, so its computed value is one
    rounded product: |C^_ij| <= (1 + gamma_5) / sqrt(s_i s_j) entrywise (the
    zero terms of the sum are exact).  Each bound-matrix entry is
    fl(1 / fl(sqrt(s_i s_j))) >= (1 - gamma_2) / sqrt(s_i s_j).  The 2-norm
    of a nonnegative matrix grows with its entries, so the exact ratio of the
    two computed matrices is at most (1 + gamma_5) / (1 - gamma_2).  The
    singular values come back from a backward-stable SVD, exact for a matrix
    within p u ||A||_2 of A, p = 16 d as in
    :func:`orbitforge.operators.spectral_error_bound` (LAPACK Users' Guide
    sec. 4.9; Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1
    for the gamma_k), so the two norms move by factors 1 +- 16 d u, and the
    division rounds once more.  The product is

        (1 + u) (1 + gamma_5) (1 + 16 d u) / ((1 - gamma_2) (1 - 16 d u))
            = 1 + (8 + 32 d) u + O(d^2 u^2),

    and 1 + (10 + 32 d) u covers the second-order terms for d below 10^6; it
    is an even multiple of u, so 1 + it is a float.
    """
    return 1.0 + (10 + 32 * d) * 2.0 ** -53


def _closed_form_margin(d):
    """Factor that lifts a computed 2-norm of a d x d closed-form bound matrix
    to an enclosure of the exact one.

    Each entry fl(1 / fl(sqrt(fl(s_i s_j)))) is within a factor 1 + gamma_3
    of 1/sqrt(s_i s_j) (the integer product rounds once past 2^53), so the
    exact matrix is at most the computed one over 1 - gamma_3 entrywise, and
    the 2-norm of a nonnegative matrix grows with its entries.  The computed
    norm is within a factor 1 +- 16 d u of the computed matrix's, as in
    :func:`_sample_ratio_bound`, and the product with the margin rounds once
    more, so the exact norm is at most fl(computed * m) when

        m (1 - u) (1 - gamma_3) (1 - 16 d u) >= 1,

    which m = 1 + (6 + 16 d) u meets for d below 10^6; it is an even multiple
    of u, so m is a float.  Zeroed (dead) entries are exact and a power of
    two scales exactly, so the same m covers the rescaled stage tails.
    """
    return 1.0 + (6 + 16 * d) * 2.0 ** -53


def verify_flat_subspace(op, basis, eps, rng=None):
    """The flat-subspace statement re-measured from the basis, as a record.

    B[i, j] = 1/sqrt(s_i s_j), j <= i, bounds |<T^n b_j, b_i>| at every n >= 1
    (s_i atoms in b_i, one aligned pair of the Sidon pool per entry); stages
    <= r are dead, their block zero, from n = times[r] (bottom of b_0 to top
    of b_r) on.  Lines: gram_identity max |Gram - I| <= 1e-10, sup_closed_form
    ||B|| <= eps, stage_tails_rescaled max_r 2^{r+1} ||B, stages <= r dead||
    <= eps (both computed norms times :func:`_closed_form_margin`, so each
    encloses the exact one), sampled_within_bounds max ||C_n|| / stage bound <=
    :func:`_sample_ratio_bound` over powers n up to the span, and
    vanishes_beyond_span ||C_n|| <= 0 past it.  The powers come from ``rng``,
    so a re-check with the builder's seed samples the builder's powers.
    """
    rng = np.random.default_rng(0 if rng is None else rng)
    d = len(basis)
    gram_defect = float(np.max(np.abs(gram(basis) - np.eye(d))))

    counts = [len(v.indices) for v in basis]
    bottom = int(basis[0].indices[0])
    times = [int(v.indices[-1]) - bottom + 1 for v in basis]
    total_span = times[-1] - 1
    bound_matrix = np.zeros((d, d))
    for i in range(d):
        for j in range(i + 1):
            bound_matrix[i, j] = 1.0 / math.sqrt(counts[i] * counts[j])
    margin = _closed_form_margin(d)
    sup_bound = float(np.linalg.norm(bound_matrix, 2)) * margin

    def stage_bound(dead):
        live = bound_matrix.copy()
        live[:dead, :dead] = 0.0
        return float(np.linalg.norm(live, 2))

    stage_bounds = [stage_bound(r + 1) for r in range(d)]
    tails = max(sb * 2 ** (r + 1) for r, sb in enumerate(stage_bounds)) * margin

    samples = set()
    for i in range(d):
        vi = basis[i].indices
        for j in range(i + 1):
            vj = basis[j].indices
            gap = int(vi[rng.integers(len(vi))]) - int(vj[rng.integers(len(vj))])
            if gap >= 1:
                samples.add(gap)
    samples.add(int(rng.integers(1, total_span + 1)))
    samples.add(total_span + 1)

    per_n = []
    worst_ratio = beyond = 0.0
    for n in sorted(samples):
        c = cross_gram([apply_power(op, b, n) for b in basis], basis).T
        norm = float(np.linalg.norm(c, 2))
        bound = stage_bound(sum(1 for t in times if t <= n))
        if n > total_span:
            beyond = max(beyond, norm)
        else:
            worst_ratio = max(worst_ratio, norm / bound)
        per_n.append(
            {
                "n": n,
                "norm": norm,
                "stage_bound": bound,
                "beyond_horizon": n > total_span,
            }
        )
    lines = (
        Check.at_most("gram_identity", gram_defect, 1e-10),
        Check.at_most("sup_closed_form", sup_bound, eps),
        Check.at_most("stage_tails_rescaled", tails, eps),
        Check.at_most("sampled_within_bounds", worst_ratio, _sample_ratio_bound(d)),
        Check.at_most("vanishes_beyond_span", beyond, 0.0),
    )
    return FlatCertificate(
        checks=by_label(lines),
        basis=tuple(basis),
        eps=eps,
        gram_defect=gram_defect,
        sup_bound_closed_form=sup_bound,
        stage_bounds=stage_bounds,
        total_span=total_span,
        per_n=per_n,
    )


def flat_report_csv(cert):
    """CSV rows (n, norm, stage_bound) from a flat-subspace record."""
    lines = ["n,norm,stage_bound"]
    for row in cert.per_n:
        lines.append(f"{row['n']},{row['norm']:.12g},{row['stage_bound']:.12g}")
    return "\n".join(lines) + "\n"
