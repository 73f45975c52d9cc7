"""The one record shape of a verified inequality, shared by every verifier.

Each statement's verifier sits next to its builder, which runs it as its
self-check; :mod:`orbitforge.harness` runs it again on the returned vectors.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .errors import NumericalError

__all__ = ["UNIT_TOL", "Check", "by_label", "require"]

# bound on | ||x|| - 1 | for a vector that a statement calls unit
UNIT_TOL = 1e-12


@dataclass(frozen=True)
class Check:
    """One inequality: ``measured`` against ``bound`` and whether it held.

    Lines are made by :meth:`at_most` (measured <= bound) or :meth:`below`
    (measured < bound); the comparison is applied once, when the line is made.
    """

    label: str
    measured: float
    bound: float
    passed: bool

    @classmethod
    def at_most(cls, label, measured, bound):
        measured, bound = float(measured), float(bound)
        return cls(label, measured, bound, measured <= bound)

    @classmethod
    def below(cls, label, measured, bound):
        measured, bound = float(measured), float(bound)
        return cls(label, measured, bound, measured < bound)

    def to_json(self):
        return asdict(self)


def by_label(checks):
    return {c.label: c for c in checks}


def require(checks, what):
    """The lines keyed by label; NumericalError names the first failed line."""
    checks = by_label(checks)
    for c in checks.values():
        if not c.passed:
            raise NumericalError(
                f"{what} failed its own recheck: {c.label} measured "
                f"{c.measured:.6e} against the bound {c.bound:.6e}",
                residual=c.measured,
                bound=c.bound,
            )
    return checks
