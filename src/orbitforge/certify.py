"""The record shapes shared by every verifier: a line and a certificate.

Each statement's verifier sits next to its builder and returns a
:class:`Certificate`; the builder runs it once on the objects it returns and
returns that record, and :mod:`orbitforge.harness` reports its lines.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .errors import NumericalError

__all__ = ["UNIT_TOL", "Certificate", "Check", "by_label", "require"]

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


@dataclass(kw_only=True)
class Certificate:
    """A verified statement: its ``checks`` keyed by label, as :func:`require`
    returns them, and the ``params`` of the construction that made it.
    Each statement's record is a subclass that adds the measured objects."""

    checks: dict
    params: dict = field(default_factory=dict)

    def lines(self):
        return list(self.checks.values())

    def passed(self):
        return all(c.passed for c in self.checks.values())

    def worst_slack(self):
        return min((c.bound - c.measured for c in self.checks.values()), default=0.0)


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
