"""Numerical tolerances.

Every verdict compares a margin (a projector distance from passing) with
the single tolerance below, and every rank decision on the way truncates at
it, scaled by the largest singular value (``subspace._cutoff``).  So a CLI
override or the QREL_TOL environment variable pins every verdict at once.
The tolerance is held in a context variable: ``set_tolerance`` returns a
token, and ``reset_tolerance(token)`` restores the value that was current
before, so a CLI run leaves the caller's tolerance as it found it.
"""

from __future__ import annotations

from contextvars import ContextVar, Token

# Projector-distance threshold for leq / equality / orthogonality verdicts,
# and the scale-relative rank cutoff.
DEFAULT_TOL = 1e-8

# A failure whose margin is at most WARN_TOL is reported as a warn-band result.
WARN_TOL = 1e-6

TOL_MIN = 1e-12
TOL_MAX = 1e-4

_tolerance: ContextVar[float] = ContextVar("qrel_tolerance", default=DEFAULT_TOL)


def tolerance() -> float:
    return _tolerance.get()


def set_tolerance(value: float) -> Token:
    if not (TOL_MIN <= value <= TOL_MAX):
        raise ValueError(f"tolerance must be in [{TOL_MIN}, {TOL_MAX}], got {value}")
    return _tolerance.set(value)


def reset_tolerance(token: Token | None = None) -> None:
    """Undo the ``set_tolerance`` call that returned ``token``; without a
    token, go back to DEFAULT_TOL."""
    if token is None:
        _tolerance.set(DEFAULT_TOL)
    else:
        _tolerance.reset(token)
