"""Shared exception types and the state budget.

Two failure modes matter to callers: the input was malformed (reject it), or
the instance was structurally fine but too large for the configured budget
(the caller may retry with a bigger budget or a smaller instance).  The CLI
maps them to exit codes 1 and 2 respectively.

One state budget bounds the work of every engine, each in its own unit:
the table states of a partition sum (and the multiply-adds of one matrix
product of a subdivided count), the placements of a symmetry search, the
2^n assignments of #SAT, the images tried by hom enumeration and the
clique-half terms of a gadget scan.  Every
engine reads it from :func:`state_budget_default` and words its refusal
with :func:`over_budget`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

STATE_BUDGET_DEFAULT = 10**8


class ModhomError(Exception):
    """Base class for errors raised by this package."""


class InputError(ModhomError, ValueError):
    """Malformed input, violated precondition, or out-of-range argument."""


class BudgetExceededError(ModhomError, RuntimeError):
    """Instance exceeds a configured size/state budget.

    This is a definitive "too big", never a wrong answer; nothing partial is
    returned.
    """


# The CLI config's state budget while a command runs; see state_budget_scope.
_STATE_BUDGET: ContextVar[int | None] = ContextVar("state_budget", default=None)


@contextmanager
def state_budget_scope(budget: int) -> Iterator[None]:
    """Make ``budget`` the state budget of every engine run in the block."""
    token = _STATE_BUDGET.set(budget)
    try:
        yield
    finally:
        _STATE_BUDGET.reset(token)


def state_budget_default() -> int:
    """State budget of every engine run: the innermost
    :func:`state_budget_scope`, else ``MODHOM_BUDGET_STATES``, else 10^8."""
    scoped = _STATE_BUDGET.get()
    if scoped is not None:
        return scoped
    raw = os.environ.get("MODHOM_BUDGET_STATES")
    if raw is None:
        return STATE_BUDGET_DEFAULT
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"MODHOM_BUDGET_STATES must be an integer, got {raw!r}")
    if value <= 0:
        raise InputError("MODHOM_BUDGET_STATES must be positive")
    return value


def over_budget(work: str, budget: int, need: int | None = None) -> BudgetExceededError:
    """The refusal of an engine whose ``work`` (say, ``"elimination needs 16
    table states"``) exceeds ``budget``.  ``need`` is a budget known to
    suffice; an engine that cannot know its size in advance passes None.
    A ``need`` too long to print in decimal is named by the least power of
    two that is at least it."""
    if need is None:
        hint = "a larger state budget may suffice"
    elif need.bit_length() <= 10_000:
        hint = f"a state budget >= {need} suffices"
    else:
        hint = f"a state budget >= 2^{(need - 1).bit_length()} suffices"
    return BudgetExceededError(
        f"{work} > state budget {budget}; {hint} "
        f"(MODHOM_BUDGET_STATES, or state_budget in the CLI config)"
    )
