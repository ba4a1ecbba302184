"""repro.check: crash-schedule exploration with invariant checking.

The deterministic simulator makes crash testing *enumerable*: instead of
pulling power at random on real machines, the explorer schedules a crash
just after every observed protocol state transition, layers seeded
random nemesis fault combinations on top, judges every surviving state
against the full invariant suite, and shrinks failures to minimal
replayable fault specs.  ``python -m repro check`` is the front end.

:mod:`repro.check.soak` extends the same oracles to long horizons:
``python -m repro soak`` runs a tracked nemesis over virtual hours and
judges safety *and* convergence (liveness) continuously mid-run.
"""

from repro.check.explorer import (
    CheckReport,
    Counterexample,
    RunOutcome,
    explore,
    run_schedule,
)
from repro.check.oracle import Verdict, judge_crash, judge_live
from repro.check.schedule import compose, describe, schedule_events
from repro.check.shrinker import ddmin
from repro.check.soak import (
    SoakReport,
    SoakViolation,
    SoakWorkload,
    judge_converged,
    run_soak,
)
from repro.check.transitions import (
    COUNTER_METRICS,
    TransitionCoverage,
    transition_times,
)
from repro.check.workload import CheckWorkload

__all__ = [
    "CheckReport",
    "CheckWorkload",
    "Counterexample",
    "COUNTER_METRICS",
    "RunOutcome",
    "SoakReport",
    "SoakViolation",
    "SoakWorkload",
    "TransitionCoverage",
    "Verdict",
    "compose",
    "ddmin",
    "describe",
    "explore",
    "judge_converged",
    "judge_crash",
    "judge_live",
    "run_schedule",
    "run_soak",
    "schedule_events",
    "transition_times",
]
