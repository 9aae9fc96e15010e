"""Self-healing coordination: dispatch journal, supervised farm, supervisor.

See :mod:`repro.runtime.supervision.journal` for the durable event log,
:mod:`repro.runtime.supervision.supervisor` for the failover machinery,
and ``docs/RESILIENCE.md`` for the supervision-tree walkthrough.
"""

from .journal import DispatchJournal, JournalState, read_journal, replay_events
from .supervisor import SupervisedFarm, Supervisor

__all__ = [
    "DispatchJournal",
    "JournalState",
    "read_journal",
    "replay_events",
    "SupervisedFarm",
    "Supervisor",
]
