"""The sweep farm: a daemonized job-queue service for simulation sweeps.

The paper's evaluation — and every study layered on top of it — is a
grid of independent cells, each a pure function of its config. The farm
turns that purity into a service: one **scheduler** process owns the
content-addressed :class:`~repro.experiments.cache.ResultCache`, an
append-only journal and an artifact store; N **worker** processes pull
cells from a priority queue; and any number of clients talk JSON over a
Unix socket (``submit`` / ``status`` / ``results`` / ``cancel`` /
``watch``). Identical configs submitted by different clients share one
execution, long cells preempt gracefully at event-loop checkpoints, and
a killed scheduler or worker resumes from the journal plus the cache
with at most in-flight cells lost.

Modules
-------
:mod:`repro.farm.protocol`
    Wire format: newline-delimited JSON, config (de)serialisation.
:mod:`repro.farm.journal`
    Append-only crash-safe journal (fsynced JSONL, tolerant replay).
:mod:`repro.farm.store`
    Append-only artifact store (submitted specs, finished job results).
:mod:`repro.farm.scheduler`
    The service: socket loop, priority queue, dedup, preemption, resume.
:mod:`repro.farm.worker`
    Worker process main loop + checkpoint-based preemption.
:mod:`repro.farm.client`
    Blocking client library used by the CLI verbs and tests.
:mod:`repro.farm.smoke`
    The body of the ``farm`` smoke gate (``repro smoke farm``).
"""

from repro.farm.client import FarmClient
from repro.farm.journal import Journal
from repro.farm.protocol import config_from_dict, config_kind, config_to_wire
from repro.farm.scheduler import FarmScheduler
from repro.farm.store import ArtifactStore

__all__ = [
    "ArtifactStore",
    "FarmClient",
    "FarmScheduler",
    "Journal",
    "config_from_dict",
    "config_kind",
    "config_to_wire",
]
