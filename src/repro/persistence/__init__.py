"""Durable storage for the fingerprinting system (DESIGN.md §5).

The paper's deployment story is a monitor that *keeps* its learnt
fingerprint database across sessions; this package makes the learnt
state durable:

* :mod:`repro.persistence.store` — versioned on-disk format for a
  :class:`~repro.core.database.ReferenceDatabase`: one compact ``.npz``
  holding the packed matrices, one JSONL sidecar with per-device
  metadata, one ``meta.json`` describing the matrices.  Loading hands
  the matrices to the database as its packed view — no per-signature
  Python repack — and reproduces match scores bit for bit;
* :mod:`repro.persistence.checkpoint` — snapshot/restore for the
  streaming engine: builder histograms, open-window state and stream
  counters, so a :class:`~repro.streaming.engine.StreamEngine` can
  stop mid-capture and resume exactly where it left off.
"""

from repro.persistence.store import (
    FORMAT_VERSION,
    LoadedDatabase,
    database_info,
    load_database,
    save_database,
)
from repro.persistence.checkpoint import (
    CHECKPOINT_VERSION,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "FORMAT_VERSION",
    "LoadedDatabase",
    "database_info",
    "load_checkpoint",
    "load_database",
    "save_checkpoint",
    "save_database",
]
