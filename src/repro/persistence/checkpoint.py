"""Streaming-engine checkpoints: stop mid-capture, resume exactly.

A checkpoint is one JSON document capturing everything the
:class:`~repro.streaming.engine.StreamEngine` accumulates while
consuming frames:

* the stream counters (:class:`~repro.streaming.engine.StreamStats`);
* the :class:`~repro.streaming.windows.WindowManager` state — stream
  origin, next slide index, and every open window with its frame
  count, sender set, eviction list and the full per-device histogram
  accumulators of its :class:`~repro.streaming.builder.StreamingSignatureBuilder`,
  including the observation extractor's channel clock.

Every piece is JSON-shaped already.  Feeding the remaining frames to a
restored engine, in any chunking, produces exactly the events and
stats an uninterrupted run would have produced (pinned in
``tests/test_persistence.py`` and ``tests/test_streaming_chunked.py``).
Deliberately **not** captured: the reference database (persist it
with :mod:`repro.persistence.store` — it evolves independently of the
capture position) and the analyzers' own row-level state (re-attach
analyzers at construction; the rogue-AP guard restarts its in-window
accumulation after a resume).
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

#: Checkpoint format identifier and current version.
CHECKPOINT_FORMAT = "repro-stream-checkpoint"
CHECKPOINT_VERSION = 1


def save_checkpoint(engine, path: str | Path) -> Path:
    """Write one engine's resumable state to a JSON checkpoint file.

    The write is atomic (temp file + ``os.replace`` in the target
    directory): a crash mid-write — the very failure periodic
    checkpointing guards against — leaves the previous good snapshot
    in place instead of a truncated file.
    """
    target = Path(path)
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "stats": dataclasses.asdict(engine.stats),
        "windows": engine._windows.export_state(),
    }
    target.parent.mkdir(parents=True, exist_ok=True)
    scratch = target.with_name(target.name + ".tmp")
    scratch.write_text(json.dumps(payload) + "\n")
    os.replace(scratch, target)
    return target


def load_checkpoint(engine, path: str | Path) -> None:
    """Restore an engine from a checkpoint written by :func:`save_checkpoint`.

    The engine must be freshly constructed with the same builder
    factory and :class:`~repro.streaming.windows.WindowConfig` the
    snapshot was taken under (config mismatches raise ``ValueError``).
    """
    from repro.streaming.engine import StreamStats

    payload = json.loads(Path(path).read_text())
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a stream checkpoint: {path}")
    version = int(payload.get("version", 0))
    if not 1 <= version <= CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {version} "
            f"(this build reads versions 1..{CHECKPOINT_VERSION})"
        )
    engine._windows.restore_state(payload["windows"])
    engine.stats = StreamStats(**payload["stats"])
