"""Streaming-engine checkpoints: stop mid-capture, resume exactly.

A checkpoint is one JSON document capturing everything the
:class:`~repro.streaming.engine.StreamEngine` needs to close its open
windows and to resume:

* the stream counters (:class:`~repro.streaming.engine.StreamStats`);
* the :class:`~repro.streaming.windows.WindowManager` state — stream
  origin, next slide index, and every open window with its bounds,
  frame count, sender set and the per-device accumulators of its
  :class:`~repro.streaming.builder.StreamingSignatureBuilder`: bin
  counts and totals, and the builder's channel clock ``previous_t``.

Every piece is JSON-shaped already.  Format version 3 holds only what
a resumed engine reads: a window keeps every device it saw until it
closes, so no device carries a timestamp.  A file of an older version
is refused (version 2 also held each device's last-seen time and an
idle-sweep counter, version 1 fields nothing read back); restart that
capture.  Feeding the remaining frames to a restored engine, in any
chunking, produces exactly the events and stats an uninterrupted run
would have produced (pinned in ``tests/test_persistence.py`` and
``tests/test_streaming_chunked.py``).  Every reader of a checkpoint
checks its counts, MAC integers and clocks with :func:`checked_count`,
:func:`checked_mac` and :func:`checked_time` before it changes
anything.
Deliberately **not** captured: the reference database (persist it
with :mod:`repro.persistence.store` — it evolves independently of the
capture position) and the analyzers' own row-level state (re-attach
analyzers at construction; the rogue-AP guard restarts its in-window
accumulation after a resume).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from pathlib import Path

#: Checkpoint format identifier and current version.
CHECKPOINT_FORMAT = "repro-stream-checkpoint"
CHECKPOINT_VERSION = 3


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
    A malformed snapshot raises ``ValueError`` naming the field before
    the engine changes: a version other than :data:`CHECKPOINT_VERSION`,
    a negative or non-integer counter, a timestamp that is not finite or
    runs backwards, or what
    :meth:`~repro.streaming.windows.WindowManager.restore_state` refuses.
    """
    from repro.streaming.engine import StreamStats

    payload = json.loads(Path(path).read_text())
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a stream checkpoint: {path}")
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {version!r} in {path}: this build "
            f"reads version {CHECKPOINT_VERSION} only, so restart that capture"
        )
    stats = _checked_stats(StreamStats(**payload["stats"]))
    engine._windows.restore_state(payload["windows"])
    engine.stats = stats


def checked_count(value, name: str) -> int:
    """A checkpoint count: ``value`` if it is a non-negative integer,
    else ``ValueError`` naming the field ``name``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"checkpoint {name} is not a non-negative integer: {value!r}")
    return value


def checked_mac(value, name: str) -> int:
    """A checkpoint MAC integer: ``value`` if it is a 48-bit
    non-negative integer, else ``ValueError`` naming the field ``name``."""
    if checked_count(value, name) >= 1 << 48:
        raise ValueError(f"checkpoint {name}: {value!r} is not a 48-bit MAC integer")
    return value


def checked_time(value, name: str) -> float | None:
    """A checkpoint clock or timestamp: ``value`` if it is ``None`` or a
    finite number (an integer beyond float range is not), else
    ``ValueError`` naming the field ``name``."""
    if value is None:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return value
        except OverflowError:
            pass
    raise ValueError(f"checkpoint {name} is not a finite number: {value!r}")


def _checked_stats(stats):
    """``stats`` as restored, refused with ``ValueError`` (naming the
    field) unless every counter is a non-negative integer and the
    timestamps are both unset or finite and in order."""
    for name in (
        "frames", "windows_closed", "candidates", "events", "peak_resident_devices"
    ):
        checked_count(getattr(stats, name), f"stats {name}")
    for name, count in stats.events_by_type.items():
        checked_count(count, f"stats events_by_type[{name!r}]")
    first = checked_time(stats.first_timestamp_us, "stats first_timestamp_us")
    last = checked_time(stats.last_timestamp_us, "stats last_timestamp_us")
    if (first is None) != (last is None):
        raise ValueError(
            "checkpoint stats first_timestamp_us and last_timestamp_us must be "
            f"set together: {first!r}, {last!r}"
        )
    if first is not None and last < first:
        raise ValueError(
            f"checkpoint stats last_timestamp_us {last!r} runs backwards from "
            f"first_timestamp_us {first!r}"
        )
    return stats
