"""The reference database (learning phase).

Built from a training trace, the database stores one signature per
reference device (Section IV-B).  It assumes a clean learning stage —
the paper's pollution attack against this assumption is modelled in
:mod:`repro.applications.attacks`.

For the batch matching engine the database also exposes a *packed*
view (:meth:`ReferenceDatabase.packed`): per frame type, one
contiguous ``(N_devices, n_bins)`` frequency matrix, one ``(N_devices,)``
weight vector, and the unit-normalised frequency rows — so Algorithm 1
for cosine reduces to one matrix–vector product per frame type, and
every other measure to one row-wise pass over the frequency matrix (see
DESIGN.md "Batch matrix layout").

The pack is maintained **incrementally** (DESIGN.md §4): matrices live
in capacity-doubling buffers, so :meth:`add` costs amortised O(bins)
per frame type (one row write + one row normalisation) instead of the
full O(N·bins) repack, and :meth:`remove` one in-place row shift.
Databases whose signatures disagree on a frame type's bin count
(*ragged*) cannot be packed, and therefore cannot be matched; mutations
detect this and drop back to the full-rebuild path, so removing the
conflicting device restores the packed view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.dot11.capture import CapturedFrame
from repro.dot11.mac import MacAddress
from repro.core.signature import Signature, SignatureBuilder
from repro.core.similarity import normalize_rows


@dataclass
class MergeReport:
    """What :meth:`ReferenceDatabase.merge` did, device by device.

    Conflicting devices — present in both databases — end up in
    ``replaced`` (their signature was overwritten by the source, the
    default policy) or ``skipped`` (kept, under ``on_conflict="keep"``);
    the two are mutually exclusive per merge.
    """

    added: list[MacAddress] = field(default_factory=list)
    replaced: list[MacAddress] = field(default_factory=list)
    skipped: list[MacAddress] = field(default_factory=list)

    @property
    def conflicts(self) -> int:
        """Number of devices present in both databases."""
        return len(self.replaced) + len(self.skipped)

    def __bool__(self) -> bool:
        """True when the merge changed the target database."""
        return bool(self.added or self.replaced)


def merge_databases(target, source, on_conflict: str = "replace") -> MergeReport:
    """Fold ``source``'s devices into ``target``.

    The body of :meth:`ReferenceDatabase.merge`, also called directly
    by the ingest service's harvest merge.  Conflicting devices
    (present in both) follow ``on_conflict``:

    * ``"replace"`` (default) — the source signature wins
      (``report.replaced``);
    * ``"keep"`` — the target's signature wins (``report.skipped``);
    * ``"error"`` — raise ``ValueError`` before touching anything.
    """
    if on_conflict not in ("replace", "keep", "error"):
        raise ValueError(f"unknown merge policy: {on_conflict!r}")
    entries = source.items()
    if on_conflict == "error":
        conflicts = [device for device, _ in entries if device in target]
        if conflicts:
            raise ValueError(
                f"merge conflicts for {len(conflicts)} device(s): "
                f"{', '.join(str(device) for device in conflicts[:5])}"
            )
    report = MergeReport()
    for device, signature in entries:
        if device in target:
            if on_conflict == "keep":
                report.skipped.append(device)
                continue
            report.replaced.append(device)
        else:
            report.added.append(device)
        target.add(device, signature)
    return report


@dataclass(frozen=True, eq=False)
class PackedDatabase:
    """Contiguous per-frame-type matrix view of a reference database.

    Device order matches the database's insertion order, so row ``i``
    of every matrix describes ``devices[i]``.  Devices lacking a frame
    type get an all-zero frequency row and weight 0 — exactly the
    "missing type contributes 0" rule of Algorithm 1.
    """

    devices: tuple[MacAddress, ...]
    frame_types: tuple[str, ...]
    #: ftype → ``(N, n_bins)`` percentage-frequency matrix (the
    #: non-cosine measures score against it).
    frequencies: dict[str, np.ndarray]
    #: ftype → ``(N,)`` reference frame-type weights.
    weights: dict[str, np.ndarray]
    #: ftype → ``(N, n_bins)`` unit rows ``r_i/‖r_i‖`` (cosine fast path).
    normalized: dict[str, np.ndarray]

    def bin_count(self, ftype_key: str) -> int | None:
        """Histogram width of one frame type (``None`` if absent)."""
        matrix = self.frequencies.get(ftype_key)
        return None if matrix is None else int(matrix.shape[-1])


class _PackBuffers:
    """Growable backing store for the incremental packed view.

    Matrices are allocated with spare row capacity (doubling growth),
    so registering or replacing one device writes one row per frame
    type — amortised O(bins) — and removing one device shifts the rows
    behind it up in place.  :meth:`snapshot` wraps ``[:count]`` views
    into a :class:`PackedDatabase`; a snapshot therefore shares storage
    with the live buffers and is only guaranteed stable until the next
    membership change.
    """

    __slots__ = (
        "devices",
        "row_of",
        "bin_counts",
        "members",
        "frequencies",
        "weights",
        "normalized",
        "count",
        "capacity",
    )

    def __init__(self, capacity: int = 8) -> None:
        self.devices: list[MacAddress] = []
        self.row_of: dict[MacAddress, int] = {}
        self.bin_counts: dict[str, int] = {}
        #: ftype → number of devices exhibiting it; a frame type whose
        #: membership drops to zero is purged so its stale bin count
        #: cannot shape-clash with future signatures or candidates.
        self.members: dict[str, int] = {}
        self.frequencies: dict[str, np.ndarray] = {}
        self.weights: dict[str, np.ndarray] = {}
        self.normalized: dict[str, np.ndarray] = {}
        self.count = 0
        self.capacity = capacity

    @classmethod
    def from_signatures(
        cls, entries: list[tuple[MacAddress, Signature]]
    ) -> "_PackBuffers | None":
        """Full build; ``None`` when the signatures are ragged."""
        buffers = cls(capacity=max(8, len(entries)))
        for device, signature in entries:
            if not buffers.set_row(device, signature, previous=None):
                return None
        return buffers

    @classmethod
    def adopt(
        cls,
        devices: list[MacAddress],
        frequencies: dict[str, np.ndarray],
        weights: dict[str, np.ndarray],
        members: dict[str, int],
    ) -> "_PackBuffers":
        """Wrap already-packed matrices into live buffers.

        The persistence layer restores a saved database through this:
        the ``(N, bins)`` frequency matrices and ``(N,)`` weight vectors
        come straight off disk, so rebuilding the incremental view costs
        one vectorized row-normalisation per frame type instead of the
        per-signature Python repack of :meth:`from_signatures`.  The
        matrices are copied into growable buffers; callers keep
        ownership of their arrays.
        """
        buffers = cls(capacity=max(8, len(devices)))
        buffers.devices = list(devices)
        buffers.row_of = {device: row for row, device in enumerate(devices)}
        buffers.count = len(devices)
        buffers.members = dict(members)
        for ftype_key, matrix in frequencies.items():
            bins = int(matrix.shape[-1])
            buffers.bin_counts[ftype_key] = bins
            frequency_buffer = np.zeros((buffers.capacity, bins), dtype=np.float64)
            frequency_buffer[: buffers.count] = matrix
            buffers.frequencies[ftype_key] = frequency_buffer
            normalized_buffer = np.zeros((buffers.capacity, bins), dtype=np.float64)
            normalized_buffer[: buffers.count] = normalize_rows(
                frequency_buffer[: buffers.count]
            )
            buffers.normalized[ftype_key] = normalized_buffer
            weight_buffer = np.zeros(buffers.capacity, dtype=np.float64)
            weight_buffer[: buffers.count] = weights[ftype_key]
            buffers.weights[ftype_key] = weight_buffer
        return buffers

    def _grow(self) -> None:
        new_capacity = max(8, self.capacity * 2)
        for ftype_key, bins in self.bin_counts.items():
            frequencies = np.zeros((new_capacity, bins), dtype=np.float64)
            frequencies[: self.count] = self.frequencies[ftype_key][: self.count]
            self.frequencies[ftype_key] = frequencies
            normalized = np.zeros((new_capacity, bins), dtype=np.float64)
            normalized[: self.count] = self.normalized[ftype_key][: self.count]
            self.normalized[ftype_key] = normalized
            weights = np.zeros(new_capacity, dtype=np.float64)
            weights[: self.count] = self.weights[ftype_key][: self.count]
            self.weights[ftype_key] = weights
        self.capacity = new_capacity

    def set_row(
        self, device: MacAddress, signature: Signature, previous: Signature | None
    ) -> bool:
        """Write one device's row; ``False`` on a bin-count conflict.

        ``previous`` is the signature being replaced (``None`` for a
        new device) — needed to keep the frame-type membership counts
        exact.  A conflict leaves the buffers unusable (partial write);
        the caller must discard them and fall back to the full rebuild.
        """
        for ftype_key, histogram in signature.histograms.items():
            bins = int(histogram.shape[-1])
            if self.bin_counts.setdefault(ftype_key, bins) != bins:
                return False
            if ftype_key not in self.frequencies:
                self.frequencies[ftype_key] = np.zeros(
                    (self.capacity, bins), dtype=np.float64
                )
                self.normalized[ftype_key] = np.zeros(
                    (self.capacity, bins), dtype=np.float64
                )
                self.weights[ftype_key] = np.zeros(self.capacity, dtype=np.float64)
        row = self.row_of.get(device)
        if row is None:
            if self.count == self.capacity:
                self._grow()
            row = self.count
            self.count += 1
            self.devices.append(device)
            self.row_of[device] = row
        before = set(previous.histograms) if previous is not None else set()
        now = set(signature.histograms)
        for ftype_key in now - before:
            self.members[ftype_key] = self.members.get(ftype_key, 0) + 1
        for ftype_key in list(self.bin_counts):
            histogram = signature.histogram(ftype_key)
            if histogram is None:
                # Replacement may drop a frame type: clear the old row.
                self.frequencies[ftype_key][row] = 0.0
                self.normalized[ftype_key][row] = 0.0
                self.weights[ftype_key][row] = 0.0
                if ftype_key in before:
                    self._drop_member(ftype_key)
                continue
            self.frequencies[ftype_key][row] = histogram
            self.normalized[ftype_key][row] = normalize_rows(
                self.frequencies[ftype_key][row]
            )
            self.weights[ftype_key][row] = signature.weight(ftype_key)
        return True

    def remove_row(self, device: MacAddress, signature: Signature) -> None:
        """Drop one device, shifting later rows up in place."""
        row = self.row_of.pop(device)
        keep = self.count - 1
        for ftype_key in self.bin_counts:
            self.frequencies[ftype_key][row:keep] = self.frequencies[ftype_key][
                row + 1 : self.count
            ]
            self.frequencies[ftype_key][keep] = 0.0
            self.normalized[ftype_key][row:keep] = self.normalized[ftype_key][
                row + 1 : self.count
            ]
            self.normalized[ftype_key][keep] = 0.0
            self.weights[ftype_key][row:keep] = self.weights[ftype_key][
                row + 1 : self.count
            ]
            self.weights[ftype_key][keep] = 0.0
        del self.devices[row]
        for shifted in self.devices[row:]:
            self.row_of[shifted] -= 1
        self.count = keep
        for ftype_key in signature.histograms:
            self._drop_member(ftype_key)

    def _drop_member(self, ftype_key: str) -> None:
        """Decrement a frame type's membership, purging it at zero."""
        remaining = self.members.get(ftype_key, 0) - 1
        if remaining > 0:
            self.members[ftype_key] = remaining
            return
        self.members.pop(ftype_key, None)
        self.bin_counts.pop(ftype_key, None)
        self.frequencies.pop(ftype_key, None)
        self.normalized.pop(ftype_key, None)
        self.weights.pop(ftype_key, None)

    def snapshot(self) -> PackedDatabase:
        """The current matrices as an (aliasing) :class:`PackedDatabase`."""
        return PackedDatabase(
            devices=tuple(self.devices),
            frame_types=tuple(self.bin_counts),
            frequencies={
                f: matrix[: self.count] for f, matrix in self.frequencies.items()
            },
            weights={f: vector[: self.count] for f, vector in self.weights.items()},
            normalized={
                f: matrix[: self.count] for f, matrix in self.normalized.items()
            },
        )


class ReferenceDatabase:
    """Signatures of the known (authorised) devices."""

    def __init__(self) -> None:
        self._signatures: dict[MacAddress, Signature] = {}
        self._buffers: _PackBuffers | None = None
        self._packed: PackedDatabase | None = None
        self._packed_stale = True

    @classmethod
    def from_training(
        cls, builder: SignatureBuilder, frames: list[CapturedFrame]
    ) -> "ReferenceDatabase":
        """Learning phase: one signature per device in the training trace."""
        database = cls()
        for sender, signature in builder.build(frames).items():
            database.add(sender, signature)
        return database

    @classmethod
    def from_training_table(
        cls, builder: SignatureBuilder, table
    ) -> "ReferenceDatabase":
        """:meth:`from_training` over a columnar
        :class:`~repro.traces.table.FrameTable`.

        Devices are registered in first-observation order, the order
        :meth:`SignatureBuilder.build_table` emits.
        """
        database = cls()
        for sender, signature in builder.build_table(table).items():
            database.add(sender, signature)
        return database

    @classmethod
    def _restore(
        cls,
        signatures: dict[MacAddress, Signature],
        buffers: _PackBuffers | None,
    ) -> "ReferenceDatabase":
        """Rebuild a database around pre-packed buffers (persistence).

        ``buffers`` must describe exactly ``signatures`` in its device
        order (``None`` for ragged databases, which re-pack lazily via
        the full rebuild on first :meth:`packed`).
        """
        database = cls()
        database._signatures = dict(signatures)
        database._buffers = buffers
        return database

    def add(self, device: MacAddress, signature: Signature) -> None:
        """Register (or replace) one reference device's signature.

        With a live packed view this writes one matrix row per frame
        type (amortised O(bins)) instead of repacking the database.
        """
        previous = self._signatures.get(device)
        self._signatures[device] = signature
        if self._buffers is not None and not self._buffers.set_row(
            device, signature, previous
        ):
            self._buffers = None  # bin-count conflict: pack became ragged
        self._packed_stale = True

    def remove(self, device: MacAddress) -> bool:
        """Forget a reference device; ``False`` (no-op) if unknown.

        Removal can resolve a bin-count conflict, in which case the
        next :meth:`packed` call rebuilds the matrix view in full.
        """
        signature = self._signatures.pop(device, None)
        if signature is None:
            return False
        if self._buffers is not None:
            self._buffers.remove_row(device, signature)
        self._packed_stale = True
        return True

    def get(self, device: MacAddress) -> Signature | None:
        """Signature of one device, if known."""
        return self._signatures.get(device)

    def merge(
        self, source: "ReferenceDatabase", on_conflict: str = "replace"
    ) -> MergeReport:
        """Fold another database's devices into this one.

        Conflict policy per :func:`merge_databases`.  Insertion order:
        existing devices keep their rows, new devices append in the
        source's order — so merging databases learnt from consecutive
        captures behaves like learning them in sequence.
        """
        return merge_databases(self, source, on_conflict)

    def packed(self) -> PackedDatabase | None:
        """The cached matrix view (``None`` for empty/ragged databases).

        Maintained incrementally across :meth:`add`/:meth:`remove`; the
        returned snapshot shares storage with the live buffers and is
        only guaranteed stable until the next membership change.
        Mutating a stored :class:`Signature` *in place* is not tracked
        — re-:meth:`add` it to refresh the pack.
        """
        if self._packed_stale:
            if not self._signatures:
                self._packed = None
            else:
                if self._buffers is None:
                    self._buffers = _PackBuffers.from_signatures(
                        list(self._signatures.items())
                    )
                self._packed = (
                    self._buffers.snapshot() if self._buffers is not None else None
                )
            self._packed_stale = False
        return self._packed

    def __contains__(self, device: MacAddress) -> bool:
        return device in self._signatures

    def __len__(self) -> int:
        return len(self._signatures)

    def __iter__(self) -> Iterator[MacAddress]:
        return iter(self._signatures)

    def items(self) -> list[tuple[MacAddress, Signature]]:
        """(device, signature) pairs in insertion order.

        Returns a snapshot list, so callers may :meth:`add`/:meth:`remove`
        while iterating.
        """
        return list(self._signatures.items())

    @property
    def devices(self) -> list[MacAddress]:
        """All reference devices (a snapshot, safe to mutate against)."""
        return list(self._signatures)
