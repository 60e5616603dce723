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
DESIGN.md "Batch matrix layout").  The unit rows are derived in one
place, :meth:`PackedDatabase.from_matrices`, and stored column-major,
so that their transpose, the matching GEMM's right-hand operand, is
C-contiguous.

The pack is built on demand: :meth:`ReferenceDatabase.add` and
:meth:`ReferenceDatabase.remove` only drop the cached pack, and the
next :meth:`ReferenceDatabase.packed` call rebuilds it in one pass per
frame type.  Every frame type has one histogram width across the
database, so the pack is always rectangular: :meth:`add` refuses a
signature whose width disagrees with the other devices'.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.dot11.mac import MacAddress
from repro.core.signature import Signature, SignatureBuilder
from repro.core.similarity import normalize_rows
from repro.traces.table import FrameTable


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

    A source histogram whose width disagrees with the target's for its
    frame type raises ``ValueError`` from :meth:`ReferenceDatabase.add`;
    the source devices before it are merged by then.
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
    #: ftype → ``(N, n_bins)`` unit rows ``r_i/‖r_i‖`` (cosine fast
    #: path), stored column-major so that their transpose, the GEMM's
    #: right-hand operand, is C-contiguous.
    normalized: dict[str, np.ndarray]

    @classmethod
    def from_matrices(
        cls,
        devices: tuple[MacAddress, ...],
        frequencies: dict[str, np.ndarray],
        weights: dict[str, np.ndarray],
    ) -> "PackedDatabase":
        """The pack of these frequency matrices and weight vectors,
        frame types in ``frequencies`` order.

        The one derivation of :attr:`normalized`: each frequency
        matrix's :func:`~repro.core.similarity.normalize_rows`, copied
        to column-major order, which leaves every value as it was.
        """
        return cls(
            devices=devices,
            frame_types=tuple(frequencies),
            frequencies=frequencies,
            weights=weights,
            normalized={
                ftype_key: np.asfortranarray(normalize_rows(matrix))
                for ftype_key, matrix in frequencies.items()
            },
        )

    def bin_count(self, ftype_key: str) -> int | None:
        """Histogram width of one frame type (``None`` if absent)."""
        matrix = self.frequencies.get(ftype_key)
        return None if matrix is None else int(matrix.shape[-1])

    @classmethod
    def from_signatures(
        cls, entries: list[tuple[MacAddress, Signature]]
    ) -> "PackedDatabase":
        """Pack signatures whose frame types agree on their widths.

        One pass per frame type: the histograms of the devices that
        exhibit it are stacked into their rows of a zero matrix, then
        :meth:`from_matrices` derives the unit rows.  Frame types keep
        their first-seen order.
        """
        count = len(entries)
        holders: dict[str, list[int]] = {}
        for row, (_, signature) in enumerate(entries):
            for ftype_key in signature.histograms:
                holders.setdefault(ftype_key, []).append(row)
        frequencies: dict[str, np.ndarray] = {}
        weights: dict[str, np.ndarray] = {}
        for ftype_key, rows in holders.items():
            signatures = [entries[row][1] for row in rows]
            stacked = np.stack([s.histograms[ftype_key] for s in signatures])
            matrix = np.zeros((count, stacked.shape[-1]), dtype=np.float64)
            matrix[rows] = stacked
            weight = np.zeros(count, dtype=np.float64)
            weight[rows] = [s.weight(ftype_key) for s in signatures]
            frequencies[ftype_key] = matrix
            weights[ftype_key] = weight
        return cls.from_matrices(
            tuple(device for device, _ in entries), frequencies, weights
        )


class ReferenceDatabase:
    """Signatures of the known (authorised) devices."""

    def __init__(self) -> None:
        self._signatures: dict[MacAddress, Signature] = {}
        #: ftype → the histogram width every device exhibiting it has.
        #: May keep a frame type no device exhibits any more.
        self._widths: dict[str, int] = {}
        self._packed: PackedDatabase | None = None

    @classmethod
    def from_training_table(
        cls, builder: SignatureBuilder, table: FrameTable
    ) -> "ReferenceDatabase":
        """Learning phase: one signature per device in a training
        :class:`~repro.traces.table.FrameTable`.

        Devices are registered in first-observation order, the order
        :meth:`SignatureBuilder.build_table` emits.
        """
        database = cls()
        for sender, signature in builder.build_table(table).items():
            database.add(sender, signature)
        return database

    @classmethod
    def _from_pack(
        cls, signatures: dict[MacAddress, Signature], packed: PackedDatabase
    ) -> "ReferenceDatabase":
        """A database whose cached pack is already built (the store's loader).

        ``packed`` must hold what :meth:`packed` would rebuild from
        ``signatures``, frame type for frame type and row for row.
        """
        database = cls()
        database._signatures = dict(signatures)
        database._widths = {
            ftype_key: int(matrix.shape[-1])
            for ftype_key, matrix in packed.frequencies.items()
        }
        if signatures:
            database._packed = packed
        return database

    def add(self, device: MacAddress, signature: Signature) -> None:
        """Register (or replace) one reference device's signature.

        Raises ``ValueError``, leaving the database unchanged, when one
        of the signature's histograms differs in width from the ones
        other devices hold for that frame type.
        """
        widths = {
            ftype_key: int(histogram.shape[-1])
            for ftype_key, histogram in signature.histograms.items()
        }
        for ftype_key, width in widths.items():
            held = self._widths.get(ftype_key, width)
            if held != width and any(
                ftype_key in other.histograms
                for other_device, other in self._signatures.items()
                if other_device != device
            ):
                raise ValueError(
                    f"frame type {ftype_key!r}: histogram has {width} bins, "
                    f"other reference devices hold {held}"
                )
        self._widths.update(widths)
        self._signatures[device] = signature
        self._packed = None

    def remove(self, device: MacAddress) -> bool:
        """Forget a reference device; ``False`` (no-op) if unknown."""
        if self._signatures.pop(device, None) is None:
            return False
        self._packed = None
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
        """The matrix view (``None`` for an empty database).

        Cached until the next :meth:`add`/:meth:`remove`, then rebuilt
        by :meth:`PackedDatabase.from_signatures`.  Mutating a stored
        :class:`Signature` *in place* is not tracked — re-:meth:`add`
        it to refresh the pack.
        """
        if self._packed is None and self._signatures:
            self._packed = PackedDatabase.from_signatures(self.items())
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
