"""Versioned on-disk format for reference databases (DESIGN.md §5).

A saved database is a directory of three files:

* ``meta.json`` — format name, version, layout (always ``packed``), the
  network parameter the signatures were built from, the device count,
  and the frame-type table (names and bin counts, in pack order);
* ``matrices.npz`` — the packed matrices: the device list as one
  ``uint64`` array plus, per frame type ``j``, the ``(N, bins)``
  float64 frequency matrix ``freq_j`` and the ``(N,)`` weight vector
  ``weight_j`` — exactly the arrays the matching engine multiplies, so
  a loaded database reproduces match scores bit for bit;
* ``devices.jsonl`` — one JSON object per device, in insertion order:
  MAC, the frame types the device exhibits (presence is *not*
  derivable from the matrices — an all-zero row is a legal histogram),
  and its observation counts.

Loading checks the three files against each other, so a store torn by
a crash between its writes is refused rather than misread.  The loaded
matrices become the database's cached pack through
:meth:`~repro.core.database.PackedDatabase.from_matrices`, the one
derivation of the unit rows (one vectorized row-normalisation per frame
type, no repack), and the signature histograms are views into the same
arrays (no duplication).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.dot11.mac import MacAddress
from repro.core.database import PackedDatabase, ReferenceDatabase
from repro.core.signature import Signature

#: On-disk format identifier and current version.
FORMAT_NAME = "repro-refdb"
FORMAT_VERSION = 1

_META_FILE = "meta.json"
_MATRICES_FILE = "matrices.npz"
_DEVICES_FILE = "devices.jsonl"
#: The one matrix layout.  ``meta.json`` still names it, so that older
#: builds, which knew a second layout, keep reading new stores.
_LAYOUT = "packed"


@dataclass(frozen=True)
class LoadedDatabase:
    """What :func:`load_database` returns."""

    database: ReferenceDatabase
    #: Network parameter the signatures were built from (``None`` when
    #: the saver did not record one).
    parameter: str | None
    version: int
    path: Path


def save_database(
    database: ReferenceDatabase,
    path: str | Path,
    parameter: str | None = None,
) -> Path:
    """Persist a reference database to a store directory.

    ``parameter`` records which network parameter the signatures were
    built from, so tools can re-create the right
    :class:`~repro.core.signature.SignatureBuilder` at load time.
    Returns the store path.
    """
    store = Path(path)
    store.mkdir(parents=True, exist_ok=True)
    entries = database.items()
    packed = database.packed()
    frame_types = list(packed.frame_types) if packed is not None else []
    arrays: dict[str, np.ndarray] = {
        "devices": np.array(
            [device.value for device, _ in entries], dtype=np.uint64
        )
    }
    for j, ftype in enumerate(frame_types):
        arrays[f"freq_{j}"] = packed.frequencies[ftype]
        arrays[f"weight_{j}"] = packed.weights[ftype]

    with open(store / _MATRICES_FILE, "wb") as handle:
        np.savez(handle, **arrays)

    with open(store / _DEVICES_FILE, "w") as handle:
        for i, (device, signature) in enumerate(entries):
            line = {
                "index": i,
                "mac": str(device),
                "frame_types": list(signature.histograms),
                "observation_counts": dict(signature.observation_counts),
            }
            handle.write(json.dumps(line, sort_keys=True))
            handle.write("\n")

    meta = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "layout": _LAYOUT,
        "parameter": parameter,
        "device_count": len(entries),
        "frame_types": frame_types,
        "bin_counts": {ftype: packed.bin_count(ftype) for ftype in frame_types},
    }
    (store / _META_FILE).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return store


def _read_meta(store: Path) -> dict:
    meta_path = store / _META_FILE
    if not meta_path.is_file():
        raise FileNotFoundError(f"not a reference database store: {store}")
    meta = json.loads(meta_path.read_text())
    if meta.get("format") != FORMAT_NAME:
        raise ValueError(f"unknown store format {meta.get('format')!r} at {store}")
    version = int(meta.get("version", 0))
    if not 1 <= version <= FORMAT_VERSION:
        raise ValueError(
            f"unsupported store version {version} at {store} "
            f"(this build reads versions 1..{FORMAT_VERSION})"
        )
    if meta.get("layout") != _LAYOUT:
        raise ValueError(
            f"unsupported store layout {meta.get('layout')!r} at {store}: "
            f"this build reads only the {_LAYOUT!r} layout; re-learn the database"
        )
    return meta


def _read_sidecar(store: Path, expected: int) -> list[dict]:
    lines = [
        json.loads(line)
        for line in (store / _DEVICES_FILE).read_text().splitlines()
        if line.strip()
    ]
    if len(lines) != expected:
        raise ValueError(
            f"device sidecar lists {len(lines)} devices, meta says {expected}"
        )
    return lines


def _matrix(arrays: dict, key: str, shape: tuple[int, ...], store: Path) -> np.ndarray:
    """One array of ``matrices.npz``, checked against the shape meta implies."""
    array = arrays.get(key)
    found = None if array is None else array.shape
    if found != shape:
        raise ValueError(
            f"torn store at {store}: {key} has shape {found}, "
            f"meta.json implies {shape}"
        )
    return array


def load_database(path: str | Path) -> LoadedDatabase:
    """Load a saved reference database, packed view included.

    The restored database matches the saved one bin for bin — match
    scores against it are bitwise identical (the matrices are the same
    float64 values, multiplied in the same shapes).  Raises
    ``ValueError`` when the three files disagree on the device count or
    a matrix shape, as they do after a crash between their writes.
    """
    store = Path(path)
    meta = _read_meta(store)
    count = int(meta["device_count"])
    sidecar = _read_sidecar(store, count)
    with np.load(store / _MATRICES_FILE) as archive:
        arrays = {key: archive[key] for key in archive.files}

    devices = [
        MacAddress(int(value))
        for value in _matrix(arrays, "devices", (count,), store)
    ]
    for line, device in zip(sidecar, devices):
        if MacAddress.parse(line["mac"]) != device:
            raise ValueError(
                f"sidecar/matrix device mismatch at index {line['index']}: "
                f"{line['mac']} vs {device}"
            )

    frequencies: dict[str, np.ndarray] = {}
    weights: dict[str, np.ndarray] = {}
    for j, ftype in enumerate(meta["frame_types"]):
        bins = int(meta["bin_counts"][ftype])
        frequencies[ftype] = _matrix(arrays, f"freq_{j}", (count, bins), store)
        weights[ftype] = _matrix(arrays, f"weight_{j}", (count,), store)
    signatures: dict[MacAddress, Signature] = {}
    for i, (line, device) in enumerate(zip(sidecar, devices)):
        present = line["frame_types"]
        signatures[device] = Signature(
            histograms={ftype: frequencies[ftype][i] for ftype in present},
            weights={ftype: float(weights[ftype][i]) for ftype in present},
            observation_counts={
                ftype: int(observed)
                for ftype, observed in line["observation_counts"].items()
            },
        )
    packed = PackedDatabase.from_matrices(tuple(devices), frequencies, weights)
    return LoadedDatabase(
        database=ReferenceDatabase._from_pack(signatures, packed),
        parameter=meta.get("parameter"),
        version=int(meta["version"]),
        path=store,
    )


def database_info(path: str | Path) -> dict:
    """Store metadata plus on-disk sizes, without loading matrices."""
    store = Path(path)
    meta = _read_meta(store)
    sizes = {
        name: (store / name).stat().st_size
        for name in (_META_FILE, _MATRICES_FILE, _DEVICES_FILE)
        if (store / name).is_file()
    }
    info = dict(meta)
    info["path"] = str(store)
    info["bytes"] = sizes
    info["total_bytes"] = sum(sizes.values())
    return info
