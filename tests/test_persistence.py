"""Tests for the on-disk database store and streaming checkpoints.

The two persistence contracts (DESIGN.md §5):

* ``load(save(db))`` restores the database bin for bin, the packed
  view equals a from-scratch rebuild, and match scores against the
  loaded database are **bitwise identical** (atol 0) — same float64
  matrices, same shapes, same products;
* a :class:`~repro.streaming.engine.StreamEngine` restored from a
  checkpoint and fed the remaining frames, in any chunking, emits
  exactly the events an uninterrupted run produces.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.dot11.mac import vendor_mac
from repro.core.database import PackedDatabase, ReferenceDatabase
from repro.core.matcher import batch_match_signatures
from repro.core.parameters import InterArrivalTime
from repro.core.signature import Signature, SignatureBuilder
from repro.persistence import (
    database_info,
    load_database,
    save_database,
)
from repro.streaming import (
    CollectingSink,
    StreamEngine,
    StreamingSignatureBuilder,
    WindowConfig,
    table_chunks,
)
from tests.oracles import pack
from tests.test_batch_matching import random_database, random_signature
from tests.test_database import assert_pack_equivalent


def assert_databases_equal(a: ReferenceDatabase, b: ReferenceDatabase) -> None:
    """Bin-for-bin equality, including device and frame-type structure."""
    assert a.devices == b.devices
    for (device_a, sig_a), (device_b, sig_b) in zip(a.items(), b.items()):
        assert device_a == device_b
        assert list(sig_a.histograms) == list(sig_b.histograms)
        for ftype in sig_a.histograms:
            assert np.array_equal(sig_a.histograms[ftype], sig_b.histograms[ftype])
        assert sig_a.weights == sig_b.weights
        assert sig_a.observation_counts == sig_b.observation_counts


class TestStoreRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        rng = np.random.default_rng(50)
        database = random_database(rng, devices=30)
        save_database(database, tmp_path / "store", parameter="interarrival")
        loaded = load_database(tmp_path / "store")
        assert loaded.parameter == "interarrival"
        assert_databases_equal(database, loaded.database)

    def test_match_scores_bitwise_identical(self, tmp_path):
        rng = np.random.default_rng(51)
        database = random_database(rng, devices=40)
        candidates = [random_signature(rng) for _ in range(20)]
        reference = batch_match_signatures(candidates, database)
        save_database(database, tmp_path / "store")
        loaded = load_database(tmp_path / "store").database
        assert np.array_equal(
            batch_match_signatures(candidates, loaded), reference
        )  # atol 0, bit for bit

    def test_loaded_pack_equals_fresh_rebuild_without_repack(
        self, tmp_path, monkeypatch
    ):
        rng = np.random.default_rng(52)
        database = random_database(rng, devices=25)
        save_database(database, tmp_path / "store")

        def repack(entries):
            raise AssertionError("loading repacked the signatures")

        with monkeypatch.context() as patch:
            patch.setattr(PackedDatabase, "from_signatures", repack)
            loaded = load_database(tmp_path / "store").database
            packed = loaded.packed()
        rebuilt = pack(loaded.items())
        assert packed.devices == rebuilt.devices
        assert packed.frame_types == rebuilt.frame_types  # order preserved
        for ftype in rebuilt.frame_types:
            assert np.array_equal(packed.frequencies[ftype], rebuilt.frequencies[ftype])
            assert np.array_equal(packed.weights[ftype], rebuilt.weights[ftype])
            assert np.array_equal(packed.normalized[ftype], rebuilt.normalized[ftype])

    def test_loaded_database_stays_mutable_and_consistent(self, tmp_path):
        rng = np.random.default_rng(53)
        database = random_database(rng, devices=12)
        save_database(database, tmp_path / "store")
        loaded = load_database(tmp_path / "store").database
        loaded.add(vendor_mac("00:18:f8", 99), random_signature(rng))
        loaded.remove(loaded.devices[0])
        loaded.add(loaded.devices[1], random_signature(rng))
        assert_pack_equivalent(loaded)

    def test_empty_database(self, tmp_path):
        save_database(ReferenceDatabase(), tmp_path / "store")
        loaded = load_database(tmp_path / "store")
        assert len(loaded.database) == 0
        assert loaded.database.packed() is None

    def test_signature_without_observation_counts(self, tmp_path):
        database = ReferenceDatabase()
        histogram = np.zeros(5)
        histogram[0] = 1.0
        database.add(
            vendor_mac("00:13:e8", 1), Signature({"Data": histogram}, {"Data": 1.0})
        )
        save_database(database, tmp_path / "store")
        loaded = load_database(tmp_path / "store").database
        assert_databases_equal(database, loaded)


class TestStoreFormat:
    def test_ragged_store_is_refused(self, tmp_path):
        """A store in the second layout older builds wrote, for
        databases whose signatures disagreed on a frame type's width."""
        store = tmp_path / "store"
        store.mkdir()
        devices = [vendor_mac("00:13:e8", 1), vendor_mac("00:13:e8", 2)]
        with open(store / "matrices.npz", "wb") as handle:
            np.savez(
                handle,
                devices=np.array([d.value for d in devices], dtype=np.uint64),
                sig_0_0=np.eye(4)[1],
                sig_1_0=np.eye(9)[5],
            )
        (store / "devices.jsonl").write_text(
            "".join(
                json.dumps(
                    {
                        "index": i,
                        "mac": str(device),
                        "frame_types": ["Data"],
                        "observation_counts": {"Data": 60},
                        "weights": {"Data": 1.0},
                    }
                )
                + "\n"
                for i, device in enumerate(devices)
            )
        )
        meta = {
            "format": "repro-refdb",
            "version": 1,
            "layout": "ragged",
            "parameter": "interarrival",
            "device_count": 2,
            "frame_types": ["Data"],
            "bin_counts": {},
        }
        (store / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="'ragged'.*re-learn"):
            load_database(store)

    @pytest.mark.parametrize(
        "newer_devices, newer_bins",
        [(6, 40), (3, 20)],
        ids=["more-devices", "other-width"],
    )
    def test_torn_store_is_refused(self, tmp_path, newer_devices, newer_bins):
        """A crash between the store's writes can leave a newer
        ``matrices.npz`` beside the older ``meta.json`` and sidecar."""
        older = random_database(np.random.default_rng(59), devices=3)
        newer = random_database(
            np.random.default_rng(59), devices=newer_devices, bins=newer_bins
        )
        save_database(older, tmp_path / "store")
        save_database(newer, tmp_path / "newer")
        (tmp_path / "store" / "matrices.npz").write_bytes(
            (tmp_path / "newer" / "matrices.npz").read_bytes()
        )
        with pytest.raises(ValueError, match="torn store"):
            load_database(tmp_path / "store")

    def test_info_without_loading(self, tmp_path):
        rng = np.random.default_rng(55)
        save_database(
            random_database(rng, devices=8), tmp_path / "store", parameter="size"
        )
        info = database_info(tmp_path / "store")
        assert info["device_count"] == 8
        assert info["parameter"] == "size"
        assert info["layout"] == "packed"
        assert info["total_bytes"] > 0

    def test_missing_store_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_database(tmp_path / "absent")

    def test_unknown_version_rejected(self, tmp_path):
        rng = np.random.default_rng(56)
        save_database(random_database(rng, devices=2), tmp_path / "store")
        meta_path = tmp_path / "store" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="version"):
            load_database(tmp_path / "store")

    def test_unknown_format_rejected(self, tmp_path):
        rng = np.random.default_rng(57)
        save_database(random_database(rng, devices=2), tmp_path / "store")
        meta_path = tmp_path / "store" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format"] = "something-else"
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="format"):
            load_database(tmp_path / "store")

    def test_sidecar_device_count_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(58)
        save_database(random_database(rng, devices=3), tmp_path / "store")
        sidecar = tmp_path / "store" / "devices.jsonl"
        lines = sidecar.read_text().splitlines()
        sidecar.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="sidecar"):
            load_database(tmp_path / "store")


def make_engine(parameter, database, sink, window_s=10.0):
    return StreamEngine(
        lambda: StreamingSignatureBuilder(parameter, min_observations=30),
        database=database,
        window=WindowConfig(window_s=window_s),
        sinks=[sink],
    )


class TestStreamCheckpoint:
    @pytest.fixture(scope="class")
    def setting(self, small_office_trace):
        frames = small_office_trace.frames
        parameter = InterArrivalTime()
        builder = SignatureBuilder(parameter, min_observations=30)
        database = ReferenceDatabase.from_training_table(
            builder, small_office_trace.table().slice_rows(0, len(frames) // 2)
        )
        return frames, parameter, database

    @pytest.mark.parametrize("fraction", [0.1, 0.4, 0.73])
    def test_resume_reproduces_uninterrupted_run(self, tmp_path, setting, fraction):
        frames, parameter, database = setting
        whole_sink = CollectingSink()
        whole = make_engine(parameter, database, whole_sink)
        whole.run_chunked(table_chunks(frames, 1000))

        cut = int(len(frames) * fraction)
        first_sink = CollectingSink()
        first = make_engine(parameter, database, first_sink)
        for chunk in table_chunks(frames[:cut], 700):
            first.process_chunk(chunk)
        checkpoint = first.checkpoint(tmp_path / "ck.json")

        second_sink = CollectingSink()
        second = make_engine(parameter, database, second_sink)
        second.restore(checkpoint)
        second.run_chunked(table_chunks(frames[cut:], 700))

        assert first_sink.events + second_sink.events == whole_sink.events
        assert second.stats == whole.stats

    def test_config_mismatch_rejected(self, tmp_path, setting):
        frames, parameter, database = setting
        engine = make_engine(parameter, database, CollectingSink())
        for chunk in table_chunks(frames[:200]):
            engine.process_chunk(chunk)
        checkpoint = engine.checkpoint(tmp_path / "ck.json")
        other = make_engine(parameter, database, CollectingSink(), window_s=20.0)
        with pytest.raises(ValueError, match="window config"):
            other.restore(checkpoint)

    def test_builder_config_mismatch_rejected(self, tmp_path, setting):
        frames, parameter, database = setting
        engine = make_engine(parameter, database, CollectingSink())
        for chunk in table_chunks(frames[:500]):
            engine.process_chunk(chunk)
        checkpoint = engine.checkpoint(tmp_path / "ck.json")
        other = StreamEngine(
            lambda: StreamingSignatureBuilder(parameter, min_observations=7),
            database=database,
            window=WindowConfig(window_s=10.0),
        )
        with pytest.raises(ValueError, match="min_observations"):
            other.restore(checkpoint)

    def test_not_a_checkpoint_rejected(self, tmp_path, setting):
        _, parameter, database = setting
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"format": "something"}')
        engine = make_engine(parameter, database, CollectingSink())
        with pytest.raises(ValueError, match="checkpoint"):
            engine.restore(bogus)

    def tampered(self, tmp_path, setting, change) -> tuple:
        """A checkpoint after 500 frames with ``change`` applied to its
        payload, and a fresh engine to restore it into."""
        frames, parameter, database = setting
        engine = make_engine(parameter, database, CollectingSink())
        for chunk in table_chunks(frames[:500]):
            engine.process_chunk(chunk)
        path = engine.checkpoint(tmp_path / "ck.json")
        payload = json.loads(path.read_text())
        change(payload)
        path.write_text(json.dumps(payload))
        return path, make_engine(parameter, database, CollectingSink())

    @pytest.mark.parametrize("version", [1, 2])
    def test_version_1_checkpoint_refused(self, tmp_path, setting, version):
        """Format 2 dropped version 1's write-only fields, and format 3
        version 2's idle-eviction state; an older file is refused
        before the engine changes."""
        path, fresh = self.tampered(
            tmp_path, setting, lambda payload: payload.update(version=version)
        )
        with pytest.raises(ValueError, match=f"checkpoint version {version}"):
            fresh.restore(path)
        assert fresh.stats.frames == 0 and fresh._windows.open_windows == 0

    @pytest.mark.parametrize(
        "field", ["frames", "windows_closed", "candidates", "events", "peak_resident_devices"]
    )
    def test_negative_counter_refused(self, tmp_path, setting, field):
        path, fresh = self.tampered(
            tmp_path, setting, lambda payload: payload["stats"].update({field: -1})
        )
        with pytest.raises(ValueError, match=f"stats {field} is not a non-negative"):
            fresh.restore(path)
        assert fresh.stats.frames == 0 and fresh._windows.open_windows == 0

    def test_negative_event_type_count_refused(self, tmp_path, setting):
        def change(payload):
            payload["stats"]["events_by_type"]["WindowClosed"] = -2

        path, fresh = self.tampered(tmp_path, setting, change)
        with pytest.raises(ValueError, match="events_by_type\\['WindowClosed'\\]"):
            fresh.restore(path)

    @pytest.mark.parametrize("field", ["first_timestamp_us", "last_timestamp_us"])
    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), pytest.param(10**400, id="int-beyond-float")],
    )
    def test_timestamp_that_is_not_finite_refused(self, tmp_path, setting, field, value):
        path, fresh = self.tampered(
            tmp_path, setting, lambda payload: payload["stats"].update({field: value})
        )
        with pytest.raises(ValueError, match=f"stats {field} is not a finite number"):
            fresh.restore(path)
        assert fresh.stats.frames == 0 and fresh._windows.open_windows == 0

    def test_timestamps_running_backwards_refused(self, tmp_path, setting):
        def change(payload):
            stats = payload["stats"]
            stats["last_timestamp_us"] = stats["first_timestamp_us"] - 1.0

        path, fresh = self.tampered(tmp_path, setting, change)
        with pytest.raises(ValueError, match="last_timestamp_us .* runs backwards"):
            fresh.restore(path)

    def test_checkpoint_before_first_frame(self, tmp_path, setting):
        frames, parameter, database = setting
        engine = make_engine(parameter, database, CollectingSink())
        checkpoint = engine.checkpoint(tmp_path / "ck.json")
        sink = CollectingSink()
        resumed = make_engine(parameter, database, sink)
        resumed.restore(checkpoint)
        resumed.run_chunked(table_chunks(frames[:500]))
        assert resumed.stats.frames == 500
