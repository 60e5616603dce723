"""Multi-sensor ingest service (DESIGN.md §9).

The production deployment of the paper's pipeline: N capture sensors
stream columnar chunks over a length-prefixed wire format
(:mod:`~repro.service.wire`) into one long-running
:class:`IngestServer`, which partitions each sensor's traffic across
shard engines with a consistent-hash ring
(:class:`~repro.service.router.ShardRouter`), harvests every closed
window's gated signatures, and merges the lot — deterministically —
into one shared reference database.  :func:`run_inline` is the
sequential no-sockets reference the service is bit-for-bit equivalent
to.
"""

from repro.service.router import ShardRouter
from repro.service.server import (
    IngestServer,
    InlineResult,
    ReferenceHarvester,
    SensorPipeline,
    SensorStats,
    ServiceConfig,
    ServiceStats,
    merge_harvests,
    run_inline,
)
from repro.service.session import SensorSession, SessionReport
from repro.service.wire import (
    RECORD_CHUNK,
    RECORD_END,
    RECORD_HELLO,
    WIRE_VERSION,
    WireError,
    decode_chunk,
    decode_json,
    encode_chunk,
    encode_json,
    encode_record,
    iter_records,
    read_record,
)

__all__ = [
    "IngestServer",
    "InlineResult",
    "RECORD_CHUNK",
    "RECORD_END",
    "RECORD_HELLO",
    "ReferenceHarvester",
    "SensorPipeline",
    "SensorSession",
    "SensorStats",
    "ServiceConfig",
    "ServiceStats",
    "SessionReport",
    "ShardRouter",
    "WIRE_VERSION",
    "WireError",
    "decode_chunk",
    "decode_json",
    "encode_chunk",
    "encode_json",
    "encode_record",
    "iter_records",
    "merge_harvests",
    "read_record",
    "run_inline",
]
