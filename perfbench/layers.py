"""Per-layer metrics of the traced run, each with its source workload.

Every entry is ``name -> (value, unit, workload, what it should move)``.
Timings come from the spans ``spans.py`` records in the server process:
``*_us`` figures are the median *self* time of one call (its duration
minus its child spans), ``*_ms`` and ``*_s`` wait figures the median
inclusive duration.  Counts come from the program's own ``/metrics``
over a count-bounded ``lab`` pass, so they repeat exactly for a seed.
"""

from __future__ import annotations

from workloads import exact_counts


def per_layer(lab_plain, lab_traced, room, rst) -> dict:
    """(value, unit, source workload, what it should move) per metric."""
    def span(result, name, key="self_p50_s", scale=1e6):
        return result.spans[name][key] * scale

    counts = exact_counts(lab_plain)
    n = max(1, counts["sessions"])
    fsyncs = lab_plain.prom.get("repro_persist_fsyncs_total", 0.0)
    batches = room.prom.get("repro_repl_shipped_batches_total", 0.0)
    phases = room.notes["traces"]["phase_p50_ms"]
    client_p50 = room.notes["session_p50_ms"]
    lab_tput = lab_traced.metrics["sessions_per_s"]
    spans_ms = {name: span(room, name, "total_p50_s", 1e3)
                for name in room.spans}
    ops = counts["steps"] / n
    # the blocking path of one classroom session, from the spans around
    # the layer calls it makes in order
    path_ms = (
        spans_ms.get("gateway.frame_decode", 0.0)
        + spans_ms.get("gateway.ops_parse", 0.0)
        + spans_ms.get("serve.submit", 0.0)
        + spans_ms.get("runtime.new_engine", 0.0)
        + ops * spans_ms.get("serve.step", 0.0)
        + ops * spans_ms.get("persist.append", 0.0)
        + spans_ms.get("runtime.digest", 0.0)
        + spans_ms.get("persist.wait_durable", 0.0)
        + 2 * spans_ms.get("gateway.frame_encode", 0.0)
    )
    lat = "lab/sessions_per_s"
    # restart is a traced pass, not a workload: its recovery time is
    # reported here, per layer, rather than gated
    rec = "restart.recovery_s"
    out = {
        "gateway.frame_encode_us": (span(lab_traced, "gateway.frame_encode"), "us", "lab", lat),
        "gateway.frame_decode_us": (span(lab_traced, "gateway.frame_decode"), "us", "lab", lat),
        "gateway.ops_parse_us": (span(lab_traced, "gateway.ops_parse"), "us", "lab", lat),
        "gateway.frames_per_session": (counts["frames"] / n, "count", "lab", lat),
        "gateway.wire_bytes_per_session": (counts["wire_bytes"] / n, "bytes", "lab", lat),
        "serve.submit_us": (span(room, "serve.submit"), "us", "classroom", "classroom/admit_p50_ms"),
        "serve.step_us": (span(lab_traced, "serve.step"), "us", "lab", lat),
        "serve.steps_per_tick": (lab_plain.server["steps"] / max(1, lab_plain.server["busy_ticks"]), "count", "lab", lat),
        "serve.rejected": (sum(r.notes["rejected"] for r in (lab_plain, lab_traced, room, rst)), "count", "all", "failed"),
        "runtime.new_engine_us": (span(lab_traced, "runtime.new_engine"), "us", "lab", f"{lat}, {rec}"),
        "runtime.apply_op_us": (span(lab_traced, "runtime.apply_op"), "us", "lab", f"{lat}, {rec}"),
        "runtime.digest_us": (span(lab_traced, "runtime.digest"), "us", "lab", f"{lat}, {rec}"),
        "runtime.ops_per_session": (ops, "count", "lab", f"{lat}, {rec}"),
        "persist.append_us": (span(lab_traced, "persist.append"), "us", "lab", f"{lat}, lab recovery_s (printed)"),
        "persist.records_per_session": (counts["wal_records"] / n, "count", "lab", f"{lat}, lab recovery_s (printed)"),
        "persist.wal_bytes_per_session": (counts["wal_bytes"] / n, "bytes", "lab", f"{lat}, lab recovery_s (printed)"),
        "persist.fsyncs_per_session": (fsyncs / n, "count", "lab", lat),
        "persist.records_per_fsync": (counts["wal_records"] / max(1.0, fsyncs), "count", "lab", lat),
        "persist.wait_durable_ms": (span(room, "persist.wait_durable", "total_p50_s", 1e3), "ms", "classroom", "classroom/session_p50_ms"),
        "persist.snapshot_write_us": (span(rst, "persist.snapshot_write"), "us", "restart", rec),
        "persist.recover_shard_s": (span(rst, "persist.recover_shard", "total_p50_s", 1.0), "s", "restart", rec),
        "persist.scan_journal_s": (span(rst, "persist.scan_journal", "total_p50_s", 1.0), "s", "restart", f"lab recovery_s (printed), {rec}"),
        "persist.rebuild_engine_us": (span(rst, "persist.rebuild_engine", "total_p50_s"), "us", "restart", rec),
        "persist.recovery_fsyncs_per_session": (rst.notes["ready"].get("recover_fsyncs", 0) / rst.notes["recovered"], "count", "restart", rec),
        "persist.crash_image_bytes": (rst.counts["image_bytes"], "bytes", "restart", "restart.image_write_s"),
        "persist.crash_image_records": (rst.counts["image_records"], "count", "restart", "restart.image_write_s"),
        "restart.recovery_s": (rst.metrics["recovery_s"], "s", "restart", "-"),
        "restart.image_write_s": (rst.notes["image_write_s"], "s", "restart", "-"),
        "persist.durability_timeouts": (sum(r.notes["durability_timeouts"] for r in (lab_plain, lab_traced, room, rst)), "count", "all", "failed"),
        "replicate.quorum_wait_ms": (span(room, "replicate.quorum_wait", "total_p50_s", 1e3), "ms", "classroom", "classroom/session_p50_ms"),
        "replicate.standby_apply_us": (span(room, "replicate.standby_apply"), "us", "classroom", "classroom/session_p50_ms"),
        "replicate.standby_lag_records": (room.server.get("lag_records_mean") or 0.0, "count", "classroom", "classroom/session_p50_ms"),
        "replicate.records_per_batch": (room.prom.get("repro_repl_shipped_records_total", 0.0) / max(1.0, batches), "count", "classroom", "classroom/session_p50_ms"),
        "replicate.quorum_timeouts": (room.notes["quorum_timeouts"], "count", "classroom", "failed"),
        "obs.phase_accept_ms": (phases["accept"], "ms", "classroom", "classroom/session_p50_ms"),
        "obs.phase_queue_wait_ms": (phases["queue_wait"], "ms", "classroom", "classroom/session_p50_ms"),
        "obs.phase_shard_step_ms": (phases["shard_step"], "ms", "classroom", "classroom/session_p50_ms"),
        "obs.phase_fsync_wait_ms": (phases["fsync_wait"], "ms", "classroom", "classroom/session_p50_ms"),
        "obs.phase_flush_ms": (phases["flush"], "ms", "classroom", "classroom/session_p50_ms"),
        "obs.phase_share_pct": (100.0 * sum(phases.values()) / client_p50, "%", "classroom", "-"),
        "obs.span_share_pct": (100.0 * path_ms / client_p50, "%", "classroom", "-"),
        "obs.bench_trace_overhead_pct": (100.0 * (lab_plain.metrics["sessions_per_s"] / lab_tput - 1.0), "%", "lab", "-"),
    }
    return out
