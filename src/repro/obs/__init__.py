"""Observability for the VGBL runtime: metrics, tracing, logging, SLOs.

A dependency-free instrumentation layer measuring what the paper's
gaming platform actually *does* at runtime — event dispatch latency,
scenario transitions, condition-cache effectiveness, streaming bytes
and stalls, segment-cache hit rates, parallel-encoder utilization —
behind a single process-global switch that keeps every instrumented hot
path at one boolean check when off.  Four pillars:

* **metrics** — counters / gauges / histograms (:mod:`.metrics`),
  exported as Prometheus text, tables or JSON (:mod:`.export`);
* **tracing** — one trace model (:mod:`.tracing`): request roots whose
  phase marks partition a request's latency across threads, with
  in-thread spans (wall and thread CPU, trace/span correlation ids)
  nested under them, and free root spans in a bounded ring;
* **logging** — structured JSONL events stamped with the active
  trace/span ids (:mod:`.logging`), retained at full verbosity in a
  crash-safe flight recorder (:mod:`.recorder`) that dumps itself from
  an unhandled-exception hook;
* **slo** — declarative health rules evaluated against a metrics
  snapshot (:mod:`.slo`), the nonzero-exit gate behind
  ``repro obs check``.

Quick tour::

    from repro import obs

    obs.enable()                      # or REPRO_OBS=1 in the environment
    ...run any instrumented workload...
    print(obs.render_snapshot(obs.snapshot(), "table"))
    obs.dump_flight("flight.json")    # events + metrics + spans
    obs.reset()

``python -m repro obs export`` / ``tail`` / ``check`` and the live
``python -m repro top`` dashboard do the same from the command line.
"""

from . import metrics as _metrics_mod
from . import recorder as _recorder_mod
from . import tracing as _tracing_mod
from .metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    TimeSeriesRing,
    counter,
    disable,
    enabled,
    gauge,
    get_registry,
    get_ring,
    histogram,
    set_enabled,
    snapshot,
)
from .tracing import PHASES, Sampler, Span, Tracer, get_tracer, new_id, span, trace
from .logging import (
    LEVELS,
    StructLogger,
    add_log_file,
    add_log_sink,
    format_event,
    get_logger,
    remove_log_sink,
    reset_logging,
    set_log_level,
)
from .recorder import (
    FlightRecorder,
    dump_flight,
    get_flight_recorder,
    install_excepthook,
    uninstall_excepthook,
)
from .slo import (
    SloError,
    SloResult,
    SloRule,
    evaluate_slos,
    parse_slo_file,
)
from .export import (
    EXPORT_FORMATS,
    render_json,
    render_prometheus,
    render_snapshot,
    render_table,
    snapshot_rows,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "EXPORT_FORMATS",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "LEVELS",
    "MetricError",
    "MetricsRegistry",
    "PHASES",
    "Sampler",
    "SloError",
    "SloResult",
    "SloRule",
    "Span",
    "StructLogger",
    "TimeSeriesRing",
    "Tracer",
    "add_log_file",
    "add_log_sink",
    "counter",
    "disable",
    "dump_flight",
    "enable",
    "enabled",
    "evaluate_slos",
    "format_event",
    "gauge",
    "get_flight_recorder",
    "get_logger",
    "get_registry",
    "get_ring",
    "get_tracer",
    "histogram",
    "install_excepthook",
    "new_id",
    "parse_slo_file",
    "remove_log_sink",
    "render_json",
    "render_prometheus",
    "render_snapshot",
    "render_table",
    "reset",
    "reset_logging",
    "set_enabled",
    "set_log_level",
    "snapshot",
    "snapshot_rows",
    "span",
    "trace",
    "uninstall_excepthook",
]


def enable() -> None:
    """Turn recording on and arm the flight recorder's crash hook."""
    _metrics_mod.enable()
    _recorder_mod.install_excepthook()


def reset() -> None:
    """Reset all runtime observability state.

    Clears every metric series (definitions survive), drops every
    retained trace root (request and free) *and* the active-span state,
    and empties the flight recorder and the time-series ring — so
    interleaved spans, stale history samples or half-marked request
    traces can never leak across a reset boundary.
    """
    _metrics_mod.reset()
    _metrics_mod.get_ring().clear()
    _tracing_mod.get_tracer().reset()
    _recorder_mod.get_flight_recorder().clear()


# REPRO_OBS=1 in the environment enables recording at import time; arm
# the crash hook for that path too.
if _metrics_mod.enabled():  # pragma: no cover - environment-dependent
    _recorder_mod.install_excepthook()
