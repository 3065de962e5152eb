"""Deterministic fault injection for the gateway -> serve -> persist stack.

The production layers carry tiny hook points (``if faultline.ACTIVE:``)
at the places real deployments fail: accepting a connection, reading a
frame, writing a WAL frame, fsyncing, ticking a shard, admitting a
session.  With no plan installed the hooks cost one module-attribute
load and a falsy branch — the same zero-when-off contract the obs
layer makes, held to numbers by ``benchmarks/bench_faultline_overhead``.

Installing a compiled :class:`~repro.faultline.plan.FaultPlan` arms an
:class:`Injector`: every hook reports a *hit*, hits are counted per
site under a lock, and when a hit matches an armed trigger the hook
receives a :class:`FaultAction` telling it what to break (the hook
owns the breakage — sleeping on a shard thread, tearing a frame,
aborting a socket — because only it knows how).  Every fired fault is
counted in ``repro_fault_injected_total`` (labelled by site and kind),
logged as a structured ``faultline.injected`` event, and annotated
onto any request traces the hook had in scope, so injected chaos is
first-class visible in ``/metrics`` and trace waterfalls.

The module is intentionally process-global, like the metrics registry:
one plan at a time, installed by the chaos runner or a test and
uninstalled in a ``finally``.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional

from ..obs import logging as _obslog
from ..obs import metrics as _obs
from ..obs.tracing import get_tracer as _tracer
from .plan import (
    SITES,
    ArmedFault,
    CompiledPlan,
    FaultPlan,
    FaultSpec,
    builtin_plans,
)

__all__ = [
    "ACTIVE",
    "FaultAction",
    "FaultPlan",
    "FaultSpec",
    "CompiledPlan",
    "Injector",
    "SITES",
    "builtin_plans",
    "current",
    "fire",
    "install",
    "uninstall",
]

#: the zero-overhead gate every hook checks before anything else; True
#: exactly while an injector is installed
ACTIVE = False

_M_INJECTED = _obs.counter(
    "repro_fault_injected_total",
    "Faults injected by the installed faultline plan, by site and kind",
)

_LOG = _obslog.get_logger("faultline")

_LOCK = threading.Lock()
_INJECTOR: Optional["Injector"] = None


class FaultAction:
    """What a hook should break, handed back when its hit fires."""

    __slots__ = ("site", "kind", "seconds", "fraction", "index", "hit")

    def __init__(self, armed: ArmedFault, hit: int) -> None:
        self.site = armed.spec.site
        self.kind = armed.spec.kind
        self.seconds = armed.spec.seconds
        self.fraction = armed.spec.fraction
        self.index = armed.index
        self.hit = hit

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultAction({self.site}:{self.kind} hit={self.hit} "
            f"spec={self.index})"
        )


class Injector:
    """Hit counters + armed triggers for one compiled plan."""

    def __init__(self, compiled: CompiledPlan) -> None:
        self.compiled = compiled
        self._lock = threading.Lock()
        self._hits: Dict[str, int] = {}
        self._fired: List[int] = [0] * len(compiled.armed)

    # -- the hook-facing half -------------------------------------------
    def fire(
        self,
        site: str,
        traces: Optional[Iterable[Optional[str]]] = None,
        **ctx: object,
    ) -> Optional[FaultAction]:
        """Report one hit at ``site``; a FaultAction when a trigger matches.

        ``traces`` (request-trace ids the hook has in scope) are
        annotated with the fault so it shows up in the waterfall;
        remaining ``ctx`` keys ride the structured log event.
        """
        action: Optional[FaultAction] = None
        with self._lock:
            hit = self._hits.get(site, 0) + 1
            self._hits[site] = hit
            for armed in self.compiled.by_site.get(site, ()):
                if armed.first_hit <= hit <= armed.last_hit:
                    self._fired[armed.index] += 1
                    action = FaultAction(armed, hit)
                    break
        if action is None:
            return None
        _M_INJECTED.inc(site=site, kind=action.kind)
        _LOG.warning(
            "faultline.injected", plan=self.compiled.name, site=site,
            kind=action.kind, hit=action.hit, spec=action.index, **ctx,
        )
        if traces:
            store = _tracer()
            for trace_id in traces:
                if trace_id:
                    store.annotate(
                        trace_id, fault=f"{site}:{action.kind}",
                        fault_hit=action.hit,
                    )
        return action

    # -- the audit-facing half ------------------------------------------
    @property
    def hits(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._hits)

    @property
    def injected_total(self) -> int:
        with self._lock:
            return sum(self._fired)

    def report(self) -> List[Dict[str, object]]:
        """Scheduled-vs-fired audit rows, one per armed spec."""
        with self._lock:
            fired = list(self._fired)
        rows = []
        for armed in self.compiled.armed:
            row = armed.describe()
            row["fired"] = fired[armed.index]
            rows.append(row)
        return rows

    def all_fired(self) -> bool:
        """True when every armed fault fired exactly its scheduled count."""
        with self._lock:
            return all(
                self._fired[a.index] == a.spec.times
                for a in self.compiled.armed
            )


def install(plan: "FaultPlan | CompiledPlan", seed: Optional[int] = None) -> Injector:
    """Arm a plan process-wide; returns the injector for auditing."""
    global ACTIVE, _INJECTOR
    compiled = plan.compile(seed) if isinstance(plan, FaultPlan) else plan
    with _LOCK:
        if _INJECTOR is not None:
            raise RuntimeError(
                f"faultline plan {_INJECTOR.compiled.name!r} is already "
                "installed; uninstall() it first"
            )
        _INJECTOR = Injector(compiled)
        ACTIVE = True
    _LOG.info("faultline.installed", plan=compiled.name, seed=compiled.seed,
              faults=len(compiled.armed))
    return _INJECTOR


def uninstall() -> Optional[Injector]:
    """Disarm; returns the injector that was installed (idempotent)."""
    global ACTIVE, _INJECTOR
    with _LOCK:
        injector, _INJECTOR = _INJECTOR, None
        ACTIVE = False
    if injector is not None:
        _LOG.info("faultline.uninstalled", plan=injector.compiled.name,
                  injected=injector.injected_total)
    return injector


def current() -> Optional[Injector]:
    return _INJECTOR


def fire(
    site: str,
    traces: Optional[Iterable[Optional[str]]] = None,
    **ctx: object,
) -> Optional[FaultAction]:
    """The hook entry point: delegate to the installed injector.

    Hooks only call this behind an ``if ACTIVE:`` check, but an
    uninstall can race the check — a missing injector is a no-op, never
    an error.
    """
    injector = _INJECTOR
    if injector is None:
        return None
    return injector.fire(site, traces=traces, **ctx)
