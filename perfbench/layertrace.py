"""Outside-in per-layer tracing of the ``repro`` packages.

:class:`LayerTracer` replaces, for the life of one traced run, every public
function and public method (plus ``__init__``) defined in the simulator's
packages with a span wrapper, and wraps each callback handed to
``Simulator.schedule``/``schedule_at`` in a span owned by the callback's
package.  Nothing inside ``src/`` is edited: the wrappers are installed
before the workload is built (so components that cache bound methods cache
the wrappers) and removed afterwards (so the timed, untraced runs execute
the original code).

A span's self time is its duration minus the time of the spans it encloses.
A layer's self time is the sum over its spans, so every traced second lands
in exactly one layer; the engine loop's own cost is ``Simulator.run``'s self
time.  Alongside the times the tracer counts calls of a few public entry
points exactly, and derives the work ratios of ``README.md`` from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layer name -> module prefix.  The longest matching prefix wins, so
#: ``repro.experiments.exec`` is ``exec`` and the rest of ``repro.experiments``
#: is ``experiments``.
LAYERS: Dict[str, str] = {
    "core": "repro.core",
    "phy": "repro.phy",
    "mac": "repro.mac",
    "net": "repro.net",
    "routing": "repro.routing",
    "transport": "repro.transport",
    "link": "repro.link",
    "mobility": "repro.mobility",
    "metrics": "repro.metrics",
    "topology": "repro.topology",
    "app": "repro.app",
    "experiments": "repro.experiments",
    "exec": "repro.experiments.exec",
}
#: ``core.loop`` holds ``Simulator.run``'s own time, apart from the rest of
#: ``core``; ``other`` holds callbacks from outside ``repro``.
LAYER_NAMES: Tuple[str, ...] = tuple(LAYERS) + ("core.loop", "other")
_PREFIXES = sorted(((prefix, LAYER_NAMES.index(name))
                    for name, prefix in LAYERS.items()),
                   key=lambda item: -len(item[0]))
_OTHER = LAYER_NAMES.index("other")
_LOOP = LAYER_NAMES.index("core.loop")

#: Functions timed as a group (inclusive, outermost call only), by the
#: qualified name ``module.Class.function``.
GROUPS: Dict[str, Tuple[str, ...]] = {
    "neighbor_build": ("repro.phy.channel.WirelessChannel.neighbors_of",
                       "repro.phy.channel.WirelessChannel.geometric_neighbors_of"),
    "metrics_collect": ("repro.metrics.registry.MetricsRegistry.total",
                        "repro.metrics.registry.MetricsRegistry.snapshot"),
    "mobility_start": ("repro.mobility.base.MobilityManager.start",),
    "scenario_init": ("repro.experiments.runner.Scenario.__init__",),
    "scenario_run": ("repro.experiments.runner.Scenario.run",),
}

#: Calls counted exactly (qualified name -> counter name).
COUNTED: Dict[str, str] = {
    "repro.phy.channel.WirelessChannel.broadcast": "broadcasts",
    "repro.phy.radio.Radio.signal_start": "signal_starts",
    "repro.mac.ieee80211.Ieee80211Mac.on_frame_received": "mac_frames_received",
    "repro.mac.ieee80211.Ieee80211Mac.on_carrier_busy": "carrier_events",
    "repro.mac.ieee80211.Ieee80211Mac.on_carrier_idle": "carrier_events",
    "repro.net.packet.Packet.copy": "packet_copies",
    "repro.link.wired.WiredBus.transmit": "wired_frames",
}

#: Classes left unwrapped: the engine's event handle is created inside
#: ``schedule`` and is part of that span's cost.
_SKIP_CLASSES = {"repro.core.engine.Event"}

_ENGINE = "repro.core.engine"


def layer_of(module: str) -> int:
    """Index into :data:`LAYER_NAMES` of the layer owning ``module``."""
    for prefix, index in _PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return index
    return _OTHER


class LayerTracer:
    """Span and call accounting for one traced run (see module docstring)."""

    def __init__(self) -> None:
        layers = len(LAYER_NAMES)
        self.self_s = [0.0] * layers
        #: Seconds inside callbacks dispatched by the engine, per owner layer.
        self.dispatch_s = [0.0] * layers
        self.group_names = list(LAYER_NAMES) + list(GROUPS)
        self.incl_s = [0.0] * len(self.group_names)
        self._depth = [0] * len(self.group_names)
        self.counts: Dict[str, int] = {name: 0 for name in set(COUNTED.values())}
        self.counts.update(schedules=0, events=0)
        #: [events still pending] of every simulator, updated when run returns.
        self.simulators: List[List[int]] = []
        #: Topology seconds spent inside Scenario construction.
        self.topology_in_init_s = 0.0
        self._stack: List[float] = [0.0]
        self._undo: List[Callable[[], None]] = []
        self._layer_cache: Dict[type, int] = {}
        self._run_mark: Optional[dict] = None

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every public callable of every ``repro`` module."""
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        modules = [module for name, module in sorted(sys.modules.items())
                   if name == "repro" or name.startswith("repro.")]
        group_of = {qualname: len(LAYER_NAMES) + index
                    for index, members in enumerate(GROUPS.values())
                    for qualname in members}
        for module in modules:
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, group_of)
                elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    wrapper = self._span(obj, f"{module.__name__}.{name}", group_of)
                    for other in modules:
                        for attr, value in list(vars(other).items()):
                            if value is obj:
                                self._replace(other, attr, obj, wrapper)

    def _wrap_class(self, cls: type, group_of: Dict[str, int]) -> None:
        qualname = f"{cls.__module__}.{cls.__qualname__}"
        if qualname in _SKIP_CLASSES or issubclass(cls, BaseException):
            return
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            if isinstance(attr, (staticmethod, classmethod)):
                func = attr.__func__
            elif inspect.isfunction(attr):
                func = attr
            else:
                continue
            if inspect.isgeneratorfunction(func):
                continue
            full = f"{qualname}.{name}"
            if cls.__module__ == _ENGINE and cls.__name__ == "Simulator" \
                    and name in ("schedule", "schedule_at", "run", "__init__"):
                wrapper = getattr(self, f"_engine_{name.strip('_')}")(func)
            elif full == "repro.experiments.runner.Scenario.__init__":
                wrapper = self._scenario_init(self._span(func, full, group_of))
            else:
                wrapper = self._span(func, full, group_of)
            self._replace(cls, name, attr, type(attr)(wrapper)
                          if isinstance(attr, (staticmethod, classmethod)) else wrapper)

    def _replace(self, owner, name: str, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._undo.append(lambda: setattr(owner, name, original))

    def uninstall(self) -> None:
        """Restore every original attribute, newest first."""
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _span(self, func, qualname: str, group_of: Dict[str, int],
              layer: Optional[int] = None):
        if layer is None:
            layer = layer_of(func.__module__)
        group = group_of.get(qualname)
        counter = COUNTED.get(qualname)
        perf = time.perf_counter
        stack, self_s, depth, incl_s = self._stack, self.self_s, self._depth, self.incl_s
        counts = self.counts

        @functools.wraps(func)
        def span(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            depth[layer] += 1
            if group is not None:
                depth[group] += 1
            stack.append(0.0)
            start = perf()
            try:
                return func(*args, **kwargs)
            finally:
                spent = perf() - start
                children = stack.pop()
                stack[-1] += spent
                self_s[layer] += spent - children
                depth[layer] -= 1
                if not depth[layer]:
                    incl_s[layer] += spent
                if group is not None:
                    depth[group] -= 1
                    if not depth[group]:
                        incl_s[group] += spent
        return span

    def _scenario_init(self, span):
        topology = LAYER_NAMES.index("topology")
        incl_s = self.incl_s

        @functools.wraps(span)
        def init(*args, **kwargs):
            before = incl_s[topology]
            try:
                return span(*args, **kwargs)
            finally:
                self.topology_in_init_s += incl_s[topology] - before
        return init

    def _callback_layer(self, callback) -> int:
        owner = getattr(callback, "__self__", None)
        if owner is not None:
            kind = type(owner)
            if kind.__name__ == "Timer" and kind.__module__ == _ENGINE:
                # A Timer fires its owner's callback: attribute to the owner.
                return self._callback_layer(owner._callback)
            layer = self._layer_cache.get(kind)
            if layer is None:
                layer = self._layer_cache[kind] = layer_of(kind.__module__)
            return layer
        inner = getattr(callback, "func", None)  # functools.partial
        if inner is not None:
            return self._callback_layer(inner)
        return layer_of(getattr(callback, "__module__", "") or "")

    def _dispatcher(self):
        perf = time.perf_counter
        stack, self_s, depth, incl_s = self._stack, self.self_s, self._depth, self.incl_s
        dispatch_s, counts = self.dispatch_s, self.counts

        def dispatch(layer, callback, args):
            counts["events"] += 1
            depth[layer] += 1
            stack.append(0.0)
            start = perf()
            try:
                callback(*args)
            finally:
                spent = perf() - start
                children = stack.pop()
                stack[-1] += spent
                self_s[layer] += spent - children
                dispatch_s[layer] += spent
                depth[layer] -= 1
                if not depth[layer]:
                    incl_s[layer] += spent
        return dispatch

    def _engine_schedule(self, func):
        span = self._span(func, f"{_ENGINE}.Simulator.{func.__name__}", {})
        dispatch, counts, layer_of_cb = self._dispatcher(), self.counts, self._callback_layer

        @functools.wraps(func)
        def schedule(sim, when, callback, *args):
            counts["schedules"] += 1
            return span(sim, when, dispatch, layer_of_cb(callback), callback, args)
        return schedule

    _engine_schedule_at = _engine_schedule

    def _engine_run(self, func):
        span = self._span(func, f"{_ENGINE}.Simulator.run", {}, layer=_LOOP)

        @functools.wraps(func)
        def run(sim, *args, **kwargs):
            try:
                return span(sim, *args, **kwargs)
            finally:
                record = sim.__dict__.get("_layertrace_record")
                if record is not None:
                    record[0] = sim.pending_events
        return run

    def _engine_init(self, func):
        span = self._span(func, f"{_ENGINE}.Simulator.__init__", {})
        simulators = self.simulators

        @functools.wraps(func)
        def init(sim, *args, **kwargs):
            span(sim, *args, **kwargs)
            record = [0]
            simulators.append(record)
            sim.__dict__["_layertrace_record"] = record
        return init

    # ------------------------------------------------------------------
    # Phases and report
    # ------------------------------------------------------------------
    def _state(self) -> dict:
        return {"self": list(self.self_s), "dispatch": list(self.dispatch_s),
                "incl": list(self.incl_s), "counts": dict(self.counts),
                "topology_in_init": self.topology_in_init_s}

    def mark_run_start(self) -> None:
        """Split the trace: what follows is the run, what preceded is set-up."""
        self._run_mark = self._state()

    def report(self) -> dict:
        """Raw figures of this traced run; ``run.py`` derives the metrics."""
        end, mark = self._state(), self._run_mark or self._state()
        run = {key: [a - b for a, b in zip(end[key], mark[key])]
               for key in ("self", "dispatch", "incl")}
        counts = end["counts"]
        pending = sum(record[0] for record in self.simulators)
        return {
            "counts": dict(counts, cancels=counts["schedules"] - counts["events"] - pending),
            "self_s": dict(zip(LAYER_NAMES, run["self"])),
            "dispatch_s": dict(zip(LAYER_NAMES, run["dispatch"])),
            "incl_s": dict(zip(self.group_names, end["incl"])),
            "run_incl_s": dict(zip(self.group_names, run["incl"])),
            "topology_in_init_s": end["topology_in_init"],
            "run_topology_in_init_s": end["topology_in_init"] - mark["topology_in_init"],
        }
