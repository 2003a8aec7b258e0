"""Per-layer ledger: spans recorded around calls into ``src/repro`` layers.

Tracing lives entirely in the benchmark.  :meth:`Ledger.install` patches
the program in place and :meth:`Ledger.uninstall` restores it:

- *Entry points* (:data:`ENTRY_POINTS`) — the calls the workloads make
  into each layer — become named spans with start, end and parent, kept
  in memory and written out when the run ends.
- With ``full=True`` every public function and public method of every
  class defined under ``repro.<layer>`` becomes an aggregated span of that
  layer, and every callable handed to the event kernel's ``schedule``,
  ``schedule_at``, ``schedule_many``, ``schedule_batch`` or
  ``reschedule`` is wrapped too, charged to the layer that defines it —
  so handler time does not land in ``sim``.

A layer's self time is its span time minus the time its child spans
cover.  A call into the layer whose span is already open is counted but
opens no new span, so the sum of self times over all layers equals the
time covered by outermost spans exactly; the rest of the wall is
*uncovered* (the benchmark's own glue between calls).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from collections import defaultdict
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = (
    "sim", "net", "cpu", "oskernel", "apps", "core", "cluster",
    "telemetry", "analysis", "metrics", "harness",
)

#: (module, qualname) of the calls the workloads make into each layer.
ENTRY_POINTS = (
    ("repro.harness.runner", "run_sweep"),
    ("repro.harness.runner", "execute_spec"),
    ("repro.harness.record", "ResultRecord.from_result"),
    ("repro.cluster.simulation", "Cluster.__init__"),
    ("repro.cluster.simulation", "Cluster.simulate"),
    ("repro.cluster.simulation", "Cluster.collect"),
    ("repro.cluster.sharding", "ShardedDatacenterRun.__init__"),
    ("repro.cluster.sharding", "ShardedDatacenterRun.execute"),
    ("repro.cluster.sharding", "ShardRun.advance"),
    ("repro.cluster.sharding", "build_fleet_record"),
    ("repro.sim.kernel", "Simulator.run"),
)

#: Kernel methods that take a callable: name -> index of ``fn`` in the
#: arguments after ``self``.
SCHEDULERS = {"schedule": 1, "schedule_at": 1, "schedule_many": 1, "schedule_batch": 2}


def layer_of_module(module: Optional[str]) -> Optional[str]:
    """``repro.net.link`` -> ``net``; None outside the layer packages."""
    if not module or not module.startswith("repro."):
        return None
    layer = module.split(".", 2)[1]
    return layer if layer in LAYERS else None


class Ledger:
    """Span and count accounting for one traced pass."""

    def __init__(self, full: bool):
        self.full = full
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        #: Calls per traced callable, keyed ``module.qualname``.
        self.calls: Dict[str, int] = defaultdict(int)
        self.key_layer: Dict[str, str] = {}
        #: Named spans: (name, start_s, end_s, parent index or -1).
        self.spans: List[Tuple[str, float, float, int]] = []
        #: Event-kernel counter deltas summed over ``Simulator.run`` calls.
        self.sim_counts: Dict[str, int] = dict.fromkeys(
            ("events", "cancelled_pops", "cancelled_unlinked"), 0
        )
        # Open spans; the bottom sentinel collects the outermost spans' time.
        self._stack: List[list] = [[None, 0.0]]
        self._named: List[int] = []
        self._undo: List[Tuple[object, str, object, bool]] = []
        self._layer_by_module: Dict[str, Optional[str]] = {}

    # -- accounting ------------------------------------------------------

    @property
    def covered_s(self) -> float:
        """Wall time inside outermost spans (equals the sum of self times)."""
        return self._stack[0][1]

    def layer_calls(self) -> Dict[str, int]:
        totals = dict.fromkeys(LAYERS, 0)
        for key, n in self.calls.items():
            totals[self.key_layer[key]] += n
        return totals

    def span_total(self, name: str) -> Tuple[int, float]:
        """(count, summed duration) of the named spans called ``name``."""
        durations = [end - start for n, start, end, _ in self.spans if n == name]
        return len(durations), sum(durations)

    def _span(self, fn: Callable, layer: str, key: str) -> Callable:
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        perf = time.perf_counter

        def traced(*args, **kwargs):
            calls[key] += 1
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                self_s[layer] += dt - frame[1]
                stack[-1][1] += dt

        return traced

    def _named_span(self, fn: Callable, layer: str, key: str, name: str) -> Callable:
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        spans = self.spans
        named = self._named
        sim_counts = self.sim_counts
        counts_sim = name == "Simulator.run"
        perf = time.perf_counter

        def traced(*args, **kwargs):
            calls[key] += 1
            if counts_sim:
                sim = args[0]
                before = (sim.events_executed, sim.cancelled_pops, sim.cancelled_unlinked)
            index = len(spans)
            spans.append((name, 0.0, 0.0, named[-1] if named else -1))
            named.append(index)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                stack.pop()
                named.pop()
                self_s[layer] += dt - frame[1]
                stack[-1][1] += dt
                spans[index] = (name, t0, t1, spans[index][3])
                if counts_sim:
                    sim_counts["events"] += sim.events_executed - before[0]
                    sim_counts["cancelled_pops"] += sim.cancelled_pops - before[1]
                    sim_counts["cancelled_unlinked"] += sim.cancelled_unlinked - before[2]

        return traced

    # -- handler wrapping -------------------------------------------------

    def _layer_of_callable(self, fn: Callable) -> Tuple[Optional[str], str]:
        func = getattr(fn, "__func__", fn)
        func = getattr(func, "func", func)  # functools.partial
        module = getattr(func, "__module__", None)
        if module is None and hasattr(fn, "__self__"):
            module = type(fn.__self__).__module__
        layer = self._layer_by_module.get(module, False)
        if layer is False:
            layer = self._layer_by_module[module] = layer_of_module(module)
        return layer, f"{module}.{getattr(func, '__qualname__', '?')}"

    def handler(self, fn: Callable) -> Callable:
        """``fn`` wrapped in a span of its defining layer (idempotent)."""
        code = getattr(getattr(fn, "__func__", fn), "__code__", None)
        if code is _SPAN_CODE or code is _NAMED_CODE:
            return fn
        layer, key = self._layer_of_callable(fn)
        if layer is None:
            return fn
        self.key_layer[key] = layer
        return self._span(fn, layer, key)

    def _patch_schedulers(self, cls) -> None:
        handler = self.handler
        for name, fn_index in SCHEDULERS.items():
            original = cls.__dict__[name]

            def schedule(sim, *args, _orig=original, _i=fn_index):
                args = list(args)
                args[_i] = handler(args[_i])
                return _orig(sim, *args)

            functools.update_wrapper(schedule, original)
            self._set(cls, name, schedule)

        original_reschedule = cls.__dict__["reschedule"]

        def reschedule(sim, event, delay):
            event.fn = handler(event.fn)
            return original_reschedule(sim, event, delay)

        functools.update_wrapper(reschedule, original_reschedule)
        self._set(cls, "reschedule", reschedule)

    # -- install / uninstall ---------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        had = name in vars(owner)
        self._undo.append((owner, name, vars(owner).get(name), had))
        setattr(owner, name, value)

    def _wrap_attr(self, owner, name: str, layer: str, entry: Optional[str]) -> None:
        """Wrap the function stored as ``owner.<name>`` (function,
        staticmethod or classmethod) in place."""
        raw = vars(owner)[name]
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        func = raw.__func__ if kind else raw
        if getattr(func, "__code__", None) in (_SPAN_CODE, _NAMED_CODE):
            return
        key = f"{func.__module__}.{func.__qualname__}"
        self.key_layer[key] = layer
        if entry is not None:
            wrapped = self._named_span(func, layer, key, entry)
        else:
            wrapped = self._span(func, layer, key)
        functools.update_wrapper(wrapped, func)
        new = kind(wrapped) if kind else wrapped
        if isinstance(owner, type):
            self._set(owner, name, new)
            return
        # A module-level function: rebind every module-global reference.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                if value is raw:
                    self._set(module, attr, new)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("ledger already installed")
        for module_name, qualname in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module
            parts = qualname.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            self._wrap_attr(owner, parts[-1], layer_of_module(module_name), qualname)
        if not self.full:
            return
        from repro.sim.kernel import Simulator

        self._patch_schedulers(Simulator)
        for module in _layer_modules():
            layer = layer_of_module(module.__name__)
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    if issubclass(obj, (BaseException, Enum)):
                        continue
                    for attr, raw in list(vars(obj).items()):
                        func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                        if attr.startswith("_") or not inspect.isfunction(func):
                            continue
                        if inspect.isgeneratorfunction(func):
                            continue
                        self._wrap_attr(obj, attr, layer, None)
                elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    self._wrap_attr(module, name, layer, None)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original, had = self._undo.pop()
            if had:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    # -- output ------------------------------------------------------------

    def to_json_dict(self, top: int = 40) -> Dict[str, object]:
        busiest = sorted(self.calls.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
        return {
            "full": self.full,
            "self_s": self.self_s,
            "layer_calls": self.layer_calls(),
            "covered_s": self.covered_s,
            "sim_counts": self.sim_counts,
            "top_calls": [{"callable": k, "calls": n} for k, n in busiest],
            "spans": [
                {"name": n, "start_s": s, "end_s": e, "parent": p}
                for n, s, e, p in self.spans
            ],
        }


def _layer_modules():
    """Every module under the ``repro.<layer>`` packages, imported."""
    modules = []
    for layer in LAYERS:
        package = importlib.import_module(f"repro.{layer}")
        modules.append(package)
        for info in pkgutil.walk_packages(package.__path__, f"repro.{layer}."):
            modules.append(importlib.import_module(info.name))
    return modules


_SPAN_CODE = Ledger(full=False)._span(len, "sim", "").__code__
_NAMED_CODE = Ledger(full=False)._named_span(len, "sim", "", "").__code__
