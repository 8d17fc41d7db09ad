"""Layer-attributed spans for the benchmark's traced run.

The simulator carries no wall-clock instrumentation of its own.  For the
traced run, :class:`LayerTrace` wraps the public functions and methods of
each layer (``SPAN_TARGETS``) at run time, records a span around every
call, and restores the originals afterwards, so the untraced runs execute
the program untouched.

A span has a name, start, end and parent span; all spans of one traced
study share the trace's run id.  They stay in memory and are written once,
by :meth:`LayerTrace.write`.  Self time (a span's duration minus what its
child spans cover) and call counts are kept per name as the spans close.
Hot leaves (``fold=True``: millions of ``link_utilization`` or torus
route calls on a storm) are not stored one by one but folded into one
count-plus-total record per (name, parent name), which keeps memory
bounded; so is every span past ``SPAN_CAP``.  A call into a layer from
inside the same layer (``Namespace.create`` calling ``Namespace.get``)
is part of the outer span, not a span of its own.

:func:`layer_metrics` turns the trace, plus public counters read from the
live objects the run created (``FlowNetwork.solve_counts``,
``Engine.events_processed``, ``FlowletRouting.rehashes``, ...), into the
per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

_clock = time.perf_counter

#: spans stored one by one; later ones are folded like hot leaves
SPAN_CAP = 50_000

#: every public, non-generator method a class defines itself
PUBLIC = "public"

#: (span name, module, classes or None for module functions, attributes,
#: fold).  A class name ending in ``*`` stands for every subclass that
#: defines the attribute itself.
SPAN_TARGETS = (
    ("core.flow.solve", "repro.core.flow", ("FlowNetwork",),
     ("solve", "solve_rates"), False),
    ("core.flow.delta_op", "repro.core.flow", ("FlowNetwork",),
     ("add_flow", "remove_flow", "set_capacity", "set_demand"), True),
    ("core.path.resolve", "repro.core.path", ("PathBuilder",),
     ("resolve",), False),
    ("core.path.build", "repro.core.path", ("PathBuilder",),
     ("build",), False),
    ("core.path.link_util", "repro.core.path", ("PathBuilder",),
     ("link_utilization",), True),
    ("network.torus.route", "repro.network.torus", ("Torus3D",),
     ("route", "route_links", "route_links_ordered"), True),
    ("network.lnet.select", "repro.network.lnet",
     ("FineGrainedRouting", "RoundRobinRouting"), ("select_router",), True),
    ("network.routing.select", "repro.network.routing", ("FlowletRouting",),
     ("select_router",), True),
    ("network.routing.control", "repro.network.routing",
     ("FlowletRouting", "BackpressureController"), ("refresh", "update"),
     False),
    ("obs.overlay.sweep", "repro.obs.overlay.scraper", ("Scraper",),
     ("sweep",), True),
    ("obs.overlay.deliver", "repro.obs.overlay.collector", ("CollectorSink",),
     ("deliver",), False),
    ("obs.overlay.close_window", "repro.obs.overlay.collector",
     ("CollectorSink",), ("close_window",), False),
    ("obs.overlay.alert", "repro.obs.overlay.alerts", ("AlertEngine",),
     ("observe_window",), False),
    ("sched.alloc", "repro.sched.qos", ("BandwidthArbiter",),
     ("reallocate", "allocate"), False),
    ("workloads.replay", "repro.workloads.replay", None,
     ("replay_trace", "replay_fifo"), False),
    ("sim.engine", "repro.sim.engine", ("Engine",), ("run",), False),
    ("faults.inject", "repro.faults.injectors", ("Injector*",),
     ("inject",), False),
    ("faults.repair", "repro.faults.injectors", ("Injector*",),
     ("repair",), False),
    ("resilience.on_fault", "repro.resilience.runner", ("PlaybookRunner",),
     ("on_fault",), False),
    ("metatier.needles.write", "repro.metatier.needles", ("SegmentStore",),
     ("write",), True),
    ("metatier.needles.read", "repro.metatier.needles", ("SegmentStore",),
     ("read",), True),
    ("metatier.needles.delete", "repro.metatier.needles", ("SegmentStore",),
     ("delete",), True),
    ("metatier.needles.compact", "repro.metatier.needles", ("SegmentStore",),
     ("compact",), False),
    ("metatier.shards", "repro.metatier.shards", ("ShardedNamespace",),
     PUBLIC, True),
    ("lustre.namespace", "repro.lustre.namespace", ("Namespace",),
     PUBLIC, True),
)

#: classes whose instances the census reads public counters from
INSTANCE_CLASSES = (
    ("repro.core.flow", "FlowNetwork"),
    ("repro.sim.engine", "Engine"),
    ("repro.obs.overlay.runtime", "MonitoringOverlay"),
    ("repro.network.routing", "FlowletRouting"),
    ("repro.network.routing", "BackpressureController"),
    ("repro.metatier.needles", "SegmentStore"),
)

#: (metric, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("core.flow.solve_s", "s"),
    ("core.flow.solves", "count"),
    ("core.flow.full", "count"),
    ("core.flow.delta", "count"),
    ("core.flow.shortcircuit", "count"),
    ("core.flow.cached", "count"),
    ("core.flow.cached_ratio", "ratio"),
    ("core.flow.delta_op_s", "s"),
    ("core.flow.delta_ops", "count"),
    ("core.flow.networks", "count"),
    ("core.path.resolve_s", "s"),
    ("core.path.resolves", "count"),
    ("core.path.build_s", "s"),
    ("core.path.builds", "count"),
    ("core.path.rebuild_ratio", "ratio"),
    ("core.path.link_util_s", "s"),
    ("core.path.link_util_calls", "count"),
    ("network.torus.route_s", "s"),
    ("network.torus.route_calls", "count"),
    ("network.lnet.select_s", "s"),
    ("network.lnet.selects", "count"),
    ("network.routing.select_s", "s"),
    ("network.routing.selects", "count"),
    ("network.routing.control_s", "s"),
    ("network.routing.rehashes", "count"),
    ("network.routing.stale_reads", "count"),
    ("network.routing.backpressure_engagements", "count"),
    ("obs.overlay.sweep_s", "s"),
    ("obs.overlay.samples", "count"),
    ("obs.overlay.deliver_s", "s"),
    ("obs.overlay.batches", "count"),
    ("obs.overlay.close_window_s", "s"),
    ("obs.overlay.windows", "count"),
    ("obs.overlay.alert_s", "s"),
    ("sched.alloc_s", "s"),
    ("sched.alloc_rounds", "count"),
    ("sched.jobs_finished", "count"),
    ("sched.jobs_censored", "count"),
    ("workloads.replay.s", "s"),
    ("workloads.replay.calls", "count"),
    ("sim.engine.events", "count"),
    ("sim.engine.self_s", "s"),
    ("faults.injected", "count"),
    ("faults.repaired", "count"),
    ("resilience.on_fault_s", "s"),
    ("resilience.remediations", "count"),
    ("metatier.needles.write_s", "s"),
    ("metatier.needles.writes", "count"),
    ("metatier.needles.read_s", "s"),
    ("metatier.needles.reads", "count"),
    ("metatier.needles.delete_s", "s"),
    ("metatier.needles.deletes", "count"),
    ("metatier.needles.compact_s", "s"),
    ("metatier.needles.compactions", "count"),
    ("metatier.needles.compact_scanned", "count"),
    ("metatier.needles.compact_moved", "count"),
    ("metatier.needles.compact_useful_ratio", "ratio"),
    ("metatier.shards.s", "s"),
    ("metatier.shards.ops", "count"),
    ("lustre.namespace.s", "s"),
    ("lustre.namespace.ops", "count"),
    ("lustre.mds.ops.per_file", "count"),
    ("lustre.mds.ops.aggregated", "count"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
)


class LayerTrace:
    """Spans around every call into the layers, for one traced study."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: stored spans: (id, name, parent id, parent name, start, end);
        #: parent id 0 is a folded parent or none
        self.spans: list[tuple] = []
        #: (name, parent name) -> [calls, total seconds]
        self.folded: dict[tuple[str, str | None], list] = {}
        #: name -> [calls, self seconds]
        self.stats: dict[str, list] = {}
        #: seconds covered by spans with no parent span
        self.top_s = 0.0
        self.instances: dict[str, list] = {cls: [] for _m, cls in
                                           INSTANCE_CLASSES}
        self.compact_scanned = 0
        self.compact_moved = 0
        self.origin = 0.0
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> "LayerTrace":
        """Wrap every target; :meth:`uninstall` restores the originals."""
        for name, module, classes, attrs, fold in SPAN_TARGETS:
            mod = importlib.import_module(module)
            if classes is None:
                for attr in attrs:
                    self._patch_function(mod, attr,
                                         self._spanned(name, fold))
                continue
            for cls in _classes(mod, classes):
                names = _public_methods(cls) if attrs == PUBLIC else attrs
                for attr in names:
                    if attr in cls.__dict__:
                        self._patch(cls, attr, self._spanned(name, fold)(
                            cls.__dict__[attr]))
        for module, clsname in INSTANCE_CLASSES:
            cls = getattr(importlib.import_module(module), clsname)
            self._patch(cls, "__init__",
                        self._registering(cls.__dict__["__init__"],
                                          self.instances[clsname]))
        store = importlib.import_module("repro.metatier.needles").SegmentStore
        self._patch(store, "compact", self._compaction_census(store.compact))
        self.origin = _clock()
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_function(self, mod, attr: str, wrap) -> None:
        """Replace a module function everywhere ``repro`` imported it by
        name, so ``from m import f`` call sites see the wrapper too."""
        original = getattr(mod, attr)
        wrapped = wrap(original)
        for name, module in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) \
                    and module.__dict__.get(attr) is original:
                self._patch(module, attr, wrapped)

    # -- wrappers ----------------------------------------------------------------

    def _spanned(self, name: str, fold: bool):
        stack = self._stack
        stats = self.stats.setdefault(name, [0, 0.0])
        clock = _clock

        def decorate(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if stack and stack[-1][0] == name:
                    return fn(*args, **kwargs)
                frame = [name, 0.0, 0]
                if not fold:
                    self._next_id += 1
                    frame[2] = self._next_id
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    duration = end - start
                    stats[0] += 1
                    stats[1] += duration - frame[1]
                    if stack:
                        parent = stack[-1]
                        parent[1] += duration
                    else:
                        parent = None
                        self.top_s += duration
                    self._record(frame, parent, start, end)
            return wrapper
        return decorate

    def _record(self, frame, parent, start: float, end: float) -> None:
        parent_name = parent[0] if parent is not None else None
        if frame[2] and len(self.spans) < SPAN_CAP:
            self.spans.append((frame[2], frame[0],
                               parent[2] if parent is not None else 0,
                               parent_name, start - self.origin,
                               end - self.origin))
            return
        record = self.folded.get((frame[0], parent_name))
        if record is None:
            record = self.folded[(frame[0], parent_name)] = [0, 0.0]
        record[0] += 1
        record[1] += end - start

    @staticmethod
    def _registering(init, registry: list):
        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            registry.append(obj)
        return wrapper

    def _compaction_census(self, compact):
        """Count the index entries each compaction scans (index size x
        victim segments, the cost of the per-victim index walk) and the
        needles it actually moves."""
        @functools.wraps(compact)
        def wrapper(store, *args, **kwargs):
            self.compact_scanned += len(store) * len(store.compactable())
            report = compact(store, *args, **kwargs)
            self.compact_moved += report.needles_rewritten
            return report
        return wrapper

    # -- output ---------------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def write(self, path: str) -> None:
        """Write the spans and folded records (once, at the end)."""
        with open(path, "w") as fh:
            json.dump({
                "run_id": self.run_id,
                "columns": ["id", "name", "parent_id", "parent", "start_s",
                            "end_s"],
                "spans": self.spans,
                "folded": [[name, parent, calls, total]
                           for (name, parent), (calls, total)
                           in sorted(self.folded.items(), key=str)],
            }, fh)


def _classes(mod, names) -> list[type]:
    out = []
    for name in names:
        if name.endswith("*"):
            pending = [getattr(mod, name[:-1])]
            while pending:
                cls = pending.pop()
                out.append(cls)
                pending.extend(cls.__subclasses__())
        else:
            out.append(getattr(mod, name))
    return out


def _public_methods(cls) -> list[str]:
    return [attr for attr, value in cls.__dict__.items()
            if not attr.startswith("_") and inspect.isfunction(value)
            and not inspect.isgeneratorfunction(value)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: LayerTrace, census: dict, *,
                  traced_s: float) -> dict[str, float]:
    """Every ``PER_LAYER`` metric of one traced study but
    ``trace.overhead_frac``, which needs untraced runs to compare with.

    ``census`` holds counts read from the study result; ``traced_s`` is
    the traced study's wall time.
    """
    inst = trace.instances
    solve_counts = {"full": 0, "delta": 0, "shortcircuit": 0, "cached": 0}
    for net in inst["FlowNetwork"]:
        for kind, count in net.solve_counts.items():
            solve_counts[kind] += count
    overlays = inst["MonitoringOverlay"]
    stores = inst["SegmentStore"]
    flowlets = inst["FlowletRouting"]
    m = {
        "core.flow.solve_s": trace.self_s("core.flow.solve"),
        "core.flow.solves": trace.calls("core.flow.solve"),
        **{f"core.flow.{kind}": n for kind, n in solve_counts.items()},
        "core.flow.cached_ratio": _ratio(solve_counts["cached"],
                                         sum(solve_counts.values())),
        "core.flow.delta_op_s": trace.self_s("core.flow.delta_op"),
        "core.flow.delta_ops": trace.calls("core.flow.delta_op"),
        "core.flow.networks": len(inst["FlowNetwork"]),
        "core.path.resolve_s": trace.self_s("core.path.resolve"),
        "core.path.resolves": trace.calls("core.path.resolve"),
        "core.path.build_s": trace.self_s("core.path.build"),
        "core.path.builds": trace.calls("core.path.build"),
        "core.path.rebuild_ratio": _ratio(trace.calls("core.path.build"),
                                          trace.calls("core.path.resolve")),
        "core.path.link_util_s": trace.self_s("core.path.link_util"),
        "core.path.link_util_calls": trace.calls("core.path.link_util"),
        "network.torus.route_s": trace.self_s("network.torus.route"),
        "network.torus.route_calls": trace.calls("network.torus.route"),
        "network.lnet.select_s": trace.self_s("network.lnet.select"),
        "network.lnet.selects": trace.calls("network.lnet.select"),
        "network.routing.select_s": trace.self_s("network.routing.select"),
        "network.routing.selects": trace.calls("network.routing.select"),
        "network.routing.control_s": trace.self_s("network.routing.control"),
        "network.routing.rehashes": sum(p.rehashes for p in flowlets),
        "network.routing.stale_reads": sum(p.stale_reads for p in flowlets),
        "network.routing.backpressure_engagements": sum(
            c.engagements for c in inst["BackpressureController"]),
        "obs.overlay.sweep_s": trace.self_s("obs.overlay.sweep"),
        "obs.overlay.samples": sum(o.collector.n_samples for o in overlays),
        "obs.overlay.deliver_s": trace.self_s("obs.overlay.deliver"),
        "obs.overlay.batches": sum(o.n_batches for o in overlays),
        "obs.overlay.close_window_s": trace.self_s("obs.overlay.close_window"),
        "obs.overlay.windows": sum(o.collector.n_windows for o in overlays),
        "obs.overlay.alert_s": trace.self_s("obs.overlay.alert"),
        "sched.alloc_s": trace.self_s("sched.alloc"),
        "sched.alloc_rounds": trace.calls("sched.alloc"),
        "sched.jobs_finished": 0,
        "sched.jobs_censored": 0,
        "workloads.replay.s": trace.self_s("workloads.replay"),
        "workloads.replay.calls": trace.calls("workloads.replay"),
        "sim.engine.events": sum(e.events_processed
                                 for e in inst["Engine"]),
        "sim.engine.self_s": trace.self_s("sim.engine"),
        "faults.injected": trace.calls("faults.inject"),
        "faults.repaired": trace.calls("faults.repair"),
        "resilience.on_fault_s": trace.self_s("resilience.on_fault"),
        "resilience.remediations": trace.calls("resilience.on_fault"),
        "metatier.needles.write_s": trace.self_s("metatier.needles.write"),
        "metatier.needles.writes": trace.calls("metatier.needles.write"),
        "metatier.needles.read_s": trace.self_s("metatier.needles.read"),
        "metatier.needles.reads": trace.calls("metatier.needles.read"),
        "metatier.needles.delete_s": trace.self_s("metatier.needles.delete"),
        "metatier.needles.deletes": trace.calls("metatier.needles.delete"),
        "metatier.needles.compact_s": trace.self_s("metatier.needles.compact"),
        "metatier.needles.compactions": sum(s.counters.compactions
                                            for s in stores),
        "metatier.needles.compact_scanned": trace.compact_scanned,
        "metatier.needles.compact_moved": trace.compact_moved,
        "metatier.needles.compact_useful_ratio": _ratio(
            trace.compact_moved, trace.compact_scanned),
        "metatier.shards.s": trace.self_s("metatier.shards"),
        "metatier.shards.ops": trace.calls("metatier.shards"),
        "lustre.namespace.s": trace.self_s("lustre.namespace"),
        "lustre.namespace.ops": trace.calls("lustre.namespace"),
        "lustre.mds.ops.per_file": 0,
        "lustre.mds.ops.aggregated": 0,
        "trace.unattributed_frac": _ratio(max(0.0, traced_s - trace.top_s),
                                          traced_s),
    }
    m.update(census)
    return {name: m[name] for name, _unit in PER_LAYER if name in m}
