"""Where the traced run wraps the program, and the per-layer metrics it reports.

Each layer is wrapped at the points where its callers look it up:

* a function imported by name into a caller's module (``greedy_place_job``
  in the DFRS schedulers, ``maximize_min_yield`` in ``dynmcb8``, ...) is
  replaced in every ``repro`` module that holds it, except the module that
  defines it;
* ``mcb8_pack`` reaches the yield searches as a keyword default, so the
  searches' ``__kwdefaults__`` are patched;
* methods called on an instance (``Simulator.run``, ``Campaign.run``,
  ``SchedulerService.submit``, ...) are replaced on the class;
* ``Scheduler.schedule`` and ``MetricCollector.collect`` are wrapped on the
  instances that the registries' factories (``create_scheduler``,
  ``create_collector``) hand to their callers.
"""

from __future__ import annotations

import math
import statistics
import sys
from typing import Any, Dict, List, Tuple

from tracer import Tracer

#: Algorithms of the diurnal-hetero-stream workload (one run_stream each).
STREAM_ALGORITHMS = ("fcfs", "greedy-pmtn-migr", "dynmcb8-asap-per-600")
#: Request ops of the serve-closed-loop workload with a latency metric of
#: their own.  A pipelined submit+cancel pair is one request; the cancel's
#: own cost is ``serve.service.cancel_s``.
SERVE_OPS = ("submit", "status", "metrics", "metrics-prom", "drain")

#: Every per-layer metric (name, unit), in report order.  Timings are
#: seconds per traced round; counts are per traced round.
PER_LAYER: List[Tuple[str, str]] = [
    ("packing.mcb8_pack.self_s", "s"),
    ("packing.mcb8_pack.calls", "count"),
    ("packing.mcb8_pack.items_mean", "items"),
    ("packing.maximize_min_yield.self_s", "s"),
    ("packing.maximize_min_yield.calls", "count"),
    ("packing.minimize_estimated_stretch.self_s", "s"),
    ("packing.minimize_estimated_stretch.calls", "count"),
    ("schedulers.dfrs.placement.greedy_place_job.self_s", "s"),
    ("schedulers.dfrs.placement.greedy_place_job.calls", "count"),
    ("schedulers.dfrs.yield_opt.improve_average_yield.self_s", "s"),
    ("schedulers.dfrs.yield_opt.improve_average_yield.calls", "count"),
    ("schedulers.schedule.self_s", "s"),
    ("schedulers.schedule.calls", "count"),
    ("core.engine.self_s", "s"),
    ("core.engine.events", "count"),
    *[(f"core.engine.run_stream_s.{name}", "s") for name in STREAM_ALGORITHMS],
    ("engine.placements", "count"),
    ("campaign.run.self_s", "s"),
    ("campaign.collect_s", "s"),
    ("traces.jobs_s", "s"),
    ("workloads.lublin.generate_s", "s"),
    ("serve.service.submit_s", "s"),
    ("serve.service.status_s", "s"),
    ("serve.service.cancel_s", "s"),
    ("serve.service.metrics_snapshot_s", "s"),
    ("serve.service.prometheus_text_s", "s"),
    ("serve.engine.online_step.self_s", "s"),
    ("serve.engine.online_step.calls", "count"),
    ("serve.protocol.self_s", "s"),
    *[(f"serve.op.{op}_p50_ms", "ms") for op in SERVE_OPS],
    ("serve.requests", "count"),
    ("serve.accepted", "count"),
    ("trace.overhead", "ratio"),
]

#: Span names whose self time makes up ``core.engine.self_s``.
_ENGINE_SPANS = ("core.engine.run", "core.engine.run_stream", "serve.engine.online_step")


def _patch_lookups(tracer: Tracer, original: Any, replacement: Any) -> None:
    """Replace ``original`` in every ``repro`` module that imported it."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        if name == getattr(original, "__module__", None):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                tracer.patch(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer; :meth:`Tracer.uninstall` undoes it."""
    from repro.campaign import collectors as collectors_mod
    from repro.campaign.executor import Campaign
    from repro.core.engine import Simulator
    from repro.packing import mcb8, yield_search
    from repro.schedulers import registry
    from repro.schedulers.dfrs import placement, yield_opt
    from repro.serve.service import SchedulerService

    def count_items(duration: float, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.counters["packing.mcb8_pack.items"] += len(args[0])

    traced_mcb8 = tracer.wrap("packing.mcb8_pack", mcb8.mcb8_pack, after=count_items)
    _patch_lookups(tracer, mcb8.mcb8_pack, traced_mcb8)
    for search in (yield_search.maximize_min_yield, yield_search.minimize_estimated_stretch):
        tracer.patch(search, "__kwdefaults__", {**search.__kwdefaults__, "packer": traced_mcb8})

    for span, fn in (
        ("packing.maximize_min_yield", yield_search.maximize_min_yield),
        ("packing.minimize_estimated_stretch", yield_search.minimize_estimated_stretch),
        ("schedulers.dfrs.placement.greedy_place_job", placement.greedy_place_job),
        ("schedulers.dfrs.yield_opt.improve_average_yield", yield_opt.improve_average_yield),
    ):
        _patch_lookups(tracer, fn, tracer.wrap(span, fn))

    original_create_scheduler = registry.create_scheduler

    def create_scheduler(name: str) -> Any:
        scheduler = original_create_scheduler(name)
        scheduler.schedule = tracer.wrap("schedulers.schedule", scheduler.schedule)
        return scheduler

    _patch_lookups(tracer, original_create_scheduler, create_scheduler)

    original_create_collector = collectors_mod.create_collector

    def create_collector(name: str, **options: Any) -> Any:
        collector = original_create_collector(name, **options)
        collector.collect = tracer.wrap("campaign.collect", collector.collect)
        return collector

    _patch_lookups(tracer, original_create_collector, create_collector)

    def count_events(duration: float, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.counters["core.engine.events"] += args[0].events_processed

    def count_stream(duration: float, args: tuple, kwargs: dict, result: Any) -> None:
        count_events(duration, args, kwargs, result)
        tracer.counters[f"core.engine.run_stream_s.{result.algorithm}"] += duration

    def count_step(duration: float, args: tuple, kwargs: dict, result: Any) -> None:
        if not math.isinf(result):
            tracer.counters["core.engine.events"] += 1

    tracer.patch(Simulator, "run", tracer.wrap("core.engine.run", Simulator.run, count_events))
    tracer.patch(Simulator, "run_stream",
                 tracer.wrap("core.engine.run_stream", Simulator.run_stream, count_stream))
    tracer.patch(Simulator, "online_step",
                 tracer.wrap("serve.engine.online_step", Simulator.online_step, count_step))
    tracer.patch(Campaign, "run", tracer.wrap("campaign.run", Campaign.run))
    for op in ("submit", "status", "cancel"):
        tracer.patch(SchedulerService, op,
                     tracer.wrap_async(f"serve.service.{op}", getattr(SchedulerService, op)))
    # ``prometheus_text`` renders from ``metrics_snapshot``: the snapshot's
    # span nests in it and counts in both totals.
    for op in ("metrics_snapshot", "prometheus_text"):
        tracer.patch(SchedulerService, op,
                     tracer.wrap(f"serve.service.{op}", getattr(SchedulerService, op)))


def per_round(tracer: Tracer, rounds: int, extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer values per traced round from the tracer's sums.

    ``extra`` carries what the workload measured itself (set-up spans,
    client latencies, placements, request counts, the overhead ratio).
    """
    self_s, calls, counters = tracer.self_s, tracer.calls, tracer.counters
    values: Dict[str, float] = {}
    for name in ("packing.mcb8_pack", "packing.maximize_min_yield",
                 "packing.minimize_estimated_stretch",
                 "schedulers.dfrs.placement.greedy_place_job",
                 "schedulers.dfrs.yield_opt.improve_average_yield",
                 "schedulers.schedule", "serve.engine.online_step"):
        values[f"{name}.self_s"] = self_s.get(name, 0.0) / rounds
        values[f"{name}.calls"] = calls.get(name, 0) / rounds
    mcb8_calls = calls.get("packing.mcb8_pack", 0)
    values["packing.mcb8_pack.items_mean"] = (
        counters.get("packing.mcb8_pack.items", 0.0) / mcb8_calls if mcb8_calls else 0.0
    )
    values["core.engine.self_s"] = sum(self_s.get(name, 0.0) for name in _ENGINE_SPANS) / rounds
    values["core.engine.events"] = counters.get("core.engine.events", 0.0) / rounds
    for algorithm in STREAM_ALGORITHMS:
        key = f"core.engine.run_stream_s.{algorithm}"
        values[key] = counters.get(key, 0.0) / rounds
    values["campaign.run.self_s"] = self_s.get("campaign.run", 0.0) / rounds
    values["campaign.collect_s"] = tracer.total_s.get("campaign.collect", 0.0) / rounds
    for op in ("submit", "status", "cancel", "metrics_snapshot", "prometheus_text"):
        values[f"serve.service.{op}_s"] = tracer.total_s.get(f"serve.service.{op}", 0.0) / rounds
    values.update(extra)
    return {name: float(values.get(name, 0.0)) for name, _ in PER_LAYER}


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (``q`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]
