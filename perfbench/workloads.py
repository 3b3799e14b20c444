"""The three benchmark workloads: set-up, the steps of a round, and checks.

Every workload exposes the same interface to ``run.py``:

* ``setup()`` builds the inputs from the seed (and, for the service, starts
  it); it can run several times and returns the seconds it took;
* ``steps(traced)`` lists the steps of one round, callables that each run
  a fixed group of operations and return a :class:`Step`; every round
  attempts the same operations;
* ``setup_layers`` holds the set-up layers' timings, one per set-up, and
  ``round_layers`` the per-layer counts a traced round measured itself;
* ``install(tracer)`` adds workload-specific wrappers for a traced round;
* ``check()`` runs the independent checks of :mod:`oracles` once timing has
  stopped and returns a list of failures;
* ``close()`` stops everything the workload started.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.schedulers as schedulers
from repro.campaign import Campaign, CustomSource, Scenario
from repro.core.clock import SimulatedClock
from repro.core.cluster import Cluster
from repro.core.engine import SimulationConfig, Simulator
from repro.core.penalties import ReschedulingPenaltyModel
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import generate_instances
from repro.platform import ExponentialFailureSource, NodeClass, NodeClassesPlatform
from repro.serve import SchedulerService, ServiceServer
from repro.serve.loadtest import PlacementLogObserver
from repro.traces import DiurnalPoissonTraceSource, Perturb
from repro.workloads.model import Workload
from repro.workloads.scaling import scale_to_load

import oracles
from layers import STREAM_ALGORITHMS
from tracer import Tracer

perf_counter = time.perf_counter

#: The paper's homogeneous cluster: 64 nodes of 4 cores and 8 GB.
PAPER_CLUSTER = Cluster(64, 4, 8.0)
#: The paper's rescheduling penalty (seconds).
PENALTY_SECONDS = 300.0
#: Default seed of the program's trace and failure generators.
GENERATOR_SEED = 2010
#: Sigma of the lognormal runtime jitter that ``--seed`` draws.
RUNTIME_JITTER = 0.05

#: A sub-critical diurnal-Poisson trace (the BENCH_engine.json recipe).
DIURNAL = dict(
    mean_interarrival_seconds=360.0,
    runtime_log_mean=5.0,
    runtime_log_sigma=1.0,
    max_runtime_seconds=7200.0,
    serial_fraction=0.6,
)


class Step:
    """Measurements of one step: a fixed group of operations."""

    def __init__(self, seconds: float, ops: int, jobs: int,
                 latencies: List[Tuple[str, float]], failed: int = 0) -> None:
        self.seconds = seconds
        self.ops = ops
        self.failed = failed
        #: Simulated jobs completed.
        self.jobs = jobs
        #: (request name, host seconds) per client request; empty when the
        #: step itself is the request (the simulation workloads).
        self.latencies = latencies


def _jitter(seed: int) -> Perturb:
    return Perturb(runtime_factor=RUNTIME_JITTER, seed=seed)


# --------------------------------------------------------------------------- #
# paper-campaign                                                              #
# --------------------------------------------------------------------------- #
class PaperCampaign:
    """The paper's evaluation through ``Campaign.run``, one campaign per trace.

    Four 30-job Lublin traces from the model's fixed seeds (``seed_base``
    2010, the campaign layer's ``LublinSource`` default), scaled to loads
    0.5 and 0.7, all nine paper algorithms, the 300 s penalty, the
    ``stretch`` and ``costs`` collectors.  ``--seed`` jitters every runtime
    by a lognormal factor.  Drawing whole traces from ``--seed`` instead
    made a round's packing work vary tenfold between seeds, because a few
    bursty traces dominate it.
    """

    NUM_TRACES = 4
    NUM_JOBS = 30
    LOADS = (0.5, 0.7)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.workloads: List[Workload] = []
        self.scenarios: List[Scenario] = []
        self.setup_layers: Dict[str, List[float]] = {
            "workloads.lublin.generate_s": [], "traces.jobs_s": []}
        self.round_layers: Dict[str, float] = {}
        self.rows: List[Any] = []

    def setup(self) -> float:
        start = perf_counter()
        base = generate_instances(ExperimentConfig(
            cluster=PAPER_CLUSTER, num_traces=self.NUM_TRACES,
            num_jobs=self.NUM_JOBS, seed_base=GENERATOR_SEED,
        ))
        generated = perf_counter()
        self.workloads = [
            Workload(f"{workload.name}-jitter{self.seed}", PAPER_CLUSTER,
                     list(_jitter(self.seed * 1000 + index).apply(iter(workload.jobs), PAPER_CLUSTER)))
            for index, workload in enumerate(base)
        ]
        jittered = perf_counter()
        self.scenarios = [
            Scenario(
                name=f"paper-campaign-{workload.name}",
                source=CustomSource(factory=lambda cluster, w=workload: [w], key=workload.name),
                algorithms=tuple(schedulers.PAPER_ALGORITHMS),
                cluster=PAPER_CLUSTER,
                penalty_seconds=PENALTY_SECONDS,
                sweep=(("load", self.LOADS),),
                collectors=("stretch", "costs"),
            )
            for workload in self.workloads
        ]
        self.rows = [None] * len(self.scenarios)
        self.setup_layers["workloads.lublin.generate_s"].append(generated - start)
        self.setup_layers["traces.jobs_s"].append(jittered - generated)
        return perf_counter() - start

    def install(self, tracer: Tracer) -> None:
        pass

    def steps(self, traced: bool) -> List[Callable[[], Step]]:
        return [lambda index=index: self._campaign(index) for index in range(len(self.scenarios))]

    def _campaign(self, index: int) -> Step:
        start = perf_counter()
        result = Campaign(workers=1).run(self.scenarios[index])
        seconds = perf_counter() - start
        self.rows[index] = result.rows
        jobs = sum(int(row.metrics["num_jobs"]) for row in result.rows)
        return Step(seconds, len(result.rows), jobs, [])

    def check(self) -> List[str]:
        """Strict-FCFS oracle and recomputed max bounded stretch per row."""
        errors: List[str] = []
        config = SimulationConfig(penalty_model=ReschedulingPenaltyModel(PENALTY_SECONDS))
        for workload, rows in zip(self.workloads, self.rows):
            for row in rows:
                load = row.params_dict()["load"]
                scaled = scale_to_load(workload, float(load))
                where = f"{workload.name} load={load} {row.algorithm}"
                if row.metrics["num_jobs"] != len(scaled.jobs):
                    errors.append(f"{where}: {row.metrics['num_jobs']} jobs, expected {len(scaled.jobs)}")
                records = Simulator(
                    PAPER_CLUSTER, schedulers.create_scheduler(row.algorithm), config,
                ).run(scaled.jobs).jobs
                recomputed = oracles.max_bounded_stretch(
                    (r.spec.submit_time, r.completion_time, r.spec.execution_time) for r in records
                )
                if not oracles.close(recomputed, row.metrics["max_stretch"]):
                    errors.append(f"{where}: max_stretch {row.metrics['max_stretch']} != {recomputed}")
                if row.algorithm == "fcfs":
                    errors.extend(f"{where}: {error}" for error in
                                  _fcfs_errors(scaled.jobs, records, row.metrics["max_stretch"]))
        return errors

    def close(self) -> None:
        pass


def _fcfs_errors(jobs: List[Any], records: List[Any], max_stretch: float) -> List[str]:
    """Compare the engine's fcfs schedule and max stretch with the oracle's."""
    reference = oracles.strict_fcfs(jobs, PAPER_CLUSTER.num_nodes)
    for record in records:
        start, end = reference[record.spec.job_id]
        if not (oracles.close(record.first_start_time, start)
                and oracles.close(record.completion_time, end)):
            return [f"job {record.spec.job_id} ran [{record.first_start_time}, "
                    f"{record.completion_time}], strict FCFS gives [{start}, {end}]"]
    expected = oracles.max_bounded_stretch(
        (spec.submit_time, reference[spec.job_id][1], spec.execution_time) for spec in jobs
    )
    if not oracles.close(expected, max_stretch):
        return [f"max_stretch {max_stretch} != strict-FCFS oracle {expected}"]
    return []


# --------------------------------------------------------------------------- #
# diurnal-hetero-stream                                                       #
# --------------------------------------------------------------------------- #
class _PlacementAndNodeLog(PlacementLogObserver):
    """The program's placement log plus node failure and repair rows."""

    def on_node_down(self, time: float, node: int) -> None:
        self._log(time, "node-down", -1, (node,))

    def on_node_up(self, time: float, node: int) -> None:
        self._log(time, "node-up", -1, (node,))


class DiurnalHeteroStream:
    """A long diurnal-Poisson trace streamed through ``run_stream``.

    16 nodes at 1.5x CPU and 48 at 1.0x, exponential node failures under
    the ``resubmit`` policy, one ``run_stream`` per algorithm per round.
    The trace and the failure stream use their generators' default seed;
    ``--seed`` jitters every runtime by a lognormal factor.  Drawing the
    trace and the failures from ``--seed`` instead made a round's work vary
    2.5-fold between seeds: a failure that lands in a busy hour leaves a
    backlog that dynmcb8-asap-per-600 repacks at every tick.
    """

    NUM_JOBS = 1200
    MTBF_SECONDS = 500_000.0
    MTTR_SECONDS = 3600.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.jobs: List[Any] = []
        self.setup_layers: Dict[str, List[float]] = {"traces.jobs_s": []}
        self.round_layers: Dict[str, float] = {}
        self.outcomes: Dict[str, Tuple[int, float, int]] = {}
        self.logs: Dict[str, List[List[Any]]] = {}

    def setup(self) -> float:
        start = perf_counter()
        classes = (NodeClass("fast", 16, cpu=1.5), NodeClass("standard", 48, cpu=1.0))
        self.cluster = NodeClassesPlatform(classes=classes).build_cluster()
        began = perf_counter()
        source = DiurnalPoissonTraceSource(num_jobs=self.NUM_JOBS, seed=GENERATOR_SEED, **DIURNAL)
        self.jobs = list(source.transformed(_jitter(self.seed)).jobs(self.cluster))
        generated = perf_counter()
        platform = NodeClassesPlatform(
            classes=classes,
            events=ExponentialFailureSource(
                mtbf_seconds=self.MTBF_SECONDS, mttr_seconds=self.MTTR_SECONDS,
                horizon_seconds=self.jobs[-1].submit_time, seed=GENERATOR_SEED,
            ),
            failure_policy="resubmit",
        )
        self.config = SimulationConfig(
            penalty_model=ReschedulingPenaltyModel(PENALTY_SECONDS),
            streaming_metrics=True,
            node_events=platform.events,
            failure_policy=platform.failure_policy,
            node_class_names=platform.node_class_names(),
        )
        self.setup_layers["traces.jobs_s"].append(generated - began)
        return perf_counter() - start

    def install(self, tracer: Tracer) -> None:
        pass

    def steps(self, traced: bool) -> List[Callable[[], Step]]:
        if traced:
            self.round_layers["engine.placements"] = 0
        return [lambda name=name: self._stream(name, traced) for name in STREAM_ALGORITHMS]

    def _stream(self, algorithm: str, traced: bool) -> Step:
        log = _PlacementAndNodeLog() if traced else None
        simulator = Simulator(
            self.cluster, schedulers.create_scheduler(algorithm), self.config,
            observers=[log] if log is not None else None,
        )
        start = perf_counter()
        result = simulator.run_stream(iter(self.jobs))
        seconds = perf_counter() - start
        stats = result.job_stats
        self.outcomes[algorithm] = (stats.count, stats.stretch.minimum, result.costs.node_failures)
        if log is not None:
            self.logs[algorithm] = log.entries
            self.round_layers["engine.placements"] += sum(
                1 for entry in log.entries if entry[1] in ("start", "resume", "migrate"))
        return Step(seconds, 1, stats.count, [])

    def check(self) -> List[str]:
        """Completed count, the stretch floor, and (traced) placement replay.

        A task progresses at its yield, at most 1.0, whatever its node's CPU
        capacity: the 1.5x class hosts more CPU, it does not run one task
        faster.  The fastest class therefore implies a floor of 1.0 on every
        job's bounded stretch.
        """
        errors: List[str] = []
        for algorithm, (completed, min_stretch, failures) in self.outcomes.items():
            if completed != len(self.jobs):
                errors.append(f"{algorithm}: completed {completed} of {len(self.jobs)} jobs")
            if min_stretch < 1.0 - oracles.REL_TOL:
                errors.append(f"{algorithm}: minimum stretch {min_stretch} < 1.0")
            if failures == 0:
                errors.append(f"{algorithm}: no node failed, the failure stream is not exercised")
        specs = {spec.job_id: spec for spec in self.jobs}
        capacities = [(self.cluster.cpu_capacity(node), self.cluster.mem_capacity(node))
                      for node in self.cluster.node_ids]
        for algorithm, entries in self.logs.items():
            errors.extend(f"{algorithm}: {error}"
                          for error in oracles.replay_placements(entries, specs, capacities))
        return errors

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------- #
# serve-closed-loop                                                           #
# --------------------------------------------------------------------------- #
class ServeClosedLoop:
    """One closed-loop client against a live fcfs service on a local socket.

    The traffic follows the repository's soak harness (``repro.obs.soak``):
    a feed of ``submit``s, and a scrape of ``metrics`` then ``metrics-prom``
    every ``SCRAPE_EVERY`` submits, the ratio of ``BENCH_soak.json`` (44
    scrapes over 790 submits).  No client in the repository sends
    ``status`` or ``cancel``; their share here is assumed and kept small:
    one job in ``SAMPLE_EVERY`` has its ``status`` read right after its
    submit and again after the round's ``drain``, and one job in
    ``CANCEL_EVERY`` (a sampled one) is cancelled by a ``cancel`` written
    together with its ``submit``.  Job shapes come from a diurnal-Poisson
    trace drawn from ``--seed``; the request lines are encoded before the
    round starts.
    """

    SUBMITS = 1000
    SCRAPE_EVERY = 18
    SAMPLE_EVERY = 10
    CANCEL_EVERY = 20

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.loop = asyncio.new_event_loop()
        self.setup_layers: Dict[str, List[float]] = {"traces.jobs_s": []}
        self.round_layers: Dict[str, float] = {}
        self.service: Optional[SchedulerService] = None
        self.server: Optional[ServiceServer] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.tracer: Optional[Tracer] = None
        self.next_job_id = 0
        self.accepted = 0
        self.cancelled = 0
        self.errors: List[str] = []

    # -- set-up ----------------------------------------------------------------
    def setup(self) -> float:
        start = perf_counter()
        self._stop()
        began = perf_counter()
        jobs = list(DiurnalPoissonTraceSource(
            num_jobs=self.SUBMITS, seed=self.seed, **DIURNAL).jobs(PAPER_CLUSTER))
        self.setup_layers["traces.jobs_s"].append(perf_counter() - began)
        self.submit_lines = [
            (json.dumps({"op": "submit", "job": {
                "num_tasks": spec.num_tasks, "cpu_need": spec.cpu_need,
                "mem_requirement": spec.mem_requirement,
                "execution_time": spec.execution_time,
            }}, sort_keys=True) + "\n").encode()
            for spec in jobs
        ]
        self.loop.run_until_complete(self._start())
        self.next_job_id = 0
        self.accepted = self.cancelled = 0
        self.errors = []
        return perf_counter() - start

    async def _start(self) -> None:
        # ``repro-dfrs serve``'s engine configuration: streaming metrics keep
        # the service's memory independent of how many jobs it has run.
        self.service = SchedulerService(
            PAPER_CLUSTER, "fcfs", config=SimulationConfig(streaming_metrics=True))
        await self.service.start(clock=SimulatedClock())
        self.server = ServiceServer(self.service)
        host, port = await self.server.start()
        self.reader, self.writer = await asyncio.open_connection(host, port)

    def _requests(self) -> List[Tuple[str, bytes, int]]:
        """This round's (op, line, job id) requests; ids are the service's
        sequential ids, which the fixed submit order makes known.  A
        ``cancel`` rides in the same write as its job's ``submit`` and the
        pair is one request: the server handles both lines before its
        engine driver runs again, so the job is still pending when the
        cancel arrives."""
        first = self.next_job_id
        requests: List[Tuple[str, bytes, int]] = []
        sampled: List[int] = []
        for index, line in enumerate(self.submit_lines):
            job_id = first + index
            if index % self.CANCEL_EVERY == self.CANCEL_EVERY - 1:
                requests.append(("submit+cancel", line + b'{"job_id": %d, "op": "cancel"}\n' % job_id, job_id))
            else:
                requests.append(("submit", line, job_id))
            if index % self.SAMPLE_EVERY == self.SAMPLE_EVERY - 1:
                sampled.append(job_id)
                requests.append(("status", b'{"job_id": %d, "op": "status"}\n' % job_id, job_id))
            if index % self.SCRAPE_EVERY == self.SCRAPE_EVERY - 1:
                requests.append(("metrics", b'{"op": "metrics"}\n', -1))
                requests.append(("metrics-prom", b'{"op": "metrics-prom"}\n', -1))
        requests.append(("drain", b'{"op": "drain"}\n', -1))
        requests.extend(("status", b'{"job_id": %d, "op": "status"}\n' % job_id, job_id)
                        for job_id in sampled)
        self.next_job_id = first + len(self.submit_lines)
        return requests

    # -- rounds ----------------------------------------------------------------
    def install(self, tracer: Tracer) -> None:
        assert self.service is not None
        tracer.patch(self.service.scheduler, "schedule",
                     tracer.wrap("schedulers.schedule", self.service.scheduler.schedule))
        self.tracer = tracer

    def steps(self, traced: bool) -> List[Callable[[], Step]]:
        requests = self._requests()
        tracer, self.tracer = (self.tracer if traced else None), None
        return [lambda: self._exchange(requests, tracer)]

    def _exchange(self, requests: List[Tuple[str, bytes, int]], tracer: Optional[Tracer]) -> Step:
        metrics = self.service.metrics
        placements, completions = metrics.placements, metrics.completions
        seconds, replies, latencies = self.loop.run_until_complete(self._send_all(requests, tracer))
        # Every job of the round ends by its drain, so the round's replies
        # are checked here and dropped: client memory does not grow with
        # the number of rounds, which would move peak_rss_mb with speed.
        states: Dict[int, List[str]] = {}
        accepted = failed = 0
        for (op, _, job_id), reply in zip(requests, replies):
            payloads = [json.loads(line) for line in reply]
            head = payloads[0]
            if not all(payload.get("ok") for payload in payloads):
                failed += 1
                self._error(f"{op} {job_id}: {payloads}")
            elif op.startswith("submit"):
                if head.get("job_id") != job_id or not head.get("accepted"):
                    failed += 1
                    self._error(f"submit {job_id}: {head}")
                    continue
                accepted += 1
                if op == "submit+cancel" and payloads[1].get("cancelled"):
                    self.cancelled += 1
                    states.setdefault(job_id, []).append("cancelled")
            elif op == "status":
                states.setdefault(job_id, []).append(str(head.get("state")))
            elif op == "drain" and not head.get("drained"):
                failed += 1
                self._error(f"drain: {head}")
        for error in oracles.lifecycle_errors(states):
            self._error(error)
        for job_id, sequence in states.items():
            # The last status of a sampled job is read after the drain.
            if sequence[-1] not in ("completed", "cancelled"):
                self._error(f"job {job_id}: {sequence[-1]} after the drain")
        self.accepted += accepted
        if tracer is not None:
            self.round_layers = {
                "engine.placements": metrics.placements - placements,
                "serve.requests": len(latencies),
                "serve.accepted": accepted,
            }
        return Step(seconds, len(latencies), metrics.completions - completions, latencies, failed)

    def _error(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    async def _send_all(self, requests: List[Tuple[str, bytes, int]], tracer: Optional[Tracer],
                        ) -> Tuple[float, List[List[bytes]], List[Tuple[str, float]]]:
        """Send each request (a line, or a pipelined submit+cancel pair) and
        read its replies; each request is one latency sample, timed from
        the write to its last reply."""
        reader, writer = self.reader, self.writer
        replies: List[List[bytes]] = []
        latencies: List[Tuple[str, float]] = []
        start = perf_counter()
        for op, line, _ in requests:
            if tracer is not None:
                span_id = tracer.new_id()
                tracer.request_parent = span_id
            began = perf_counter()
            writer.write(line)
            replies.append([await reader.readline() for _ in op.split("+")])
            end = perf_counter()
            latencies.append((op, end - began))
            if tracer is not None:
                tracer.request_parent = -1
                tracer.record(span_id, f"serve.request.{op}", began, end)
        return perf_counter() - start, replies, latencies

    def check(self) -> List[str]:
        """Every reply ok, every job's lifecycle valid (both checked per
        round), and accepted = completed + cancelled."""
        errors = list(self.errors)
        snapshot = self.loop.run_until_complete(self._metrics())
        if snapshot["accepted"] != self.accepted:
            errors.append(f"service accepted {snapshot['accepted']}, client saw {self.accepted}")
        if snapshot["cancelled"] != self.cancelled:
            errors.append(f"service cancelled {snapshot['cancelled']}, client saw {self.cancelled}")
        if snapshot["accepted"] != snapshot["completions"] + self.cancelled:
            errors.append(
                f"accepted {snapshot['accepted']} != completed {snapshot['completions']}"
                f" + cancelled {self.cancelled}"
            )
        return errors

    async def _metrics(self) -> Dict[str, Any]:
        self.writer.write(b'{"op": "metrics"}\n')
        payload = json.loads(await self.reader.readline())
        return payload["metrics"]

    def _stop(self) -> None:
        """Close the client, the server and the service, if started."""
        if self.service is None:
            return
        self.loop.run_until_complete(self._stop_async())
        self.service = self.server = self.writer = None

    async def _stop_async(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()
        await self.server.close()
        await self.service.shutdown()

    def close(self) -> None:
        self._stop()
        self.loop.close()


WORKLOADS = {
    "paper-campaign": PaperCampaign,
    "diurnal-hetero-stream": DiurnalHeteroStream,
    "serve-closed-loop": ServeClosedLoop,
}
