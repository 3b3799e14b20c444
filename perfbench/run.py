"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload paper-campaign --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it imports the program from ``src/``.
With ``--trace 0`` it sets the workload up in several fresh processes, runs
whole rounds of identical operations for ``--seconds`` seconds, checks the
outputs and prints the end-to-end metrics, scaled to a nominal host by a
reference timed beside the workload (see the README's *Host speed*).
With ``--trace 1`` it alternates untraced and traced rounds for
``--seconds`` seconds, prints the per-layer metrics, and writes the Chrome
trace and the per-layer table under ``perfbench/out/``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

# A set-up is timed from the script's first line.
START = time.perf_counter()

import argparse  # noqa: E402
from array import array  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Set-ups per timed run: the run's own and the rest in fresh processes;
#: ``setup_s`` is their median.
SETUP_REPEATS = 5
#: In-process set-ups of a traced run (for the set-up layers' medians).
TRACED_SETUPS = 3
#: Nearest-rank percentile of request latencies reported as the tail.
TAIL = 0.99
#: Seconds the host-speed reference takes on the benchmark's nominal host:
#: its median over four minutes on a shared 2-core x86-64 sandbox under
#: Python 3.11 (4.0-8.9 ms).
REFERENCE_S = 0.006
#: How much the program's timings move per unit move of the reference's,
#: as a log-log slope.  Fitted over sets of five runs it was 0.50 and 0.71
#: on paper-campaign, 0.82 on diurnal-hetero-stream and 1.02 on
#: serve-closed-loop; one value serves all three.
SENSITIVITY = 0.7
#: Reference timings before each step of a timed round, and after a set-up.
REFERENCE_REPEATS = 2
SETUP_REFERENCE_REPEATS = 10
UNITS = {"jobs_per_s": "jobs/s", "requests_per_s": "req/s", "request_p50_ms": "ms",
         "request_p99_ms": "ms", "setup_s": "s", "peak_rss_mb": "MiB"}


def _bootstrap() -> None:
    """Import the program from this checkout's ``src/`` or fail."""
    package = os.path.join(ROOT, "src", "repro", "__init__.py")
    if not os.path.isfile(package):
        raise SystemExit(f"perfbench: no program to measure ({package} is missing)")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.dirname(package):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not this checkout")


class _Item:
    __slots__ = ("value", "key")

    def __init__(self, value: float, key: int) -> None:
        self.value = value
        self.key = key


def reference() -> float:
    """Seconds that one fixed piece of interpreter work takes right now.

    It makes small objects, updates a dict, does float arithmetic and sorts
    a list, as the program's inner loops do, and calls nothing of the
    program, so a change to the program cannot move it.  Timed beside the
    workload, it tells how fast the host is running at the time.
    """
    start = time.perf_counter()
    totals: dict = {}
    items = []
    acc = 0.0
    for index in range(6000):
        item = _Item(index * 0.5, index % 37)
        totals[item.key] = totals.get(item.key, 0.0) + item.value
        acc += item.value * 1.0001 - item.key
        items.append((item.key, item.value))
    items.sort()
    return time.perf_counter() - start


def _host_speed(samples: list) -> float:
    """How much faster than on the nominal host the program should run now,
    from reference timings."""
    return (REFERENCE_S / statistics.fmean(samples)) ** SENSITIVITY


def _setup_measure(import_s: float, workload) -> tuple:
    """(set-up seconds, host speed right after it)."""
    seconds = import_s + workload.setup()
    return seconds, _host_speed([reference() for _ in range(SETUP_REFERENCE_REPEATS)])


def _setup_probe(workload: str, seed: int) -> tuple:
    """(set-up seconds, host speed) of one fresh process."""
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, speed = completed.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(speed)


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux and bytes on macOS.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


class Round:
    """One round: the steps that attempt the workload's operations once.

    Request latencies are kept as packed doubles (and by request kind only
    for traced rounds), so memory grows by 8 bytes per request at most.
    """

    def __init__(self, steps: list, by_kind: bool = False) -> None:
        self.ops = sum(step.ops for step in steps)
        self.failed = sum(step.failed for step in steps)
        self.jobs = sum(step.jobs for step in steps)
        self.seconds = sum(step.seconds for step in steps)
        # A step that reports no per-request latencies (a campaign or a
        # stream on the simulation workloads) is itself one request.
        requests = [latency for step in steps
                    for latency in (step.latencies or [("step", step.seconds)])]
        self.latencies = array("d", (lat for _, lat in requests))
        self.by_kind: dict = {}
        if by_kind:
            for kind, lat in requests:
                self.by_kind.setdefault(kind, []).append(lat)


def _run_steps(workload, speeds) -> Round:
    """One untraced round; with ``speeds``, the reference is timed before
    each step and appended to it."""
    done = []
    for step in workload.steps(False):
        if speeds is not None:
            speeds.extend(reference() for _ in range(REFERENCE_REPEATS))
        done.append(step())
    return Round(done)


def _rounds(workload, seconds: float, traced_round=None, speeds=None) -> tuple:
    """Rounds for ``seconds``; with ``traced_round``, each untraced round is
    followed by a traced one and the two kinds come back apart."""
    plain, traced, spent = [], [], []
    start = time.perf_counter()
    # A round starts only if a typical round still ends within ``seconds``,
    # so a run does not overrun its time by most of a round.
    while not plain or time.perf_counter() - start + statistics.median(spent) <= seconds:
        began = time.perf_counter()
        plain.append(_run_steps(workload, speeds))
        if traced_round is not None:
            traced.append(traced_round())
        spent.append(time.perf_counter() - began)
    return plain, traced


def run_timed(workload, seconds: float, setups: list) -> tuple:
    from layers import median, quantile

    references: list = []
    rounds, _ = _rounds(workload, seconds, speeds=references)
    # The host's speed swings by up to 1.8x, in spells of seconds to
    # minutes (see the README), so that runs minutes apart differ more than
    # any estimator over one run can hide.  Every timing is therefore
    # scaled to the nominal host by the run's speed: the reference's nominal
    # time over its mean time before each step, to the power SENSITIVITY.
    speed = _host_speed(references)
    # Every round sends the same requests in the same order, so each
    # request recurs once per round.  A request's latency is its mean over
    # its recurrences; the percentiles are taken over those means.
    sums = array("d", bytes(8 * len(rounds[0].latencies)))
    for done in rounds:
        for index, latency in enumerate(done.latencies):
            sums[index] += latency
    latencies = [total / len(rounds) for total in sums]
    seconds_total = sum(d.seconds for d in rounds)
    raw = {
        "jobs_per_s": sum(d.jobs for d in rounds) / seconds_total,
        "requests_per_s": sum(len(d.latencies) for d in rounds) / seconds_total,
        "request_p50_ms": 1e3 * median(latencies),
        "request_p99_ms": 1e3 * quantile(latencies, TAIL),
        "setup_s": statistics.median(s for s, _ in setups),
    }
    metrics = {
        "jobs_per_s": raw["jobs_per_s"] / speed,
        "requests_per_s": raw["requests_per_s"] / speed,
        "request_p50_ms": raw["request_p50_ms"] * speed,
        "request_p99_ms": raw["request_p99_ms"] * speed,
        "setup_s": statistics.median(s * host for s, host in setups),
        "peak_rss_mb": _peak_rss_mb(),
    }
    print(f"perfbench: {len(rounds)} rounds of {len(latencies)} requests, "
          f"set-ups {', '.join(f'{s:.4f} s at speed {host:.3f}' for s, host in setups)}; "
          f"host speed {speed:.4f} over {len(references)} reference timings", file=sys.stderr)
    print("perfbench: unscaled " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()), file=sys.stderr)
    return rounds, {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}


def run_traced(workload, name: str, seed: int, seconds: float) -> tuple:
    import layers
    from tracer import Tracer, format_table, write_trace

    tracer = Tracer()
    kept_spans: list = []
    extras: list = []

    def traced_round() -> Round:
        layers.install(tracer)
        workload.install(tracer)
        try:
            done = Round([step() for step in workload.steps(True)], by_kind=True)
        finally:
            tracer.uninstall()
        if not kept_spans:
            # The Chrome trace keeps the first traced round's spans; later
            # rounds only add to the per-layer sums.
            kept_spans.extend(tracer.spans)
        tracer.spans.clear()
        extras.append(dict(workload.round_layers))
        return done

    plain, traced = _rounds(workload, seconds, traced_round)
    tracer.spans = kept_spans
    count = len(traced)
    extra = {key: layers.median(values) for key, values in workload.setup_layers.items()}
    for key in extras[0]:
        extra[key] = sum(values[key] for values in extras) / count
    if name == "serve-closed-loop":
        requests = sum(seconds for span, seconds in tracer.total_s.items()
                       if span.startswith("serve.request."))
        extra["serve.protocol.self_s"] = (requests - tracer.counters.get("request_child_s", 0.0)) / count
        for op in layers.SERVE_OPS:
            samples = [lat for done in traced for lat in done.by_kind.get(op, ())]
            extra[f"serve.op.{op}_p50_ms"] = 1e3 * layers.median(samples)
    extra["trace.overhead"] = (layers.median([d.seconds for d in traced])
                               / layers.median([d.seconds for d in plain]))
    values = layers.per_round(tracer, count, extra)
    table = [(metric, values[metric], unit) for metric, unit in layers.PER_LAYER]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{name}-seed{seed}")
    meta = {"workload": name, "seed": seed, "traced_rounds": count, "untraced_rounds": len(plain)}
    write_trace(stem + ".trace.json", tracer, table, meta)
    text = format_table(table)
    with open(stem + ".layers.txt", "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(text, file=sys.stderr)
    print(f"perfbench: wrote {stem}.trace.json and {stem}.layers.txt", file=sys.stderr)
    return plain + traced, {metric: {"value": value, "unit": unit} for metric, value, unit in table}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        parser.error("--seconds must be positive")

    _bootstrap()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    import_s = time.perf_counter() - START

    workload = WORKLOADS[args.workload](args.seed)
    try:
        if args.setup_probe:
            print(*_setup_measure(import_s, workload))
            return 0
        if args.trace:
            for _ in range(TRACED_SETUPS):
                workload.setup()
            rounds, metrics = run_traced(workload, args.workload, args.seed, args.seconds)
        else:
            setups = [_setup_measure(import_s, workload)]
            setups += [_setup_probe(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
            rounds, metrics = run_timed(workload, args.seconds, setups)
        errors = workload.check()
    finally:
        workload.close()
    for error in errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(done.ops for done in rounds),
        "failed": sum(done.failed for done in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
