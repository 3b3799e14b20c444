"""Independent checks of the program's outputs, run after timing stops.

Nothing here calls the code under test: each check recomputes a result from
the generated inputs (or from an event log the program emitted) with its own
few lines, so a fault in the program cannot also be a fault in its check.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

#: The paper's bounded-stretch threshold (seconds), restated here.
STRETCH_BOUND = 30.0
#: Relative tolerance for times that the engine accumulates in floating point.
REL_TOL = 1e-9
#: Absolute slack on capacity sums (the engine's own epsilon is 1e-6).
CAPACITY_SLACK = 1e-6


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def strict_fcfs(jobs: Iterable[Any], num_nodes: int) -> Dict[int, Tuple[float, float]]:
    """Strict first-come-first-serve on whole nodes: ``{job_id: (start, end)}``.

    Jobs start in (submit time, id) order, never before their predecessor,
    as soon as ``num_tasks`` nodes are free; each holds its nodes for its
    dedicated execution time.
    """
    free = num_nodes
    running: List[Tuple[float, int]] = []
    head = float("-inf")
    schedule: Dict[int, Tuple[float, float]] = {}
    for job in sorted(jobs, key=lambda spec: (spec.submit_time, spec.job_id)):
        start = max(job.submit_time, head)
        while True:
            while running and running[0][0] <= start:
                free += heapq.heappop(running)[1]
            if free >= job.num_tasks:
                break
            start = running[0][0]
        free -= job.num_tasks
        end = start + job.execution_time
        heapq.heappush(running, (end, job.num_tasks))
        schedule[job.job_id] = (start, end)
        head = start
    return schedule


def max_bounded_stretch(rows: Iterable[Tuple[float, float, float]]) -> float:
    """``max(max(T, 30) / max(D, 30))`` over (submit, completion, dedicated)."""
    return max(
        max(end - submit, STRETCH_BOUND) / max(dedicated, STRETCH_BOUND)
        for submit, end, dedicated in rows
    )


def replay_placements(
    entries: Sequence[Sequence[Any]],
    specs: Mapping[int, Any],
    capacities: Sequence[Tuple[float, float]],
) -> List[str]:
    """Replay a placement log; report capacity or availability violations.

    ``entries`` are ``[time, action, job_id, nodes, yield]`` rows as the
    program's ``PlacementLogObserver`` writes them, plus ``node-down`` /
    ``node-up`` rows (job id -1, the node in ``nodes``).  After the last
    entry of every instant, each up node must carry at most its CPU and
    memory capacity, and no task may sit on a down node.
    """
    errors: List[str] = []
    placed: Dict[int, Tuple[Tuple[int, ...], float]] = {}
    down: set = set()

    def audit(now: float) -> None:
        cpu = [0.0] * len(capacities)
        mem = [0.0] * len(capacities)
        for job_id, (nodes, yield_value) in placed.items():
            spec = specs[job_id]
            for node in nodes:
                cpu[node] += spec.cpu_need * yield_value
                mem[node] += spec.mem_requirement
                if node in down:
                    errors.append(f"t={now}: job {job_id} has a task on down node {node}")
        for node, (cpu_cap, mem_cap) in enumerate(capacities):
            if cpu[node] > cpu_cap + CAPACITY_SLACK:
                errors.append(f"t={now}: node {node} CPU {cpu[node]:.6f} > {cpu_cap}")
            if mem[node] > mem_cap + CAPACITY_SLACK:
                errors.append(f"t={now}: node {node} memory {mem[node]:.6f} > {mem_cap}")

    for index, (now, action, job_id, nodes, yield_value) in enumerate(entries):
        if action in ("start", "resume", "migrate"):
            placed[job_id] = (tuple(nodes), float(yield_value))
        elif action == "yield":
            held = placed.get(job_id)
            if held is None:
                errors.append(f"t={now}: yield change for unplaced job {job_id}")
            else:
                placed[job_id] = (held[0], float(yield_value))
        elif action in ("preempt", "complete"):
            placed.pop(job_id, None)
        elif action == "node-down":
            down.add(nodes[0])
        elif action == "node-up":
            down.discard(nodes[0])
        last = index + 1 == len(entries) or entries[index + 1][0] != now
        if last:
            audit(now)
        if len(errors) > 20:
            break
    return errors


#: Allowed next states of a job, as the service's ``status`` op reports them.
_LIFECYCLE = {
    "pending": {"pending", "running", "completed", "cancelled"},
    "running": {"running", "paused", "completed", "cancelled"},
    "paused": {"paused", "running", "completed", "cancelled"},
    "completed": {"completed"},
    "cancelled": {"cancelled"},
}


def lifecycle_errors(sequences: Mapping[int, Sequence[str]]) -> List[str]:
    """Check each job's observed ``status`` states follow the lifecycle."""
    errors: List[str] = []
    for job_id, states in sequences.items():
        previous = "pending"
        for state in states:
            if state not in _LIFECYCLE.get(previous, ()):
                errors.append(f"job {job_id}: {previous} -> {state} in {list(states)}")
                break
            previous = state
    return errors
