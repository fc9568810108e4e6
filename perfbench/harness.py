"""The closed loop shared by the workloads, and the end-to-end metrics.

A workload is a stream of rounds; a round is a list of ops with a fixed mix
of classes (families, command kinds or battery parts), shuffled by the
workload seed.  One client runs the ops one at a time.  Each op's output is
checked right after it, outside its timed interval, and then dropped.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

# p90 needs at least ten samples beyond it.
MIN_OPS = 100
# The machines this runs on are shared VMs whose speed drifts by up to 40%
# in periods of about ten seconds, with CPU time tracking wall time (other
# tenants slow the core itself).  Every timing is therefore taken together
# with `probe()`, a fixed piece of interpreted work timed just before and after
# it, and scaled by REFERENCE_PROBE_S over their mean: the result reads as on
# a reference machine state, and the drift, which slows the probe and the
# program alike, cancels.
REFERENCE_PROBE_S = 0.00025
# Stop at the first round boundary past this much real time, whatever the
# op count, so that a run on a very slow machine still ends in time.
CAP_S = 110.0
SETUP_PROBES = 7


class KnownDefect(Exception):
    """The output is exactly the documented behaviour of a known defect."""


class Mismatch(Exception):
    """The output is wrong."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    # Checks the call's output and returns how many forests it checked.
    # Raises Mismatch for a wrong output and KnownDefect for a reproduced
    # known defect.  Exceptions raised by `call` are passed in as the output.
    check: Callable[[Any], int]


@dataclass
class Result:
    kind: str
    latency: float
    status: str  # "ok", "defect" or "fail"
    forests: int
    detail: str = ""
    round: int = 0
    probe_s: float = REFERENCE_PROBE_S  # mean probe() time around the op

    @property
    def scaled(self) -> float:
        """The latency at the reference machine state."""
        return self.latency * REFERENCE_PROBE_S / self.probe_s


def judge(op: Op, out: Any) -> tuple[str, int, str]:
    try:
        return "ok", op.check(out), ""
    except KnownDefect as exc:
        return "defect", 0, str(exc)
    except Exception as exc:  # any check error is a failed op, reported
        return "fail", 0, f"{op.kind}: {type(exc).__name__}: {exc}"[:500]


def timed(op: Op) -> tuple[float, Any]:
    start = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # the op failed; its check decides how
        out = exc
    return time.perf_counter() - start, out


def run_ops(rounds: Iterable[list[Op]], seconds: float) -> list[Result]:
    """Run whole rounds, at least MIN_OPS ops, and stop at the round boundary
    nearest to `seconds` of op time."""
    results: list[Result] = []
    busy = 0.0
    start = time.perf_counter()
    for index, ops in enumerate(rounds):
        round_busy = 0.0
        for op in ops:
            before = probe()
            latency, out = timed(op)
            speed = (before + probe()) / 2
            round_busy += latency
            results.append(Result(op.kind, latency, *judge(op, out), round=index, probe_s=speed))
        busy += round_busy
        if len(results) >= MIN_OPS and busy + round_busy / 2 >= seconds:
            break
        if time.perf_counter() - start >= CAP_S:
            break
    return results


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b) -> None:
        self.a, self.b = a, b


def _calibration_load() -> int:
    """Interpreted work shaped like forestcodec's: small tuples, objects, a
    dict and comprehensions.  It tracks the program's slowdowns about twice
    as closely as a loop of integer arithmetic does."""
    rows = [(i, i + 1, (i, str(i))) for i in range(600)]
    table = {row[0]: _Cell(row[1], row[2]) for row in rows}
    return sum(cell.a for cell in table.values()) + len([r for r in rows if r[2][0] & 1])


def probe() -> float:
    """Best of three timings of the calibration load."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _calibration_load()
        best = min(best, time.perf_counter() - start)
    return best


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(results: list[Result], scaled: bool = True) -> dict[str, float]:
    """Throughput over the busy time (the sum of op latencies), latency
    percentiles and the share of correct ops, from scaled or raw timings.

    A failed op, or one that reproduces a known defect, counts as slower than
    every successful op (its latency is taken as the whole busy time) and
    adds nothing to the throughput numerators.
    """
    ok = [r for r in results if r.status == "ok"]
    times = [r.scaled if scaled else r.latency for r in results]
    busy = sum(times)
    latencies = sorted(t if r.status == "ok" else busy for r, t in zip(results, times))
    return {
        "ops_per_s": len(ok) / busy,
        "op_p50_ms": 1000 * nearest_rank(latencies, 0.5),
        "op_p90_ms": 1000 * nearest_rank(latencies, 0.9),
        "forests_per_s": sum(r.forests for r in ok) / busy,
        "ok_share": len(ok) / len(results),
    }


def scaled_call(fn: Callable[[], Any]) -> tuple[float, Any]:
    """The scaled time of one call, and its result."""
    before = probe()
    start = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - start
    return elapsed * REFERENCE_PROBE_S / ((before + probe()) / 2), out


def setup_seconds(argv: list[str], env: dict[str, str]) -> float:
    """Median scaled wall time of SETUP_PROBES fresh interpreters."""

    def fresh():
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)

    return statistics.median(scaled_call(fresh)[0] for _ in range(SETUP_PROBES))


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


def environment() -> dict[str, Any]:
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "note": (
            "shared, unpinned VM: other tenants slow the CPU by up to 40% for "
            "periods of about ten seconds, CPU time tracking wall time; "
            "timings are scaled by a calibration loop (harness.probe) and "
            "runs compared by their medians against the bounds in "
            "BENCHMARK.json, never singly"
        ),
    }
