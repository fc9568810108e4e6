"""The forestcodec benchmark.

    python3 perfbench/run.py --workload codec|oracle|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout; forestcodec is imported from its src/.
With --trace 0 the last line of stdout is the result with every end-to-end
metric; with --trace 1 it carries every per-layer metric instead.  The line
before it records the environment.  A JSON record of the run, and with
--trace 1 the spans, go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

import cli_workload
import codec_workload
import harness
import oracle_workload
import warmup
from tracing import ENUM_FAMILIES, STEP_FAMILIES, Tracer

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench_out"
WORKLOADS = {"codec": codec_workload, "oracle": oracle_workload, "cli": cli_workload}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "forests_per_s": "1/s",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "forests.constructed": "count",
    "forests.validate_s": "s",
    "forests.children_calls": "count",
    "forests.children_s": "s",
    "forests.subtree_s": "s",
    "forests.plane_walk_s": "s",
    "forests.parse_s": "s",
    "forests.render_s": "s",
    **{f"bijections.steps.{f}": "count" for f in STEP_FAMILIES},
    **{f"bijections.step_s.{f}": "s" for f in STEP_FAMILIES},
    "codec.sample_s": "s",
    "codec.encode_s": "s",
    "codec.decode_s": "s",
    "codec.rng_draws": "count",
    "codec.rng_rejections": "count",
    "codec.rng_accept_ratio": "ratio",
    **{
        f"codec.{op}_ms.{family}.n{n}": "ms"
        for op in ("decode", "encode")
        for family, _ in codec_workload.FAMILIES
        for n in codec_workload.SWEEP_SIZES
    },
    **{f"codec.decode_slope.{family}": "exponent" for family, _ in codec_workload.FAMILIES},
    "enumeration.candidates": "count",
    "enumeration.yielded": "count",
    "enumeration.yield_ratio": "ratio",
    "enumeration.self_s": "s",
    **{f"enumeration.forests_per_s.{f}": "1/s" for f in ENUM_FAMILIES},
    "counting.calls": "count",
    "counting.self_s": "s",
    "cli.run_s": "s",
    "cli.startup_s": "s",
    "cli.parse_args_s": "s",
    "cli.render_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_share": "ratio",
}


def untraced(fc, workload: str, seed: int, seconds: float):
    if workload == "cli":
        setup_s = harness.setup_seconds(cli_workload.launcher(cli_workload.TRIVIAL), cli_workload.ENV)
        memory = resource.RUSAGE_CHILDREN
    else:
        probe = [sys.executable, str(HERE / "warmup.py"), workload]
        setup_s = harness.setup_seconds(probe, dict(os.environ))
        memory = resource.RUSAGE_SELF
        warmup.WARMUPS[workload](fc)
    results = harness.run_ops(WORKLOADS[workload].rounds(fc, seed), seconds)
    metrics = {"setup_s": setup_s, **harness.end_to_end(results)}
    metrics["peak_rss_mb"] = harness.peak_rss_mb(memory)
    return results, metrics


def traced(fc, workload: str, seed: int):
    """One round (the whole battery for oracle), untraced and then traced,
    followed by the untraced codec sweep."""
    module = WORKLOADS[workload]
    tracer = Tracer()
    cli_metrics = dict.fromkeys(("cli.run_s", "cli.startup_s", "cli.output_bytes"), 0)
    if workload == "cli":
        results, extra = cli_workload.traced_pass(fc, seed, tracer)
        cli_metrics.update(extra)
    else:
        warmup.WARMUPS[workload](fc)
        ops = next(module.rounds(fc, seed))
        results, plain_s = [], 0.0
        for op in ops:
            latency, out = harness.timed(op)
            plain_s += latency
            results.append(harness.Result(op.kind, latency, *harness.judge(op, out)))
        traced_s = 0.0
        tracer.install(fc)
        try:
            for op, result in zip(ops, results):
                latency, out = harness.timed(op)
                tracer.close_open_spans()
                traced_s += latency
                status, _, detail = harness.judge(op, out)
                if status != result.status:
                    result.status, result.detail = "fail", f"traced: {status} {detail}"
        finally:
            tracer.uninstall()
        cli_metrics["trace.overhead_share"] = traced_s / plain_s - 1
    tracer.write(OUT / f"spans-{workload}.bin.gz")
    metrics = {**tracer.layer_metrics(), **cli_metrics, **codec_workload.sweep(fc, seed)}
    return results, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = harness.environment()
    fc = warmup.load()
    if args.trace:
        results, metrics = traced(fc, args.workload, args.seed)
        units = PER_LAYER
    else:
        results, metrics = untraced(fc, args.workload, args.seed, args.seconds)
        units = END_TO_END
    env["loadavg_end"] = os.getloadavg()

    failed = [r for r in results if r.status == "fail"]
    for r in failed[:20]:
        print(f"failed: {r.detail}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    by_kind = {}
    for r in results:
        by_kind.setdefault(f"{r.kind}:{r.status}", []).append(r.latency)
    record = {
        "args": vars(args),
        "environment": env,
        "result": result,
        "ops": {k: {"count": len(v), "median_s": sorted(v)[len(v) // 2]} for k, v in sorted(by_kind.items())},
        "defects": sorted({r.detail for r in results if r.status == "defect"}),
        "unscaled": harness.end_to_end(results, scaled=False) if not args.trace else None,
        "latencies": [(r.round, r.kind, r.status, r.latency, r.probe_s) for r in results],
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
