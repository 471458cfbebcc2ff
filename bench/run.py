#!/usr/bin/env python3
"""Benchmark of centroidcut: four seeded workloads, timed untraced or traced.

    python3 bench/run.py --workload certify --seed 1 --seconds 26 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 26

A run builds the workload's inputs from the seed, runs whole rounds of ops
for about --seconds, then checks every op's output.  At least one round
runs; another starts only while the time used plus the last round's time
stays within --seconds.  ops_per_s is the ops completed per second of the
timed phase, op_p50_s the median latency over every op run.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  The same figures go to bench/out/.
`--workload all` runs every workload untraced and traced, each in its own
process, and writes bench/out/results.json with the tracing overhead:
spans per op times the cost of one span, over the untraced op time.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# one thread per workload process, also inside numpy's BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_PROBES = 3  # fresh processes per run whose median is setup_s

import workloads  # noqa: E402  (standard library only)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
}


def import_centroidcut():
    """The package from this checkout's src/, never an installed copy."""
    if not (SRC / "centroidcut" / "__init__.py").is_file():
        raise SystemExit(f"error: centroidcut sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import centroidcut

    if Path(centroidcut.__file__).resolve().parent != SRC / "centroidcut":
        raise SystemExit(f"error: imported centroidcut from {centroidcut.__file__}")
    return centroidcut


def setup_probe(name: str) -> None:
    """Child process: import centroidcut and build the inputs; print seconds."""
    rec = json.load(sys.stdin)
    started = perf_counter()
    cc = import_centroidcut()
    workloads.build(cc, name, rec)
    print(perf_counter() - started)


def measure_setup(name: str, rec: dict) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, __file__, "--setup-probe", "--workload", name],
                              input=json.dumps(rec), capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def timed_rounds(ops, seconds: float, tracer=None):
    """Whole rounds of ops; returns (latencies, outputs, rounds, wall seconds)."""
    latencies, outputs = [], []
    rounds = 0
    started = perf_counter()
    while True:
        round_started = perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.op_id = len(latencies)
            t0 = perf_counter()
            try:
                out = op()
            except Exception as exc:  # a failing op is counted, the run goes on
                traceback.print_exc(file=sys.stderr)
                out = exc
            latencies.append(perf_counter() - t0)
            outputs.append(out)
        rounds += 1
        now = perf_counter()
        if (now - started) + (now - round_started) > seconds:
            return latencies, outputs, rounds, now - started


def check_outputs(name: str, outputs) -> tuple[int, bool]:
    """(failed ops, correct): an op fails when it raised or a check failed;
    correct is False when an op returned an answer that a check rejects."""
    import checks

    verify = getattr(checks, f"verify_{name}")
    failed, wrong = 0, 0
    for out in outputs:
        if isinstance(out, Exception):
            failed += 1
            continue
        try:
            ok = verify(out)
        except Exception:  # a check that cannot run counts against the op
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            failed += 1
            wrong += 1
    return failed, wrong == 0


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cc = import_centroidcut()
    rec = workloads.recipe(cc, name, seed)
    extra: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    tracer = None
    if trace:
        from tracer import PER_LAYER, Tracer, install_all, layer_metrics, span_cost_s

        tracer = Tracer()
        install_all(tracer, cc)
    else:
        extra["setup_samples_s"] = measure_setup(name, rec)
    inputs = workloads.build(cc, name, rec)
    ops, close = workloads.round_ops(cc, name, inputs, seed)
    latencies, outputs, rounds, wall = timed_rounds(ops, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if close is not None:
        close()
    if tracer is not None:
        tracer.uninstall()
    failed, correct = check_outputs(name, outputs)

    timing = {
        "ops_per_s": len(latencies) / wall,
        "op_p50_s": statistics.median(latencies),
    }
    extra.update(rounds=rounds, ops_per_round=len(ops), wall_s=wall,
                 latencies_s=latencies, **timing)
    if trace:
        metrics = layer_metrics(tracer, len(latencies))
        units = {k: u for k, (u, _) in PER_LAYER.items()}
        extra["spans"] = len(tracer.names)
        extra["spans_per_op"] = sum(op >= 0 for op in tracer.op) / len(latencies)
        extra["span_cost_s"] = span_cost_s()
    else:
        metrics = dict(timing, setup_s=statistics.median(extra["setup_samples_s"]),
                       peak_rss_mb=peak_rss_mb)
        units = END_TO_END
    result = {
        "correct": correct,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(dict(result, run=extra), indent=1) + "\n")
    if tracer is not None:
        tracer.dump(OUT / f"spans-{name}-seed{seed}.tsv")
    return result


def print_result(name: str, result: dict) -> None:
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for key, m in result["metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")


def run_all(seed: int, seconds: float) -> dict:
    """Every workload untraced, then traced, each in a fresh process."""
    summary = {}
    for name in workloads.NAMES:
        entry = {}
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--seed", str(seed), "--seconds", str(seconds),
                                   "--trace", str(trace)],
                                  capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"error: workload {name} (trace {trace}) exited "
                                 f"with {proc.returncode}")
            stem = f"{name}-seed{seed}-trace{trace}"
            entry["traced" if trace else "untraced"] = json.loads(
                (OUT / f"{stem}.json").read_text())
        untraced, traced = entry["untraced"]["run"], entry["traced"]["run"]
        # the overhead is what the spans cost: spans per op times the cost of
        # one span, timed in the traced process, over the untraced op time;
        # the raw traced/untraced ratio is kept apart, as it mostly shows
        # the host's drift between the two processes
        op_s = statistics.fmean(untraced["latencies_s"])
        entry["tracing_overhead"] = {
            "spans_per_op": traced["spans_per_op"],
            "span_cost_s": traced["span_cost_s"],
            "share_of_op_time": traced["spans_per_op"] * traced["span_cost_s"] / op_s,
        }
        entry["traced_vs_untraced_noise"] = {
            "op_p50_s": traced["op_p50_s"] / untraced["op_p50_s"] - 1,
            "time_per_op": untraced["ops_per_s"] / traced["ops_per_s"] - 1,
        }
        summary[name] = entry
        print_result(name, entry["untraced"])
        over, noise = entry["tracing_overhead"], entry["traced_vs_untraced_noise"]
        print(f"  tracing overhead: {over['spans_per_op']:.0f} spans/op x "
              f"{over['span_cost_s'] * 1e6:.2f} us = {over['share_of_op_time'] * 100:.2g} % of op time")
        print(f"  traced vs untraced time per op (host noise, not overhead): "
              f"{noise['time_per_op']:+.1%}")
    (OUT / "results.json").write_text(json.dumps(summary, indent=1) + "\n")
    ok = all(e["untraced"]["correct"] and e["traced"]["correct"] for e in summary.values())
    attempted = sum(e["untraced"]["attempted"] for e in summary.values())
    failed = sum(e["untraced"]["failed"] for e in summary.values())
    return {"correct": ok, "attempted": attempted, "failed": failed,
            "metrics": {f"{name}.{k}": m for name, e in summary.items()
                        for k, m in e["untraced"]["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        print_result(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
