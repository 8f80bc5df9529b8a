#!/usr/bin/env python3
"""bench_e2e_smoke: every workload for a fraction of a second, untraced and
traced, and the planted-error self-test.

    smoke.py --bench PATH/bench_e2e --benchmark-json PATH/BENCHMARK.json

Asserts that every run checks out with no failed op, that each run prints
every metric BENCHMARK.json names (a latency percentile may be missing only
when too few ops ran to report it), that every trace is well-formed (each
span's parent exists and every self time is >= 0), and that --self-test
fails with failed ops.  Runs in the current directory, which receives the
daemon sockets and the trace files.
"""
import argparse
import concurrent.futures
import json
import subprocess
import sys

SECONDS = "0.6"
# Ops needed before a run reports a percentile: ten beyond its rank.
PERCENTILE_MIN_OPS = {"latency_p50_ms": 20, "latency_p90_ms": 100}


def run(bench, *args):
    proc = subprocess.run([bench, *args, "--scratch", "."], capture_output=True, text=True,
                          timeout=120)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout + proc.stderr


def check_trace(path):
    with open(path) as handle:
        events = json.load(handle)["traceEvents"]
    assert events, "empty trace"
    covered = [0.0] * len(events)
    children = [0] * len(events)
    for index, event in enumerate(events):
        args = event["args"]
        assert args["id"] == index, "span ids are positions"
        parent = args["parent"]
        if parent >= 0:
            assert parent < index, "parent %d of span %d does not precede it" % (parent, index)
            assert events[parent]["args"]["op"] == args["op"], "parent in another op"
            covered[parent] += event["dur"]
            children[parent] += 1
    for index, event in enumerate(events):
        # Each duration is rounded to the nanosecond (0.001 in these units).
        assert event["dur"] - covered[index] >= -0.001 * (children[index] + 1), \
            "span %d (%s) has negative self time" % (index, event["name"])


def check_run(bench, names, workload, traced):
    args = ["--workload", workload, "--seed", "1", "--seconds", SECONDS]
    trace_path = "smoke-%s.trace.json" % workload
    if traced:
        args += ["--trace", trace_path]
    code, result, output = run(bench, *args)
    label = "%s%s" % (workload, " traced" if traced else "")
    assert code == 0 and result is not None, "%s exited %d:\n%s" % (label, code, output)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        "%s: %s" % (label, output)
    for name in names:
        if name in result["metrics"]:
            continue
        assert result["attempted"] < PERCENTILE_MIN_OPS.get(name, 0), \
            "%s: metric %s missing" % (label, name)
    if traced:
        check_trace(trace_path)
    return label


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bench", required=True)
    parser.add_argument("--benchmark-json", required=True)
    args = parser.parse_args()
    with open(args.benchmark_json) as handle:
        spec = json.load(handle)
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]

    jobs = []
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        for workload in (w["name"] for w in spec["workloads"]):
            jobs.append(pool.submit(check_run, args.bench, end_to_end, workload, False))
            jobs.append(pool.submit(check_run, args.bench, per_layer, workload, True))
        for job in jobs:
            print("ok", job.result())

    code, result, output = run(args.bench, "--self-test")
    assert code != 0, "self-test passed with a planted wrong period:\n" + output
    assert result is not None and result["failed"] > 0, "self-test:\n" + output
    print("ok self-test (%d of %d ops failed, as planted)" % (result["failed"], result["attempted"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
