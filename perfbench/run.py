#!/usr/bin/env python3
"""fugusim benchmark: one command for every workload and metric.

Builds the simulator and the benchmark program (perfbench/fugubench)
from source, runs one workload serially, checks what it simulated
against the outputs recorded in perfbench/expected/, and prints the
metrics as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig10_buffered --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 5   # every workload
    python3 perfbench/run.py --record 0-31                 # re-record

--trace 0 reports the end-to-end metrics (tracing off); --trace 1
reports the per-layer metrics (fugutrace on, StatGroup counters and
the layer drivers). The build directory is $CARGO_TARGET_DIR, or
.bench_build when that is unset.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# Simulator threads and engine shards are fixed here, never derived
# from the host: one serial simulation at a time.
FUGU_THREADS = "1"
BUILD_TYPE = "Release"
# A run (after the build) must end well within 180 s.
RUN_LIMIT_S = 170.0

# Per-trial fields that must repeat exactly for a recorded seed.
# "events" counts engine work, which a speed-only change may reduce
# for the same simulated result, so it is reported but not checked.
CHECKED_FIELDS = ("completed", "violations", "cycles", "sent", "direct",
                  "buffered", "msg_p99_cycles", "req_offered",
                  "req_completed", "req_buffered")
SIM_FIELDS = ("sim_cycles", "sim_fast_pct", "sim_msg_p99_cycles")
SIM_UNITS = {"sim_cycles": "cycles", "sim_fast_pct": "%",
             "sim_msg_p99_cycles": "cycles"}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                          ".bench_build"))


def build():
    """Configure (once) and build fugubench; return its path."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    logpath = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", bdir, "--target", "fugubench",
                  "-j", jobs])
    with open(logpath, "w") as out:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT)
            if rc != 0:
                out.flush()
                with open(logpath) as f:
                    log(f.read()[-4000:])
                # A half-written cache would break the next configure.
                if cmd[1] == "-S":
                    try:
                        os.remove(os.path.join(bdir, "CMakeCache.txt"))
                    except OSError:
                        pass
                raise SystemExit("perfbench: build failed (%s)" % logpath)
    return os.path.join(bdir, "fugubench")


def run_fugubench(binary, workload, seed, seconds, trace, timeout):
    env = dict(os.environ, FUGU_THREADS=FUGU_THREADS)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=timeout, check=False, text=True)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: %s ran past %.0f s"
                         % (" ".join(cmd), timeout))
    if proc.returncode != 0:
        raise SystemExit("perfbench: %s exited with %d"
                         % (" ".join(cmd), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def load_expected(workload):
    """The recorded outputs of @workload: {"seeds": {seed: {"outputs":
    [per-trial dict], "sim": {...}}}}. On disk each trial is one row of
    values in the order of the file's "fields"."""
    path = os.path.join(EXPECTED_DIR, workload + ".json")
    if not os.path.exists(path):
        return {"workload": workload, "seeds": {}}
    with open(path) as f:
        disk = json.load(f)
    fields = disk["fields"]
    seeds = {s: {"sim": rec["sim"],
                 "outputs": [dict(zip(fields, row))
                             for row in rec["trials"]]}
             for s, rec in disk["seeds"].items()}
    return {"workload": workload, "seeds": seeds}


def write_expected(workload, seeds):
    """Write @seeds ({seed: {"outputs", "sim"}}) one trial per line."""
    fields = ("seed",) + CHECKED_FIELDS
    lines = ['{"workload": %s,' % json.dumps(workload),
             ' "fields": %s,' % json.dumps(list(fields)),
             ' "seeds": {']
    items = sorted(seeds.items(), key=lambda kv: int(kv[0]))
    for i, (s, rec) in enumerate(items):
        rows = [json.dumps([o[f] for f in fields]) for o in rec["outputs"]]
        lines.append('  %s: {"sim": %s, "trials": [' %
                     (json.dumps(str(s)),
                      json.dumps(rec["sim"], sort_keys=True)))
        lines.append(",\n".join("   " + r for r in rows))
        lines.append("  ]}" + ("," if i + 1 < len(items) else ""))
    lines.append(" }}")
    with open(os.path.join(EXPECTED_DIR, workload + ".json"), "w") as f:
        f.write("\n".join(lines) + "\n")


def envelope(expected, field):
    """Range a held-out seed's sim figure must fall in: the recorded
    seeds' range widened by half its width, and by at least 1%."""
    vals = [s["sim"][field] for s in expected["seeds"].values()]
    lo, hi = min(vals), max(vals)
    slack = max(0.5 * (hi - lo), 0.01 * abs(statistics.median(vals)))
    return lo - slack, hi + slack


def check_outputs(raw, expected):
    """Check one run's simulated outputs.

    Returns (failed_ops, problems). Each trial ran raw["passes"] times
    and every run of a trial that misses its check is a failed op; a
    trial's failed runs are the larger of this check's count and the
    count fugubench reports (failed_runs: incomplete, violations, replay).
    A recorded seed must match field for field; any other seed must
    pass the seed-independent checks and fall in the envelope.
    """
    passes = int(raw["passes"])
    problems = []
    failed = 0
    rec = expected["seeds"].get(str(raw["seed"]))
    for k, out in enumerate(raw["outputs"]):
        bad = []
        if not out["completed"]:
            bad.append("did not complete")
        if out["violations"] != 0:
            bad.append("%g invariant violations" % out["violations"])
        if out["direct"] + out["buffered"] != out["sent"]:
            bad.append("delivered %d of %d sent"
                       % (out["direct"] + out["buffered"], out["sent"]))
        if out["req_completed"] != out["req_offered"]:
            bad.append("served %d of %d requests"
                       % (out["req_completed"], out["req_offered"]))
        if rec is not None:
            want = rec["outputs"][k]
            for f in CHECKED_FIELDS:
                if out[f] != want[f]:
                    bad.append("%s=%r, recorded %r" % (f, out[f], want[f]))
        failed += max(passes if bad else 0, out.get("failed_runs", 0))
        if bad:
            problems.append("trial %d (seed %d): %s"
                            % (k, out["seed"], "; ".join(bad)))
    for f in SIM_FIELDS:
        got = raw["sim"][f]
        if rec is not None:
            ok = got == rec["sim"][f]
        elif expected["seeds"]:
            lo, hi = envelope(expected, f)
            ok = lo <= got <= hi
        else:
            ok = False
        if not ok:
            failed = max(failed, passes)
            problems.append("%s=%r outside its recorded value/range"
                            % (f, got))
    return failed, problems


def end_to_end_metrics(raw):
    ns = raw["host_ns_per_msg"]
    m = {
        "host_ns_per_msg": {"value": statistics.median(ns), "unit": "ns"},
        "setup_s": {"value": statistics.median(raw["setup_s"]),
                    "unit": "s"},
        "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
    }
    for f in SIM_FIELDS:
        m[f] = {"value": raw["sim"][f], "unit": SIM_UNITS[f]}
    return m


def evaluate(raw, trace, spec, expected):
    """Turn one raw fugubench result into the benchmark's result line."""
    failed, problems = check_outputs(raw, expected)
    # Driver ops that are not trial runs (layer driver repetitions).
    trial_failed = sum(o.get("failed_runs", 0) for o in raw["outputs"])
    failed += int(raw["ops_failed"]) - trial_failed
    problems += [f["failure"] for f in raw.get("failures", [])]
    if trace:
        metrics = raw["layers"]
        names = [m["name"] for m in spec["per_layer"]]
    else:
        metrics = end_to_end_metrics(raw)
        names = [m["name"] for m in spec["end_to_end"]]
    if sorted(metrics) != sorted(names):
        problems.append("metric names differ from BENCHMARK.json")
    attempted = max(1, int(raw["ops"]))
    failed = min(failed, attempted)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: metrics[n] for n in names if n in metrics},
    }
    return result, problems


def meta_line(raw, trace):
    meta = dict(raw["meta"])
    meta.update(workload=raw["workload"], seed=raw["seed"], trace=trace,
                measured_s=round(raw["measured_s"], 3),
                passes=raw["passes"])
    if not trace:
        ns = raw["host_ns_per_msg"]
        meta["host_ns_per_msg_samples"] = len(ns)
        if len(ns) >= 2:
            q = statistics.quantiles(ns, n=4)
            meta["host_ns_per_msg_q1_q3"] = [round(q[0], 1),
                                             round(q[2], 1)]
        meta["setup_samples"] = len(raw["setup_s"])
        meta["host_ns_per_msg_unscaled"] = round(
            statistics.median(raw["host_ns_per_msg_raw"]), 1)
        meta["reference_kernel_ns"] = round(
            statistics.median(raw["ref_ns"]))
    return "# fugubench " + json.dumps(meta, sort_keys=True)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            a, b = part.split("-")
            seeds.extend(range(int(a), int(b) + 1))
        else:
            seeds.append(int(part))
    return seeds


def record(binary, workloads, seeds):
    """Re-record the expected outputs of @workloads for @seeds."""
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    for w in workloads:
        recorded = {}
        for s in seeds:
            raw = run_fugubench(binary, w, s, 0, 0, None)
            if raw["ops_failed"]:
                raise SystemExit("perfbench: %s seed %d failed: %s"
                                 % (w, s, raw["failures"]))
            recorded[str(s)] = {"outputs": raw["outputs"],
                                "sim": raw["sim"]}
            log("recorded %s seed %d: %s" % (w, s, raw["sim"]))
        write_expected(w, recorded)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true",
                    help="run every workload in turn (one result line "
                         "each)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="SEEDS",
                    help="re-record expected outputs for SEEDS "
                         "(e.g. 0-31) of --workload, or of all")
    args = ap.parse_args(argv)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        ap.error("--workload must be one of %s" % ", ".join(names))
    if not (args.workload or args.all or args.record):
        ap.error("give --workload, --all or --record")
    binary = build()

    if args.record:
        record(binary, [args.workload] if args.workload else names,
               parse_seeds(args.record))
        return 0

    for w in names if args.all else [args.workload]:
        raw = run_fugubench(binary, w, args.seed, args.seconds, args.trace,
                         None if args.all else RUN_LIMIT_S)
        result, problems = evaluate(raw, args.trace, spec,
                                    load_expected(w))
        for p in problems:
            log("perfbench: %s: %s" % (w, p))
        print(meta_line(raw, args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
