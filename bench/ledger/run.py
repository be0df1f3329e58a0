#!/usr/bin/env python3
"""Perf ledger: end-to-end and per-layer metrics for Chronos, one command.

Builds its own Release tree (bench/ledger/CMakeLists.txt) under
.bench_build/ledger, then times `sweeprun` on the committed workload
manifests in bench/ledger/workloads/ and checks their outputs.

  python3 bench/ledger/run.py [--seed S] [--seconds N] [--repeat N]
                              [--out result.json]
      Full pass: every workload, untraced timing runs for the end-to-end
      metrics, then one traced run plus the layer probe for the per-layer
      metrics. Prints every metric by name with its unit; --out writes them
      as JSON (the input of `compare`).

  python3 bench/ledger/run.py --workload W --seed S --seconds N --trace 0|1
      One workload at one trace level: --trace 0 reports the end-to-end
      metrics, --trace 1 the per-layer metrics. The last stdout line is one
      JSON object {"correct", "attempted", "failed", "metrics"}.

  python3 bench/ledger/run.py compare A.json B.json
      One row per workload and end-to-end metric: both medians, the ratio
      B/A and a verdict (ok, better, worse, unresolved) against the bounds
      in BENCHMARK.json. Exits 1 when any verdict is `worse`.

  python3 bench/ledger/run.py --selftest
      Unit tests of the metric extraction and verdict math against the
      canned fixtures in bench/ledger/testdata/.

Every run checks outputs: sweeprun must exit 0, its CSV must be identical
across the runs of one seed, equal to the digest pinned in pins.json at the
default seed, and byte-equal between the traced and the untraced run; the
probe's scheduler replay must reproduce trace::run_experiment. Any failure
counts in `failed` and makes the command exit 1.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "ledger"
SWEEPRUN = BUILD / "chronos" / "sweeprun"
PROBE = BUILD / "ledger_probe"
WORKLOADS_DIR = HERE / "workloads"

DEFAULT_SEED = 1
# [trace] seed = --seed + TRACE_SEED_OFFSET, so the trace stream and the
# per-cell replication streams ([sweep] seed) never share a seed value.
TRACE_SEED_OFFSET = 100

# Pool threads per workload. Only dag_sweep runs the sweep engine's pool
# with more than one worker; the others are single-threaded so CPU and wall
# time measure the same work.
THREADS = {
    "paper_trace": 1,
    "open_steady": 1,
    "open_auto_small": 1,
    "dag_sweep": 2,
}

SETUP_SPAWNS_FIRST = 3  # probe set-up runs before the first timed run
SETUP_SPAWNS_EACH = 2   # and after every timed run
RUN_TIMEOUT_S = 150


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def units(benchmark, section):
    return {m["name"]: m["unit"] for m in benchmark[section]}


# --- manifests ---------------------------------------------------------------


def seeded_manifest(text, seed):
    """Returns manifest text with [sweep] seed = seed and
    [trace] seed = seed + TRACE_SEED_OFFSET. Both keys must be present."""
    out, section, rewritten = [], None, set()
    for line in text.splitlines():
        header = re.match(r"\s*\[([^\]]+)\]", line)
        if header:
            section = header.group(1).strip()
        elif re.match(r"\s*seed\s*=", line) and section in ("sweep", "trace"):
            value = seed if section == "sweep" else seed + TRACE_SEED_OFFSET
            line = f"seed = {value}"
            rewritten.add(section)
        out.append(line)
    if rewritten != {"sweep", "trace"}:
        raise ValueError("manifest needs a seed key in [sweep] and [trace]")
    return "\n".join(out) + "\n"


def manifest_value(text, section, key):
    """The value of `key` in `[section]`, or None."""
    current = None
    for line in text.splitlines():
        header = re.match(r"\s*\[([^\]]+)\]", line)
        if header:
            current = header.group(1).strip()
            continue
        match = re.match(rf"\s*{re.escape(key)}\s*=\s*([^#]*)", line)
        if match and current == section:
            return match.group(1).strip()
    return None


class Workload:
    def __init__(self, name, seed, workdir):
        self.name = name
        self.threads = THREADS[name]
        text = (WORKLOADS_DIR / f"{name}.ini").read_text()
        self.open = manifest_value(text, "arrivals", "kind") is not None
        self.num_jobs = None
        if not self.open:
            self.num_jobs = int(manifest_value(text, "trace", "num_jobs"))
        self.seed = seed
        self.dir = workdir
        self.manifest = workdir / f"{name}.ini"
        self.manifest.write_text(seeded_manifest(text, seed))


def load_pins():
    with open(HERE / "pins.json") as f:
        return json.load(f)


# --- processes ---------------------------------------------------------------


def build():
    """Configures (once) and builds sweeprun + ledger_probe. Exits 1 with
    the build log's tail on stderr when that fails."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "sweeprun",
                  "ledger_probe", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                sys.stderr.write("\n".join(tail) + "\nbuild failed\n")
                sys.exit(1)


def timed_run(cmd):
    """Runs cmd to completion. Returns (exit code, wall s, cpu s, peak RSS
    MB) measured for that child alone."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, cwd=ROOT)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    watchdog.cancel()
    watchdog.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0


def sweeprun(wl, trace=False, keep_trace=False):
    """One sweeprun of the workload, journaled as a long sweep would be;
    returns its measurements and outputs (the Chrome trace only with
    keep_trace)."""
    csv = wl.dir / "run.csv"
    metrics = wl.dir / "run.metrics.json"
    cmd = [str(SWEEPRUN), str(wl.manifest), "--fresh", "--no-table",
           "--threads", str(wl.threads), "--csv", str(csv),
           "--metrics-out", str(metrics),
           "--journal", str(wl.dir / "run.journal")]
    trace_path = wl.dir / "run.trace.json"
    if trace:
        cmd += ["--trace-out", str(trace_path)]
    rc, wall, cpu, rss = timed_run(cmd)
    run = {"rc": rc, "wall": wall, "cpu": cpu, "rss": rss}
    if rc == 0:
        run["csv"] = csv.read_bytes()
        with open(metrics) as f:
            run["metrics"] = json.load(f)
        if keep_trace:
            with open(trace_path) as f:
                run["trace"] = json.load(f)
    if trace and trace_path.exists():
        trace_path.unlink()
    return run


def probe_setup(wl):
    """Process start plus the sweep engine's set-up phase, in seconds, or
    None when the probe failed."""
    start = time.monotonic_ns()
    out = subprocess.run([str(PROBE), "setup", str(wl.manifest), "--threads",
                          str(wl.threads)], capture_output=True, text=True,
                         cwd=ROOT, timeout=RUN_TIMEOUT_S)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        return None
    done = int(out.stdout.split()[1])
    return (done - start) / 1e9


def probe_layers(wl, depth, cancel_ratio):
    out = subprocess.run([str(PROBE), "layers", str(wl.manifest),
                          "--threads", str(wl.threads), "--depth",
                          str(depth), "--cancel-ratio", repr(cancel_ratio)],
                         capture_output=True, text=True, cwd=ROOT,
                         timeout=RUN_TIMEOUT_S)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        return None
    return json.loads(out.stdout)


# --- metric math (pure; covered by --selftest) -------------------------------


def metric_map(metrics_json):
    """Obs registry JSON -> {name: entry}."""
    return {m["name"]: m for m in metrics_json["metrics"]}


def counter(metrics, name):
    entry = metrics.get(name)
    return entry["value"] if entry else 0


def timer_s(metrics, name):
    entry = metrics.get(name)
    return entry["total_ns"] / 1e9 if entry else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def spans(trace_json, name):
    return [e for e in trace_json["traceEvents"]
            if e.get("ph") == "X" and e["name"] == name]


def setup_from_trace(trace_json):
    """Seconds from trace start to the first sweep.rep span."""
    reps = spans(trace_json, "sweep.rep")
    if not reps:
        raise ValueError("trace has no sweep.rep span")
    return min(e["ts"] for e in reps) / 1e6


def jobs_completed(wl_open, metrics, num_jobs):
    """Simulated jobs a run completed: open.completed for open workloads,
    replications x trace jobs for closed ones."""
    if wl_open:
        return counter(metrics, "open.completed")
    return counter(metrics, "sim.runs") * num_jobs


def csv_attempts(csv_bytes):
    """(launched, killed) summed over the CSV's cells."""
    lines = csv_bytes.decode().splitlines()
    header = lines[0].split(",")
    launched = header.index("attempts_launched")
    killed = header.index("attempts_killed")
    total_launched = total_killed = 0
    for line in lines[1:]:
        fields = line.split(",")
        total_launched += int(fields[launched])
        total_killed += int(fields[killed])
    return total_launched, total_killed


def layer_metrics(wl_open, threads, metrics_json, trace_json, csv_bytes,
                  probe, untraced_wall, traced_wall):
    """Per-layer metrics from one traced run (obs metrics + Chrome trace),
    its CSV, the layer probe's output and the untraced/traced wall times."""
    m = metric_map(metrics_json)
    out = {}

    # exp: sweep engine, pool, journal.
    out["exp.setup_wall_s"] = setup_from_trace(trace_json)
    out["exp.setup_cpu_s"] = sum(e["dur"] for e in
                                 spans(trace_json, "sweep.setup")) / 1e6
    out["exp.rep_cpu_s"] = sum(e["dur"] for e in
                               spans(trace_json, "sweep.rep")) / 1e6
    sweep_run = sum(e["dur"] for e in spans(trace_json, "sweep.run")) / 1e6
    out["exp.pool.idle_share"] = 1.0 - ratio(timer_s(m, "exp.pool.task_run"),
                                             threads * sweep_run)
    out["exp.journal.flush_s"] = timer_s(m, "exp.journal.flush")
    out["exp.journal.bytes"] = counter(m, "exp.journal.bytes")

    # trace: probe only.
    out["trace.sample_ns"] = probe["trace.sample_ns"]
    out["trace.generate_s"] = probe["trace.generate_s"]

    # core: Algorithm 1.
    calls = counter(m, "core.optimizer.calls")
    out["core.optimizer.calls"] = calls
    out["core.optimizer.evals_per_call"] = ratio(
        counter(m, "core.optimizer.evaluations"), calls)
    for key in ("core.optimize_ns.p50", "core.optimize_ns.p99",
                "core.optimize_ns.samples"):
        out[key] = probe[key]

    # serve: plan cache.
    out["serve.hit_ratio"] = ratio(counter(m, "serve.hits"),
                                   counter(m, "serve.requests"))
    for key in ("serve.plan_ns.p50", "serve.plan_ns.p99",
                "serve.plan_ns.samples", "serve.overhead_ns"):
        out[key] = probe[key]

    # sim: open-system engine (admission planning and outcomes).
    open_run = timer_s(m, "open.run")
    open_plan = timer_s(m, "open.plan")
    out["sim.open.plan_share"] = ratio(open_plan, open_run)
    out["sim.open.degrade_ratio"] = ratio(counter(m, "open.degraded"),
                                          counter(m, "open.admitted"))
    out["sim.open.reject_ratio"] = ratio(counter(m, "open.rejected"),
                                         counter(m, "open.arrivals"))
    out["sim.open.in_flight_max"] = counter(m, "open.in_flight")

    # sim: discrete-event engine.
    run_s = open_run - open_plan if wl_open else timer_s(m, "sim.run")
    scheduled = counter(m, "sim.events_scheduled")
    launched, killed = csv_attempts(csv_bytes)
    out["sim.run_s"] = run_s
    out["sim.events_scheduled"] = scheduled
    out["sim.events_fired"] = counter(m, "sim.events_fired")
    out["sim.cancel_ratio"] = ratio(counter(m, "sim.events_cancelled"),
                                    scheduled)
    out["sim.queue_depth_max"] = counter(m, "sim.queue_depth")
    out["sim.ns_per_event"] = ratio(run_s * 1e9, scheduled)
    out["sim.queue.ns_per_event"] = probe["sim.queue.ns_per_event"]
    out["sim.queue.share_est"] = ratio(
        probe["sim.queue.ns_per_event"] * scheduled, run_s * 1e9)
    out["sim.cluster.ns_per_grant"] = probe["sim.cluster.ns_per_grant"]
    out["sim.cluster.share_est"] = ratio(
        probe["sim.cluster.ns_per_grant"] * launched, run_s * 1e9)

    # mapreduce + strategies: the engine's time per launched attempt, the
    # probe's policy replay and the CSV's attempts.
    out["mapreduce.ns_per_attempt"] = ratio(run_s * 1e9, launched)
    for key, value in probe.items():
        if key.startswith("strategies.hook_share."):
            out[key] = value
    out["strategies.useful_attempt_ratio"] = 1.0 - ratio(killed, launched)

    # obs: what tracing costs.
    out["obs.trace_overhead"] = ratio(traced_wall, untraced_wall) - 1.0
    return out


def summarize(samples):
    """Median, quartiles, extremes and count of one metric's samples."""
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 \
        else samples * 3
    return {"value": statistics.median(samples), "q1": q1, "q3": q3,
            "min": min(samples), "max": max(samples), "n": len(samples)}


def verdict(a, b, better, bound):
    """Compares summaries a (before) and b (after) of one metric.

    `unresolved` when either side's run-to-run spread (the distance between
    its quartiles over its median) exceeds the bound, unless every run of b
    is better than every run of a (`better`) or every run of b is worse and
    the medians differ by more than the bound (`worse`)."""
    lower = better == "lower"
    change = (b["value"] - a["value"]) / a["value"]
    worse_by = change if lower else -change
    b_all_better = b["max"] < a["min"] if lower else b["min"] > a["max"]
    b_all_worse = b["min"] > a["max"] if lower else b["max"] < a["min"]
    spread = max((s["q3"] - s["q1"]) / s["value"] for s in (a, b))
    if spread > bound:
        if b_all_better:
            return "better"
        if b_all_worse and worse_by > bound:
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "ok"


# --- measurement -------------------------------------------------------------


class Tally:
    """Attempted / failed operations of one workload run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            sys.stderr.write(f"check failed: {what}\n")
        return ok


def check_csv(tally, wl, run, reference, pins, what):
    """Counts one sweeprun: exit 0, CSV equal to the reference of this seed
    and, at the default seed, to the pinned digest."""
    if run["rc"] != 0:
        return tally.check(False, f"{what}: sweeprun exited {run['rc']}")
    digest = hashlib.sha256(run["csv"]).hexdigest()
    if reference is not None and run["csv"] != reference:
        return tally.check(False, f"{what}: CSV differs between runs")
    if wl.seed == DEFAULT_SEED and digest != pins.get(wl.name):
        return tally.check(False, f"{what}: CSV sha256 {digest} is not the "
                                  f"pinned {pins.get(wl.name)}")
    return tally.check(True, what)


def measure_end_to_end(wl, seconds, repeat, pins, tally):
    """Untraced sweeprun runs back to back for `seconds` (at least `repeat`
    of them), with probe set-up runs before the first and after each."""
    samples = {"wall_s": [], "setup_s": [], "cpu_s": [], "jobs_per_s": [],
               "peak_rss_mb": []}

    def setup_spawns(count):
        for _ in range(count):
            value = probe_setup(wl)
            if tally.check(value is not None, "probe set-up"):
                samples["setup_s"].append(value)

    setup_spawns(SETUP_SPAWNS_FIRST)
    reference = None
    walls = []
    start = time.perf_counter()
    while True:
        run = sweeprun(wl)
        walls.append(run["wall"])
        if check_csv(tally, wl, run, reference, pins, "timed run"):
            reference = run["csv"]
            jobs = jobs_completed(wl.open, metric_map(run["metrics"]),
                                  wl.num_jobs)
            samples["wall_s"].append(run["wall"])
            samples["cpu_s"].append(run["cpu"])
            samples["jobs_per_s"].append(jobs / run["wall"])
            samples["peak_rss_mb"].append(run["rss"])
        setup_spawns(SETUP_SPAWNS_EACH)
        elapsed = time.perf_counter() - start
        if len(walls) >= repeat and \
                elapsed + statistics.median(walls) > seconds:
            break
    return samples


def measure_layers(wl, seconds, pins, tally):
    """Untraced and traced sweeprun runs in alternating order for `seconds`
    (at least one of each), then the layer probe. The per-layer numbers come
    from the first traced run; the tracing overhead compares the medians."""
    plain_walls, traced_walls = [], []
    reference = first_traced = None
    start = time.perf_counter()
    while True:
        order = (False, True) if len(plain_walls) % 2 == 0 else (True, False)
        for trace in order:
            keep = trace and first_traced is None
            run = sweeprun(wl, trace=trace, keep_trace=keep)
            what = "traced run (must equal the untraced CSV)" if trace \
                else "untraced run"
            if not check_csv(tally, wl, run, reference, pins, what):
                return None
            reference = run["csv"]
            (traced_walls if trace else plain_walls).append(run["wall"])
            if keep:
                first_traced = run
        pair = statistics.median(plain_walls) + statistics.median(traced_walls)
        if time.perf_counter() - start + pair > seconds:
            break
    m = metric_map(first_traced["metrics"])
    depth = max(1, counter(m, "sim.queue_depth"))
    cancel = ratio(counter(m, "sim.events_cancelled"),
                   counter(m, "sim.events_scheduled"))
    probe = probe_layers(wl, depth, min(cancel, 0.99))
    if not tally.check(probe is not None and probe.pop("replay_matches"),
                       "probe replay must match trace::run_experiment"):
        return None
    return layer_metrics(wl.open, wl.threads, first_traced["metrics"],
                         first_traced["trace"], first_traced["csv"], probe,
                         statistics.median(plain_walls),
                         statistics.median(traced_walls))


def run_workload(name, seed, trace_level, seconds, repeat, pins):
    """Measures one workload at one trace level. Returns (metrics dict of
    summaries or values, tally)."""
    workdir = BUILD / "runs" / f"{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tally = Tally()
    try:
        wl = Workload(name, seed, workdir)
        if trace_level == 0:
            samples = measure_end_to_end(wl, seconds, repeat, pins, tally)
            metrics = {k: summarize(v) for k, v in samples.items() if v}
        else:
            metrics = measure_layers(wl, seconds, pins, tally) or {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return metrics, tally


# --- reporting ---------------------------------------------------------------


def fmt(value):
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


def print_metrics(name, metrics, unit_of):
    for key in sorted(metrics):
        entry = metrics[key]
        line = f"{name:16} {key:36} {fmt(entry['value']):>14} {unit_of[key]}"
        if "n" in entry:
            line += (f"  (quartiles {fmt(entry['q1'])}-{fmt(entry['q3'])}, "
                     f"min {fmt(entry['min'])}, max {fmt(entry['max'])}, "
                     f"n {entry['n']})")
        print(line)


def contract_line(tally, metrics):
    return json.dumps({"correct": tally.failed == 0,
                       "attempted": max(1, tally.attempted),
                       "failed": tally.failed, "metrics": metrics})


def run_single(args, benchmark, pins):
    section = "end_to_end" if args.trace == 0 else "per_layer"
    unit_of = units(benchmark, section)
    name = args.workload[0]
    metrics, tally = run_workload(name, args.seed, args.trace, args.seconds,
                                  args.repeat, pins)
    if args.trace == 1:
        metrics = {k: {"value": v} for k, v in metrics.items()}
    missing = sorted(set(unit_of) - set(metrics))
    if missing and tally.failed == 0:
        tally.check(False, f"metrics not produced: {', '.join(missing)}")
    print_metrics(name, metrics, unit_of)
    print(contract_line(tally, {
        k: {"value": metrics[k]["value"], "unit": unit_of[k]}
        for k in unit_of if k in metrics}))
    return 0 if tally.failed == 0 else 1


def run_full(args, benchmark, pins):
    e2e_units = units(benchmark, "end_to_end")
    layer_units = units(benchmark, "per_layer")
    result = {"seed": args.seed, "seconds": args.seconds,
              "repeat": args.repeat, "nproc": os.cpu_count(),
              "workloads": {}}
    total = Tally()
    for name in args.workload:
        e2e, tally = run_workload(name, args.seed, 0, args.seconds,
                                  args.repeat, pins)
        layers, layer_tally = run_workload(name, args.seed, 1, args.seconds,
                                           args.repeat, pins)
        attempted = tally.attempted + layer_tally.attempted
        failed = tally.failed + layer_tally.failed
        total.attempted += attempted
        total.failed += failed
        for key, entry in e2e.items():
            entry["unit"] = e2e_units[key]
        result["workloads"][name] = {
            "attempted": attempted, "failed": failed,
            "error_rate": ratio(failed, attempted),
            "end_to_end": e2e,
            "per_layer": {k: {"value": v, "unit": layer_units[k]}
                          for k, v in sorted(layers.items())},
        }
        print_metrics(name, e2e, e2e_units)
        print(f"{name:16} {'error_rate':36} "
              f"{fmt(ratio(failed, attempted)):>14} failed/attempted")
        print_metrics(name, result["workloads"][name]["per_layer"],
                      layer_units)
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1, sort_keys=True)
            f.write("\n")
    flat = {f"{w}.{k}": {"value": v["value"], "unit": v["unit"]}
            for w, r in result["workloads"].items()
            for k, v in r["end_to_end"].items()}
    print(contract_line(total, flat))
    return 0 if total.failed == 0 else 1


def compare(path_a, path_b, benchmark):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    rows, any_worse = [], False
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        for metric in benchmark["end_to_end"]:
            key = metric["name"]
            sa = a["workloads"][name]["end_to_end"].get(key)
            sb = b["workloads"][name]["end_to_end"].get(key)
            if sa is None or sb is None:
                continue
            v = verdict(sa, sb, metric["better"], metric["bound"])
            any_worse = any_worse or v == "worse"
            rows.append((name, key, fmt(sa["value"]), fmt(sb["value"]),
                         f"{sb['value'] / sa['value']:.3f}",
                         f"{metric['bound']:.2f}", v))
    header = ("workload", "metric", "A", "B", "B/A", "bound", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return 1 if any_worse else 0


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.stderr.write("usage: run.py compare A.json B.json\n")
            return 2
        return compare(argv[1], argv[2], load_benchmark())
    if argv[:1] == ["--selftest"]:
        import unittest
        sys.dont_write_bytecode = True
        sys.path.insert(0, str(HERE))
        suite = unittest.defaultTestLoader.loadTestsFromName("test_run")
        ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
        return 0 if ok else 1

    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=list(THREADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"])
    parser.add_argument("--repeat", type=int, default=3,
                        help="minimum untraced runs per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", help="write the full pass as JSON here")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    single = args.trace is not None
    if single and (args.workload is None or len(args.workload) != 1):
        parser.error("--trace needs exactly one --workload")
    args.workload = args.workload or list(THREADS)
    pins = load_pins()
    build()
    return run_single(args, benchmark, pins) if single \
        else run_full(args, benchmark, pins)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
