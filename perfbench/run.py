"""bbmb benchmark: verification-study workloads through the public entry
points, end-to-end metrics from untraced runs, per-layer metrics from
traced ones.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-reference [--workload NAME]

The second form re-records reference.json (all workloads, or one) from
the current sources; do that only when a change of results is intended.

Every instance is a fresh child process (child.py) started one at a time
from this process; it imports bbmb from ./src, parses the generated
config with ``bbmb.config.parse_config`` and calls
``bbmb.cli.run_experiment`` with the program's default threading.
Instances are started while the next one is expected to end within S
seconds, at least MIN_INSTANCES of them, and each one's outputs are
checked (workloads.py).  Setup-only children, interleaved with the
instances, sample the set-up time across the whole run, because it
drifts over seconds on a shared host.

--trace 0 prints the end-to-end metrics:
    wall_s            median wall time of one run_experiment call
    node_steps_per_s  sum over cases of M*N, divided by wall_s
    setup_s           median time from child start to config parsed
                      (interpreter, numpy and bbmb imports, parsing)
    peak_rss_mb       median of the children's peak resident memory
    pass_frac         children whose outputs passed every check, over
                      children started (1 - the failure fraction)
--trace 1 alternates untraced and traced instances and prints the
per-layer metrics of tracing.py (busy CPU time per layer and call site,
counts, computed array bytes; medians over traced instances), the
tracing overhead (traced minus untraced wall time) and parse time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it records the
machine and the workload input.
"""

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, "_work")

MIN_INSTANCES = 3
MIN_ROUNDS_TRACED = 2
SETUP_PROBES = 2          # setup-only children per untraced round
CHILD_TIMEOUT_S = 60
LAUNCH_DEADLINE_S = 100   # start nothing after this, so a run ends within 180 s


def machine_facts():
    libc = ctypes.CDLL(None)
    libc.sysconf.argtypes = [ctypes.c_int]
    libc.sysconf.restype = ctypes.c_long
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "l2_bytes_per_core": libc.sysconf(191),   # _SC_LEVEL2_CACHE_SIZE
        "l3_bytes": libc.sysconf(194),            # _SC_LEVEL3_CACHE_SIZE
        "machine": platform.machine(),
        "python": platform.python_version(),
        **versions,
    }


def spawn(config_path, mode, out_dir, *flags):
    """Run one child; returns (report dict or None, exit code, setup seconds)."""
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, CHILD, config_path, mode, out_dir, *flags],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, None, None
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr[-2000:])
        return None, proc.returncode, None
    return report, proc.returncode, report["ready"] - start


def run(workload, seed, seconds, trace):
    mode = workloads.WORKLOADS[workload][0]
    variant = workloads.variant_of(seed)
    text = workloads.config_text(workload, variant)
    reference = workloads.load_reference()

    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config_path = os.path.join(work, "config.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(text)

    attempted = failed = 0
    setups, walls, rss, parses = [], [], [], []
    traces = []
    begin = time.monotonic()

    def instance(traced):
        nonlocal attempted, failed
        out_dir = os.path.join(work, f"i{attempted}")
        flags = ["--spans", os.path.join(work, "spans.json")] if traced else []
        report, code, setup = spawn(config_path, mode, out_dir, *flags)
        attempted += 1
        problems = (["no result from the child"] if report is None else
                    workloads.check(workload, variant, code, out_dir, reference))
        if problems:
            failed += 1
            print(f"instance {attempted}: FAIL: " + "; ".join(problems[:5]), file=sys.stderr)
        if report is None:
            return
        setups.append(setup)
        parses.append(report["parse_s"])
        rss.append(report["peak_rss_mb"])
        if traced:
            traces.append(report["trace"])
        else:
            walls.append(report["wall_s"])

    def probe():
        nonlocal attempted, failed
        report, code, setup = spawn(config_path, mode, work, "--setup-only")
        attempted += 1
        if report is None or code != 0:
            failed += 1
            print(f"setup probe {attempted}: FAIL: exit code {code}", file=sys.stderr)
        else:
            setups.append(setup)

    if not trace:
        spawn(config_path, mode, work, "--setup-only")   # warm-up: bytecode caches
    # Start another round only while it is expected to end within the
    # measured seconds.  A traced round is one untraced and one traced
    # instance; an untraced round is one instance and SETUP_PROBES
    # setup-only children, so set-up is sampled across the whole run.
    min_rounds = MIN_ROUNDS_TRACED if trace else MIN_INSTANCES
    rounds = []
    while True:
        elapsed = time.monotonic() - begin
        if elapsed > LAUNCH_DEADLINE_S:
            break
        if len(rounds) >= min_rounds and elapsed + statistics.mean(rounds) > seconds:
            break
        start = time.monotonic()
        if trace:
            instance(traced=False)
            instance(traced=True)
        else:
            for _ in range(SETUP_PROBES):
                probe()
            instance(traced=False)
        rounds.append(time.monotonic() - start)

    facts = machine_facts()
    print(json.dumps({"machine": facts, "workload": workload, "seed": seed,
                      "variant": variant, "config": text,
                      "instances": attempted, "measured_s": time.monotonic() - begin}))
    metrics = {}
    if trace and traces and walls:
        for name in traces[0]:
            metrics[name] = statistics.median(t[name] for t in traces)
        metrics["trace.untraced_wall_s"] = statistics.median(walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        l2 = facts["l2_bytes_per_core"]   # 0 or -1 where the C library cannot tell
        metrics["linalg.system_l2_share"] = metrics["linalg.system_bytes"] / l2 if l2 > 0 else 0.0
        metrics["config.parse_s"] = statistics.median(parses)
    elif not trace and walls:
        wall = statistics.median(walls)
        metrics = {"wall_s": wall,
                   "node_steps_per_s": workloads.node_steps(text) / wall,
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": statistics.median(rss),
                   "pass_frac": (attempted - failed) / attempted}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {"correct": failed == 0 and all(m["name"] in metrics for m in declared),
            "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in declared if m["name"] in metrics}}


def record_reference(names):
    """Run every variant of the named workloads once and store their checked
    outputs, keeping the recorded outputs of the other workloads."""
    reference = workloads.load_reference() if os.path.exists(workloads.REFERENCE) else {}
    for workload in names:
        mode = workloads.WORKLOADS[workload][0]
        reference[workload] = {}
        for variant in range(workloads.VARIANTS):
            work = os.path.join(WORK, "reference", workload, str(variant))
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            config_path = os.path.join(work, "config.cfg")
            with open(config_path, "w", encoding="utf-8") as fh:
                fh.write(workloads.config_text(workload, variant))
            report, code, _ = spawn(config_path, mode, work)
            if report is None or code != 0:
                raise SystemExit(f"{workload} variant {variant} failed "
                                 f"(exit code {code}); refusing to record it")
            reference[workload][str(variant)] = workloads.collect(workload, work)
            print(workload, variant, "recorded", flush=True)
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "bbmb", "__init__.py")):
        print(f"no bbmb sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference([args.workload] if args.workload else list(workloads.WORKLOADS))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
