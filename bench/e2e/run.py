#!/usr/bin/env python3
"""End-to-end benchmark runner.

Builds the `jvmbench` program from source (bench/e2e is a CMake package of
its own), runs each workload in fresh processes, checks that no op failed,
merges the processes and prints every metric as
`workload metric value unit`. The last line of standard output is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json, or with `--trace 1` its
per-layer metrics. A JSON result file with everything goes to --out.

    python3 bench/e2e/run.py                        # all workloads, seed 1
    python3 bench/e2e/run.py --workload compile --seed 7 --seconds 15
    python3 bench/e2e/run.py --workload tenants --trace 1
    python3 bench/e2e/run.py --smoke                # quick self-check

Exit status: 0 when every op matched its reference, 1 when an op failed
or a metric is missing, 2 when `jvmbench` could not be built or run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ["table1_pea", "table1_flat", "compile", "tenants"]
# Each run is split over this many processes, so one run samples several
# address-space layouts; each process times this many set-ups.
PROCESSES = 3
SETUPS_PER_PROCESS = 3
RUN_DEADLINE_S = 170  # a whole run, build excluded


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def default_build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return Path(base) / "e2e"


def build(build_dir):
    """Configures (first time) and builds jvmbench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no VM sources under {ROOT / 'src'}; run from a full checkout")
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir)] + gen)
    steps.append(["cmake", "--build", str(build_dir), "--target", "jvmbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=840).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                die(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-25:]
                print("\n".join(tail), file=sys.stderr)
                die(f"build failed (exit {rc}); full log in {log_path}")
    exe = build_dir / "jvmbench"
    if not exe.is_file():
        die(f"build produced no {exe}")
    return exe


def vm_environment():
    """The caller's environment without JVM_* knobs, so a stray setting
    cannot change the tier, the broker or the heap being measured."""
    return {k: v for k, v in os.environ.items() if not k.startswith("JVM_")}


def run_process(exe, args, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        die("run deadline passed before all processes ran")
    try:
        p = subprocess.run([str(exe)] + args, capture_output=True, text=True,
                           timeout=timeout, env=vm_environment())
    except subprocess.TimeoutExpired:
        die(f"jvmbench {' '.join(args)} did not finish in time")
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(p.stderr[-4000:])
        die(f"jvmbench {' '.join(args)} exited {p.returncode} without a result")
    if p.returncode not in (0, 1):
        die(f"jvmbench {' '.join(args)} exited {p.returncode}")
    return result


def median(values):
    return statistics.median(values) if values else 0.0


def git_rev():
    # Only inside a git work tree of its own: never search parent
    # directories of the checkout.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_workload(exe, workload, seed, seconds, trace, opts, deadline):
    """Runs one workload and merges its processes into one record. A smoke
    run is one process with one set-up and a single round."""
    procs = 1 if trace or opts.smoke else PROCESSES
    raw = []
    for k in range(procs):
        args = ["--workload", workload,
                "--seed", str(seed * 1000 + k),
                "--seconds", repr(seconds / procs),
                "--setups", "1" if opts.smoke else str(SETUPS_PER_PROCESS)]
        if opts.smoke:
            args += ["--min-ops", "0"]
        if trace:
            opts.trace_dir.mkdir(parents=True, exist_ok=True)
            args += ["--trace", str(opts.trace_dir /
                                    f"{workload}-seed{seed}.json")]
        raw.append(run_process(exe, args, deadline))

    first = raw[0]
    blocks = [b for r in raw for b in r["blocks"]]
    setups = [s for r in raw for s in r["setup_s"]]
    attempted = sum(r["attempted"] for r in raw)
    failed = sum(r["failed"] for r in raw)
    # Interference from outside the process only ever slows a block down,
    # so the fastest block is the steadiest estimate of what the program
    # itself does.
    p50 = min(blocks, key=lambda b: b["op_ms_p50"])
    p99 = min(blocks, key=lambda b: b["op_ms_p99"])
    e2e = {
        "ops_per_s": (max(b["ops_per_s"] for b in blocks), "1/s"),
        "op_ms_p50": (p50["op_ms_p50"], "ms"),
        "op_ms_p99": (p99["op_ms_p99"], "ms"),
        "setup_s": (median(setups), "s"),
    }
    for name, m in first["e2e"].items():
        e2e[name] = (median([r["e2e"][name]["value"] for r in raw]), m["unit"])
    e2e["fail_ratio"] = (failed / attempted if attempted else 1.0, "ratio")
    layer = {n: (m["value"], m["unit"]) for n, m in first["layer"].items()}
    samples = {"op_ms": sum(b["ops"] for b in blocks),
               "op_ms_blocks": len(blocks), "setup_s": len(setups),
               "op_ms_p50": p50["ops"], "op_ms_p99": p99["ops"]}
    for name, n in first["samples"].items():
        samples[name] = n
    return {
        "workload": workload,
        "header": dict(first["header"], processes=procs),
        "e2e": {n: {"value": v, "unit": u} for n, (v, u) in e2e.items()},
        "layer": {n: {"value": v, "unit": u} for n, (v, u) in layer.items()},
        "attempted": attempted,
        "failed": failed,
        "failures": [f for r in raw for f in r["failures"]][:5],
        "trace_errors": [r["trace_error"] for r in raw if r["trace_error"]],
        "samples": samples,
        "processes": raw,
    }


# Which sample count a percentile line reports.
SAMPLE_OF = {"op_ms_p50": "op_ms_p50", "op_ms_p99": "op_ms_p99",
             "setup_s": "setup_s",
             "vm.install_ms_p50": "vm.install_ms",
             "vm.install_ms_max": "vm.install_ms",
             "jit.emit_us_p50": "jit.emit_us",
             "memory.gc_pause_ms_p50": "memory.gc_pause_ms",
             "memory.gc_pause_ms_max": "memory.gc_pause_ms"}


def print_record(rec, trace):
    w = rec["workload"]
    h = rec["header"]
    print(f"# {w}: build={h.get('build_type')} "
          f"native_backend={h.get('native_backend')} "
          f"tier={h.get('tier')} isolates={h.get('isolates')} "
          f"broker_threads={h.get('broker_threads')} "
          f"gc_workers={h.get('gc_workers_config', 'n/a')}"
          f"(max seen {h.get('gc_workers_max_seen', 'n/a')}) "
          f"processes={h['processes']} ops={rec['attempted']} "
          f"failed={rec['failed']}")
    groups = [rec["e2e"]] + ([rec["layer"]] if trace else [])
    for group in groups:
        for name, m in group.items():
            line = f"{w} {name} {m['value']:.6g} {m['unit']}"
            if name in SAMPLE_OF:
                line += f" samples={rec['samples'].get(SAMPLE_OF[name], 0)}"
                if name.startswith("op_ms"):
                    line += (f" (fastest of {rec['samples']['op_ms_blocks']}"
                             f" blocks, {rec['samples']['op_ms']} ops)")
            print(line)
    for f in rec["failures"]:
        print(f"# FAILED {w}: {f}")
    for e in rec["trace_errors"]:
        print(f"# TRACE ERROR {w}: {e}")


def missing_metrics(rec, spec, trace):
    key, group = ("per_layer", "layer") if trace else ("end_to_end", "e2e")
    return [m["name"] for m in spec[key]
            if m["name"] not in rec[group]
            or rec[group][m["name"]]["unit"] != m["unit"]]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload (default: all, one after another)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="measured seconds per workload "
                        "(default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: one traced process per workload, per-layer "
                        "metrics, Chrome trace JSON in --trace-dir")
    p.add_argument("--build", type=Path, default=None,
                   help="build directory (default: $CARGO_TARGET_DIR/e2e "
                        "or .bench_build/e2e)")
    p.add_argument("--out", type=Path, help="result JSON file")
    p.add_argument("--trace-dir", type=Path,
                   help="where traced runs write Chrome trace JSON "
                        "(default: <build>/traces)")
    p.add_argument("--smoke", action="store_true",
                   help="every workload at one round, one traced run and "
                        "the compare.py self-test; checks the output")
    opts = p.parse_args(argv)
    if opts.seed < 0 or (opts.seconds is not None and opts.seconds < 0):
        p.error("--seed and --seconds must not be negative")
    return opts


def run(opts, spec, exe, workloads, trace):
    deadline = time.monotonic() + RUN_DEADLINE_S * len(workloads)
    seconds = opts.seconds if opts.seconds is not None else spec["run_seconds"]
    records = []
    for w in workloads:
        rec = run_workload(exe, w, opts.seed, seconds, trace, opts, deadline)
        print_record(rec, trace)
        records.append(rec)
    return records, seconds


def main(argv):
    opts = parse_args(argv)
    spec = load_spec()
    build_dir = (opts.build or default_build_dir()).resolve()
    opts.trace_dir = (opts.trace_dir or build_dir / "traces").resolve()
    exe = build(build_dir)
    if opts.smoke:
        return smoke(opts, spec, exe)

    workloads = [opts.workload] if opts.workload else WORKLOADS
    trace = opts.trace == 1
    rev = git_rev()
    print(f"# nproc={os.cpu_count()} git={rev} seed={opts.seed}")
    records, seconds = run(opts, spec, exe, workloads, trace)

    out = opts.out or build_dir / "results" / (
        f"{opts.workload or 'all'}-seed{opts.seed}"
        f"{'-trace' if trace else ''}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "seed": opts.seed, "seconds": seconds, "trace": trace,
        "git": rev, "workloads": {r["workload"]: r for r in records},
    }, indent=1) + "\n")
    print(f"# result file: {out}")

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    missing = [f"{r['workload']}/{m}" for r in records
               for m in missing_metrics(r, spec, trace)]
    for m in missing:
        print(f"# MISSING metric {m}")
    trace_errors = any(r["trace_errors"] for r in records)
    correct = failed == 0 and not missing and not trace_errors
    key, group = ("per_layer", "layer") if trace else ("end_to_end", "e2e")
    metrics = {}
    if len(records) == 1:
        metrics = {m["name"]: records[0][group][m["name"]]
                   for m in spec[key] if m["name"] in records[0][group]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def smoke(opts, spec, exe):
    """Every workload at one round, one traced run, the compare.py
    self-test; every BENCHMARK.json metric must print with its unit."""
    opts.seconds = 0.0
    problems = []
    for trace, workloads in ((False, WORKLOADS), (True, ["compile"])):
        records, _ = run(opts, spec, exe, workloads, trace)
        for r in records:
            problems += [f"{r['workload']}: missing {m}"
                         for m in missing_metrics(r, spec, trace)]
            if r["e2e"]["fail_ratio"]["value"] != 0:
                problems.append(f"{r['workload']}: fail_ratio "
                                f"{r['e2e']['fail_ratio']['value']}")
            problems += [f"{r['workload']}: {e}" for e in r["trace_errors"]]
    rc = subprocess.run([sys.executable, str(HERE / "compare.py"),
                         "--self-test"]).returncode
    if rc != 0:
        problems.append("compare.py --self-test failed")
    for p in problems:
        print(f"# SMOKE PROBLEM {p}")
    print("# smoke " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
