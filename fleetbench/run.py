"""The repository benchmark: one command per workload run.

    python3 fleetbench/run.py --workload serve_small_jobs --seed 1 \\
        --seconds 10 --trace 0

Run from the repository root. ``--trace 0`` prints every end-to-end
metric; ``--trace 1`` prints every per-layer metric from a traced run,
writes its Perfetto trace and prints the layer table (it also needs the
untraced run of the same code and inputs, and runs one unless this
checkout already has it). The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every output matched its reference.

Workloads run in child processes (``worker.py``) with ``TMPDIR``
pointed at ``.fleetbench/tmp`` in the checkout, so the native build
cache stays inside it. The first run of a workload in a checkout warms
that cache (untimed) before anything is measured. See README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

STATE = os.path.join(ROOT, ".fleetbench")
#: Fresh processes timed for ``setup_s`` besides the measuring process
#: itself (the median of all of them is reported).
SETUP_REPEATS = 2
#: Wall-clock limit of one command, in seconds; the first run of a
#: workload in a checkout may build the native kernels first.
RUN_LIMIT, FIRST_RUN_LIMIT = 175, 880


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(STATE, "tmp")
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(args, deadline):
    """Run ``worker.py args`` to completion before ``deadline``
    (``time.monotonic``); returns its last-line JSON."""
    command = [sys.executable, os.path.join(HERE, "worker.py")] + [
        str(a) for a in args
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for worker {args}")
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"worker {args} timed out after {timeout:.0f}s") \
            from error
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"worker {args} exited {proc.returncode}:\n"
            + proc.stderr[-4000:]
        )
    return json.loads(lines[-1])


def first_line(command):
    try:
        out = subprocess.run(command, capture_output=True, text=True,
                             timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    text = (out.stdout or out.stderr).strip()
    return text.splitlines()[0] if text else None


def module_version(name):
    try:
        module = __import__(name)
    except ImportError:
        return None
    return getattr(module, "__version__", "unknown")


def host_record(warm_at_start):
    return {
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": module_version("numpy"),
        "cffi": module_version("cffi"),
        "cc": first_line(["cc", "--version"]),
        "cc_cache_warm_at_start": warm_at_start,
        "fleet_env": {k: v for k, v in os.environ.items()
                      if k.startswith("FLEET_")},
    }


def source_fingerprint():
    """sha256 over the program (``src/``) and the benchmark's own files
    (paths and bytes)."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


class Ledger:
    """What earlier runs in this checkout saw, keyed by code fingerprint,
    workload, seed and length: each ``sim_makespan_vcycles`` (which must
    repeat exactly) and the latest untraced result (the baseline a
    traced run divides by)."""

    PATH = os.path.join(STATE, "ledger.json")

    def __init__(self, args):
        # The figures' inputs are fixed; only serve inputs follow --seed.
        seed = "-" if args.workload == "paper_figures" else args.seed
        self.key = (f"{source_fingerprint()}/{args.workload}/{seed}/"
                    f"{args.seconds}")
        self.data = {"makespan": {}, "untraced": {}}
        if os.path.exists(self.PATH):
            with open(self.PATH, encoding="utf-8") as handle:
                self.data = json.load(handle)

    def check_makespan(self, result):
        """An error string when the result's makespan differs from the
        first one recorded, else None."""
        makespan = result["record"].get("sim_makespan_vcycles")
        if makespan is None:
            return None
        seen = self.data["makespan"].setdefault(self.key, makespan)
        if seen != makespan:
            return f"sim_makespan_vcycles {makespan} != {seen} seen before"
        return None

    def untraced(self):
        return self.data["untraced"].get(self.key)

    def save(self, untraced):
        self.data["untraced"][self.key] = untraced
        partial = self.PATH + ".partial"
        with open(partial, "w", encoding="utf-8") as handle:
            json.dump(self.data, handle, indent=1, sort_keys=True)
        os.replace(partial, self.PATH)  # a killed run leaves no torn file


def warm(workload, deadline):
    """Warm the native build cache for ``workload`` once per checkout."""
    worker(["setup", workload], deadline)
    with open(warm_marker(workload), "w", encoding="utf-8") as handle:
        handle.write("warm\n")


def warm_marker(workload):
    return os.path.join(STATE, f"warm-{workload}")


def measure(args):
    """Run the requested measurement; returns (output, record)."""
    warm_at_start = os.path.exists(warm_marker(args.workload))
    deadline = time.monotonic() + (
        RUN_LIMIT if warm_at_start else FIRST_RUN_LIMIT
    )
    if not warm_at_start:
        warm(args.workload, deadline)
    record = {"host": host_record(warm_at_start)}
    ledger = Ledger(args)
    run_args = ["run", args.workload, args.seed, args.seconds]
    # A traced run divides by the untraced run of the same code and
    # inputs: reuse one from this checkout when there is one.
    base = ledger.untraced() if args.trace else None
    record["untraced_reused"] = base is not None
    if base is None:
        base = worker(run_args + [0], deadline)
    record["untraced"] = base["record"]
    results = [base]
    if args.trace:
        os.makedirs(os.path.join(STATE, "traces"), exist_ok=True)
        trace_file = os.path.join(
            STATE, "traces", f"{args.workload}-seed{args.seed}.json"
        )
        traced = worker(run_args + [1, trace_file], deadline)
        results.append(traced)
        values = dict(traced["layers"])
        lateness = base["record"].get("lateness_ms", {})
        values["loadgen.late_p99_ms"] = lateness.get("p99", 0.0)
        values["loadgen.late_max_ms"] = lateness.get("max", 0.0)
        values["trace.overhead_ratio"] = (
            traced["e2e"]["wall_s"] / base["e2e"]["wall_s"]
        )
        units = dict(PER_LAYER)
        record["table"] = traced["table"]
        record["trace_file"] = os.path.relpath(trace_file, ROOT)
    else:
        values = dict(base["e2e"])
        values["peak_rss_mb"] = base["peak_rss_mb"]
        setups = [base] + [worker(["setup", args.workload], deadline)
                           for _ in range(SETUP_REPEATS)]
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        record["setup_samples_s"] = [s["setup_s"] for s in setups]
        record["setup_raw_samples_s"] = [s["setup_raw_s"] for s in setups]
        units = {name: unit for name, unit, _, _ in END_TO_END}
    errors = []
    for result in results:
        errors.extend(result["record"].get("errors", []))
        error = ledger.check_makespan(result)
        if error:
            errors.append(error)
    ledger.save(base)
    failed = max(result["failed"] for result in results)
    output = {
        "correct": all(r["correct"] for r in results) and not errors,
        "attempted": base["attempted"],
        "failed": failed or (1 if errors else 0),
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
    }
    record["errors"] = errors[:20]
    return output, record


def main(argv=None):
    parser = argparse.ArgumentParser(prog="fleetbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=[name for name, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"fleetbench: no repro sources under {ROOT}/src; run from "
              "a repository checkout", file=sys.stderr)
        return 2
    fleet_env = sorted(k for k in os.environ if k.startswith("FLEET_"))
    if fleet_env:
        print("fleetbench: refusing to time with FLEET_* set (they "
              f"change engine tiers or add overhead): {fleet_env}",
              file=sys.stderr)
        return 3
    os.makedirs(os.path.join(STATE, "tmp"), exist_ok=True)

    start = time.perf_counter()
    try:
        output, record = measure(args)
    except BenchError as error:
        print(f"fleetbench: {error}", file=sys.stderr)
        return 1
    record["bench_wall_s"] = time.perf_counter() - start

    results = os.path.join(STATE, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as fh:
        json.dump({"result": output, "record": record}, fh, indent=1)

    if "table" in record:
        print(record.pop("table"))
    for metric, entry in output["metrics"].items():
        print(f"{metric:36} {entry['value']:>16.6g} {entry['unit']}")
    for error in record["errors"]:
        print(f"error: {error}")
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps(output))
    return 0 if output["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
