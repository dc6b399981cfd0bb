"""Solver benchmark: pinned N=256 scenarios, end to end and layer by layer.

    python3 perfbench/run.py --workload cl8 --seed 0 --seconds 32 --trace 0

Each sample is one ``runner.run`` of the workload in a fresh process
(worker.py).  Samples run one after another until the next one would end
past ``--seconds``.  With ``--trace 0`` the end-to-end metrics are the
medians over the samples.  With ``--trace 1`` traced and untraced samples
alternate, traced first; the per-layer metrics are medians over the traced
ones, and ``trace.overhead_pct`` compares the two kinds.  Every sample's outputs are
checked; a sample that fails a check counts as failed.  The seed draws the
random vorticity of the cascade-kernel case; the solver workloads are
deterministic.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(machine facts, kernel report, every sample, every check) is written to
``perfbench/.out/``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import env
from workloads import CONSERVATION_BUDGET, RADIUS_RANGE, WORKLOADS

# A run ends within this many seconds of its start, whatever --seconds says.
DEADLINE_S = 170.0
# Set-up-only runs per untraced run, for a steadier setup_s median.
SETUP_PROBES = 4
# Counts that must repeat exactly between traced samples.
EXACT_SUFFIXES = (".calls", ".failed", "transform_elems", "recurrence_terms",
                  "bytes_written", "runner.steps", "trace.spans")


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_sample(name, mode, run_dir, timeout):
    """Start worker.py once; return its sample dict, or one with 'error'.

    mode is "run", "trace" or "setup" (stop at the first step).
    """
    flags = {"run": [], "trace": ["--trace"], "setup": ["--setup-only"]}[mode]
    cmd = [sys.executable, str(env.HERE / "worker.py"), "--workload", name,
           "--run-dir", str(run_dir)] + flags
    start = clock()
    try:
        proc = subprocess.run(cmd, cwd=env.ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        proc = None
    wall = clock() - start
    shutil.rmtree(run_dir, ignore_errors=True)
    sample = {"mode": mode, "wall_s": wall}
    if proc is None:
        return dict(sample, error=f"timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return dict(sample, error=f"exit {proc.returncode}: " + " | ".join(tail))
    sample.update(json.loads(proc.stdout.strip().splitlines()[-1]))
    sample["setup_s"] = sample["first_step"] - start
    if mode != "setup":
        sample["solve_s"] = sample["end"] - sample["first_step"]
    return sample


def check_sample(sample, workload):
    """Failed output checks of one sample, as messages."""
    if "error" in sample:
        return [sample["error"]]
    if sample["mode"] == "setup":
        return []
    config = workload.run_config()
    failures = []
    if not sample["finite"]:
        failures.append("final field is not finite")
    if abs(sample["t"] - config["t_end"]) > 1e-9:
        failures.append(f"stopped at t={sample['t']} before t_end")
    for key in ("rel_dE", "rel_dZ"):
        if not sample[key] <= CONSERVATION_BUDGET:
            failures.append(f"{key}={sample[key]:.3e} exceeds {CONSERVATION_BUDGET:.0e}")
    if config["method"] == "CL":
        if not sample["max_truncation_term"] < config["epsilon"]:
            failures.append(f"truncation term {sample['max_truncation_term']:.3e} "
                            f"not below epsilon")
        if config.get("radius_cadence"):
            r = sample["radius0"]
            if r is None or not RADIUS_RANGE[0] <= r <= RADIUS_RANGE[1]:
                failures.append(f"t=0 radius {r} outside {RADIUS_RANGE}")
    if not sample["max_err"] <= workload.max_err_budget:
        failures.append(f"max_err={sample['max_err']:.3e} exceeds "
                        f"{workload.max_err_budget:.0e}")
    return failures


def end_to_end_metrics(samples, setups):
    """Medians over the full samples; setup_s also over the set-up probes."""
    import metrics

    values = {name: statistics.median(s[name] for s in samples)
              for name in metrics.END_TO_END}
    values["setup_s"] = statistics.median(s["setup_s"] for s in samples + setups)
    return {name: (values[name], unit) for name, unit in metrics.END_TO_END.items()}


def per_layer_metrics(untraced, traced, kernel):
    """Medians over traced samples, plus the run-level trace metrics."""
    import metrics

    for s in traced:
        s["layers"]["trace.accounted_pct"] = metrics.accounted_pct(s["layers"])
    # median_low keeps every value one a sample measured, and counts integral
    values = {name: statistics.median_low(s["layers"][name] for s in traced)
              for name in traced[0]["layers"]}
    values["runner.steps"] = statistics.median_low(s["steps"] for s in traced)
    values["trace.spans"] = statistics.median_low(s["spans"] for s in traced)
    values["interpolation.kernel_ms"] = kernel[f"{kernel['active']}_ms"]
    traced_solve = statistics.median(s["solve_s"] for s in traced)
    untraced_solve = statistics.median(s["solve_s"] for s in untraced)
    values["trace.solve_s"] = traced_solve
    values["trace.overhead_pct"] = 100.0 * (traced_solve - untraced_solve) / untraced_solve
    return {name: (values[name], unit) for name, unit in metrics.per_layer_units().items()}


def count_mismatches(traced):
    """Names of exact counts that differ between traced samples."""

    def counts(sample):
        values = dict(sample["layers"], **{"runner.steps": sample["steps"],
                                           "trace.spans": sample["spans"]})
        return {k: v for k, v in values.items() if k.endswith(EXACT_SUFFIXES)}

    first = counts(traced[0])
    return sorted({k for s in traced[1:] for k, v in counts(s).items() if v != first[k]})


def _exit_on_sigterm(signum, frame):
    # SystemExit unwinds subprocess.run, which kills and waits for the sample
    sys.exit(128 + signum)


def main(argv=None):
    started = clock()
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description="euler2d solver benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    env.prepare()
    import kernels

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "config": workload.run_config(),
              "machine": env.machine_facts(), "loadavg_start": os.getloadavg()}
    record["kernel"] = kernels.kernel_report(args.seed, repeat=5 if trace else 0)

    runs_dir = env.OUT / f"runs-{os.getpid()}"
    runs_dir.mkdir(parents=True, exist_ok=True)
    samples = []
    measure_start = clock()

    def take(mode):
        sample = run_sample(workload.name, mode, runs_dir / str(len(samples)),
                            timeout=DEADLINE_S - (clock() - started))
        sample["failures"] = check_sample(sample, workload)
        samples.append(sample)
        return sample

    try:
        if not trace:
            for _ in range(SETUP_PROBES):
                take("setup")
        runs = 0
        while True:
            # traced first, so that three samples already hold two traced ones
            sample = take("trace" if trace and runs % 2 == 0 else "run")
            runs += 1
            next_end = clock() + sample["wall_s"]
            enough = runs >= (2 if trace else 1)
            if enough and next_end - measure_start > args.seconds:
                break
            if next_end - started > DEADLINE_S:
                break
    finally:
        shutil.rmtree(runs_dir, ignore_errors=True)
    record["loadavg_end"] = os.getloadavg()
    record["samples"] = samples

    ok = [s for s in samples if not s["failures"]]
    failed = len(samples) - len(ok)
    problems = []
    if record["kernel"]["agree"] is False:
        problems.append(f"cascade kernels differ by {record['kernel']['max_diff']:.3e}")
    metrics = {}
    untraced = [s for s in ok if s["mode"] == "run"]
    traced = [s for s in ok if s["mode"] == "trace"]
    if trace and untraced and traced:
        mismatched = count_mismatches(traced)
        if mismatched:
            problems.append("counts differ between traced samples: " + ", ".join(mismatched))
        metrics = per_layer_metrics(untraced, traced, record["kernel"])
    elif not trace and untraced:
        metrics = end_to_end_metrics(untraced, [s for s in ok if s["mode"] == "setup"])
    else:
        problems.append("no sample passed its checks")
    record["problems"] = problems
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    env.OUT.mkdir(parents=True, exist_ok=True)
    out_path = env.OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for sample in samples:
        for failure in sample["failures"]:
            print(f"FAILED sample: {failure}")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(f"workload {workload.name}: {len(samples)} samples, kernel "
          f"{record['kernel']['active']}, record {out_path.relative_to(env.ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    result = {"correct": failed == 0 and not problems, "attempted": len(samples),
              "failed": failed, "metrics": record["metrics"]}
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
