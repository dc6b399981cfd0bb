"""One run of one workload in a fresh interpreter.

run.py starts this script once per sample, so that the peak resident memory
belongs to that run alone and set-up time includes interpreter start:

    python3 perfbench/worker.py --workload cl8 --run-dir <dir> [--trace | --setup-only]

It prints one JSON line: monotonic-clock marks of the first step and of the
end of the run, the outputs the checks need, and, when traced, the per-layer
values of the run.  With --setup-only it stops at the first step and prints
only that mark.
"""

import argparse
import json
import resource
import time

import env


def clock():
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SetupDone(Exception):
    """Raised at the first step of a --setup-only run."""


def mark_first_step(runner, marks, stop=False):
    """Wrap the method loops of runner.run to stamp the first step's start.

    With stop, raise SetupDone there instead of stepping.  Returns the
    (attribute, original) pairs to restore.
    """
    patched = []
    for attr in ("_run_cl", "_run_eulerian"):
        original = getattr(runner, attr)

        def marked(*args, _original=original, **kwargs):
            marks.setdefault("first_step", clock())
            if stop:
                raise SetupDone
            return _original(*args, **kwargs)

        setattr(runner, attr, marked)
        patched.append((attr, original))
    return patched


def setup_only(workload, run_dir):
    from euler2d import runner

    marks = {}
    patched = mark_first_step(runner, marks, stop=True)
    try:
        runner.run(runner.RunConfig(**workload.run_config()), output_dir=run_dir)
    except SetupDone:
        pass
    finally:
        for attr, original in patched:
            setattr(runner, attr, original)
    return marks


def reference_accuracy(workload):
    """Distance of the stored reference to an independent extrapolation."""
    params = json.loads((env.HERE / "reference" / "params.json").read_text())
    field = params["fields"][f"omega_t{workload.reference}.npy"]
    return field["max_abs_vs_rk4_richardson"]


def run_workload(workload, run_dir, trace):
    import numpy as np

    import euler2d
    import metrics
    from euler2d import diagnostics, runner, spectral
    from tracer import Tracer, function_stats

    marks = {}
    tracer = Tracer()
    patched = mark_first_step(runner, marks)
    if trace:
        tracer.install(euler2d)
    try:
        config = runner.RunConfig(**workload.run_config())
        artifacts = runner.run(config, output_dir=run_dir)
        marks["end"] = clock()
    finally:
        tracer.uninstall()
        for attr, original in patched:
            setattr(runner, attr, original)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    omega = artifacts.omega
    grid = spectral.inverse(omega, check=False)
    _, _, e0, z0 = artifacts.conservation[0]
    reference = np.load(env.HERE / "reference" / f"omega_t{workload.reference}.npy")
    max_err = float(np.max(np.abs(grid - reference)))
    radius0 = [r for step, _, r in artifacts.radius_series if step == 0]
    out = {
        "first_step": marks["first_step"],
        "end": marks["end"],
        "t": artifacts.t,
        "steps": len(artifacts.steps),
        "peak_rss_mb": peak_rss_mb,
        "finite": bool(np.all(np.isfinite(grid))),
        "rel_dE": abs(diagnostics.energy(omega) - e0) / e0,
        "rel_dZ": abs(diagnostics.enstrophy(omega) - z0) / z0,
        "max_truncation_term": max(rec["truncation_term"] for rec in artifacts.steps),
        "radius0": radius0[0] if radius0 else None,
        "max_err_raw": max_err,
        # the reference resolves errors down to its own verified accuracy
        "max_err": max(max_err, reference_accuracy(workload)),
    }
    if trace:
        out["layers"] = metrics.layer_values(function_stats(tracer.spans), tracer.counters)
        out["spans"] = len(tracer.spans)
    return out


def main():
    parser = argparse.ArgumentParser(description="one benchmark run in a fresh process")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--run-dir", required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    env.prepare()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.setup_only:
        result = setup_only(workload, args.run_dir)
    else:
        result = run_workload(workload, args.run_dir, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
