"""Generate the reference vorticity fields behind the max_err metric.

    python3 perfbench/make_reference.py

For each reference time it runs the four-mode flow at N=256 with the
Eulerian Taylor method of order 12 at dt=0.005, a run more accurate than any
workload, and stores the grid vorticity as perfbench/reference/omega_t<t>.npy.
As a check of the reference's own error it also runs RK4 at dt=0.005 and
dt=0.0025 and records the distance to their Richardson extrapolation.
The parameters and that distance go to perfbench/reference/params.json.
"""

import json

import env

TIMES = (0.5, 1.0)
REFERENCE = {"method": "ET", "order": 12, "dt": 0.005}
COMMON = {"n": 256, "initial": "four_mode", "output_cadence": 0, "radius_cadence": 0}
RICHARDSON = ({"method": "RK4", "dt": 0.005}, {"method": "RK4", "dt": 0.0025})


def final_grid(t_end, **config):
    from euler2d import runner, spectral

    artifacts = runner.run(runner.RunConfig(t_end=t_end, **COMMON, **config))
    return spectral.inverse(artifacts.omega, check=False)


def main():
    env.prepare()
    import numpy as np

    out = env.HERE / "reference"
    out.mkdir(exist_ok=True)
    params = {"common": COMMON, "reference": REFERENCE, "fields": {}}
    for t_end in TIMES:
        grid = final_grid(t_end, **REFERENCE)
        coarse, fine = (final_grid(t_end, **c) for c in RICHARDSON)
        extrapolated = (16.0 * fine - coarse) / 15.0
        name = f"omega_t{t_end}.npy"
        np.save(out / name, grid)
        params["fields"][name] = {
            "t_end": t_end,
            "max_abs_vs_rk4_richardson": float(np.max(np.abs(grid - extrapolated))),
            "richardson_runs": RICHARDSON,
        }
        print(name, params["fields"][name]["max_abs_vs_rk4_richardson"])
    params["machine"] = env.machine_facts()
    (out / "params.json").write_text(json.dumps(params, indent=1) + "\n")


if __name__ == "__main__":
    main()
