"""The benchmark's workloads and the output checks' budgets.

Every workload is one pinned acceptance scenario of the four-mode flow at
N=256, driven through ``runner.run(RunConfig(...), output_dir=...)`` with a
run directory written at ``output_cadence=10``.  The flow is deterministic,
so the workloads take no seed.
"""

from dataclasses import dataclass

COMMON = {"n": 256, "initial": "four_mode", "epsilon": 1e-12, "output_cadence": 10}

# Relative energy and enstrophy change allowed at t_end (acceptance c03, t=1).
CONSERVATION_BUDGET = 1e-10
# Interval holding the t=0 radius of convergence of the four-mode flow (c04).
RADIUS_RANGE = (1.0, 1.4)


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    # stored reference field (perfbench/reference/omega_t<reference>.npy)
    reference: str
    # absolute budget on max |omega - omega_ref| over the grid at t_end
    max_err_budget: float
    why: str

    def run_config(self):
        return {**COMMON, **self.config}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cl8",
            {"method": "CL", "order": 8, "t_end": 1.0, "radius_cadence": 0},
            "1.0",
            1e-9,
            "CL order 8 to t=1, no probes: cascade reversion and the order-8 "
            "Taylor stack dominate",
        ),
        Workload(
            "cl16-probe",
            {"method": "CL", "order": 16, "t_end": 1.0, "radius_cadence": 10,
             "radius_depth": 40},
            "1.0",
            1e-9,
            "CL order 16 to t=1 with one depth-40 radius probe: the Taylor "
            "recurrence dominates; largest memory footprint",
        ),
        Workload(
            "rk4",
            {"method": "RK4", "dt": 0.01, "t_end": 1.0},
            "1.0",
            1e-8,
            "RK4 at dt=0.01 to t=1: FFTs and spectral operators only, no "
            "Lagrangian stack or cascade",
        ),
        Workload(
            "et8",
            {"method": "ET", "order": 8, "dt": 0.01, "t_end": 0.5},
            "0.5",
            1e-9,
            "ET order 8 at dt=0.01 to t=0.5: the only workload that reaches "
            "eulerian.et_coefficients",
        ),
    )
}
