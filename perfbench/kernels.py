"""The two cascade-interpolation kernels on one synthetic case.

The case is a smooth distortion of the uniform grid carrying a random
vorticity drawn from a seed.  ``kernel_report`` checks that the pure-numpy
and the compiled kernel agree where both import, and optionally times them.
Run as a script it prints the kernels side by side for several sizes:

    python3 perfbench/kernels.py --sizes 128,256,512 --repeat 5
"""

import argparse
import statistics
import time

import numpy as np

import env

AGREEMENT_TOL = 1e-12


def make_case(n, seed, amp=0.05):
    from euler2d import spectral

    a, b = spectral.grid_coordinates(n)
    w = np.random.default_rng(seed).normal(size=(n, n))
    x = np.ascontiguousarray(a + amp * np.sin(b + 1.0))
    y = np.ascontiguousarray(b + amp * np.sin(a))
    return x, y, np.ascontiguousarray(w)


def time_kernel(kernel, case, repeat):
    """Median wall time of kernel.cascade on case (ms) and its last output."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = kernel.cascade(*case)
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times), out


def kernel_report(seed, n=256, repeat=0):
    """Active kernel, agreement of both kernels, and timings when repeat > 0."""
    from euler2d import _cascade_py, interpolation

    try:
        from euler2d import _cascade_cy
    except ImportError:
        _cascade_cy = None
    report = {"active": interpolation.KERNEL, "compiled_importable": _cascade_cy is not None,
              "n": n, "seed": seed, "max_diff": None, "agree": None}
    if _cascade_cy is None and repeat == 0:
        return report
    case = make_case(n, seed)
    kernels = {"python": _cascade_py}
    if _cascade_cy is not None:
        kernels["compiled"] = _cascade_cy
    outputs = {}
    for name, kernel in kernels.items():
        ms, outputs[name] = time_kernel(kernel, case, max(repeat, 1))
        if repeat:
            report[f"{name}_ms"] = ms
    if "compiled" in outputs:
        diff = float(np.max(np.abs(outputs["python"] - outputs["compiled"])))
        report["max_diff"] = diff
        report["agree"] = diff <= AGREEMENT_TOL
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default="128,256,512")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    from euler2d import interpolation

    print(f"active kernel: {interpolation.KERNEL}")
    print(f"{'n':>6} {'python [ms]':>12} {'compiled [ms]':>14} {'speedup':>8} {'max diff':>10}")
    for n in (int(s) for s in args.sizes.split(",")):
        r = kernel_report(args.seed, n, max(args.repeat, 1))
        if "compiled_ms" not in r:
            print(f"{n:>6} {r['python_ms']:>12.2f} {'n/a':>14} {'n/a':>8} {'n/a':>10}")
            continue
        print(
            f"{n:>6} {r['python_ms']:>12.2f} {r['compiled_ms']:>14.2f} "
            f"{r['python_ms'] / r['compiled_ms']:>8.1f} {r['max_diff']:>10.1e}"
        )


if __name__ == "__main__":
    env.prepare()
    main()
