"""Command-line entry point.

Subcommands: run (one flag per RunConfig field, plus --output-dir),
compare, radius (offline fit on a norms CSV), spectrum.
Exit codes: 0 success, 2 configuration or input error (including a path
that is missing, taken, of the wrong kind or not permitted, and a fixed dt
that needs more than runner.MAX_STEPS steps), 3 numerical failure (including a
step that stays too large after the allowed halvings, an Eulerian blow-up and a
step too small to reach t_end within MAX_STEPS steps), 4
reversion failure, 5 any other Euler2DError (a safety net: every class in
errors.py maps to 2, 3 or 4), 6 out of memory (a run's message names n, the
order and the radius depth).
"""

import argparse
import os
import sys

import numpy as np

from . import diagnostics, io, runner, spectral
from .errors import (
    ConfigError,
    Euler2DError,
    InsufficientDataError,
    NumericalError,
    ReversionError,
    StepTooLargeError,
)


def order(text):
    """The --order value: "auto" or an integer (RunConfig checks its range)."""
    return text if text == "auto" else int(text)


def _add_run_parser(sub):
    # a setting left out is absent from the namespace: RunConfig's default holds
    p = sub.add_parser("run", help="integrate the 2D Euler equation",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--method", choices=runner.METHODS)
    p.add_argument("--order", type=order, help='Taylor order for CL/ET, or "auto" for CL')
    p.add_argument("--n", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--dt", type=float, help="fixed step of RK2, RK4 and ET (CL chooses its own)")
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--initial", help=f"a flow {runner.INITIALS}, random:<seed> or a field file")
    p.add_argument("--output-cadence", type=int)
    p.add_argument("--radius-cadence", type=int)
    p.add_argument("--radius-depth", type=int)
    p.add_argument("--output-dir", required=True)


def _add_compare_parser(sub):
    p = sub.add_parser("compare", help="discrepancy table between two runs")
    p.add_argument("dir_a")
    p.add_argument("dir_b")
    p.add_argument("--output-dir", required=True)


def _add_radius_parser(sub):
    p = sub.add_parser("radius", help="fit a norms CSV for the convergence radius")
    p.add_argument("norms_csv")
    p.add_argument("--s-min", type=int, default=diagnostics.RADIUS_S_MIN)
    p.add_argument("--s-max", type=int)


def _add_spectrum_parser(sub):
    p = sub.add_parser("spectrum", help="enstrophy shells of a field file")
    p.add_argument("field_file")
    p.add_argument("--output-dir", required=True)


def _cmd_run(args):
    settings = {k: v for k, v in vars(args).items() if k not in ("command", "output_dir")}
    config = runner.RunConfig(**settings)
    try:
        artifacts = runner.run(config, output_dir=args.output_dir)
    except MemoryError:
        probes = config.method == "CL" and config.radius_cadence
        depth = f", radius depth {config.radius_depth}" if probes else ""
        raise MemoryError(f"n={config.n}, order {config.order}{depth}") from None
    print(
        f"{config.method} finished at t={artifacts.t:.6f} "
        f"after {len(artifacts.steps)} steps -> {args.output_dir}"
    )


def _cmd_compare(args):
    # read both runs before the output directory exists, so bad input leaves none
    header, rows = runner.compare_dirs(args.dir_a, args.dir_b)
    os.makedirs(args.output_dir, exist_ok=True)
    io.write_csv(os.path.join(args.output_dir, "discrepancy.csv"), header, rows)
    print(",".join(header))
    for row in rows:
        print(",".join(f"{v:.6e}" if isinstance(v, float) else str(v) for v in row))


def _cmd_radius(args):
    _, rows = io.read_csv(args.norms_csv)
    try:
        norms = np.array([row[1] for row in rows], dtype=float)
    except (IndexError, ValueError) as exc:
        raise ConfigError(
            f"{args.norms_csv}: norm column missing or not numeric"
        ) from exc
    report = diagnostics.fit_radius(norms, args.s_min, args.s_max)
    estimators = diagnostics.radius_estimators(norms[: report.fit_window[1]])
    print(f"radius={report.radius:.6f} alpha={report.alpha:.4f} "
          f"beta={report.beta:.4f} gamma={report.gamma:.4f}")
    print(f"hadamard={estimators['hadamard']:.6f} ratio={estimators['ratio']:.6f}")


def _cmd_spectrum(args):
    values, t = io.read_field(args.field_file)
    os.makedirs(args.output_dir, exist_ok=True)
    out = os.path.join(args.output_dir, "spectrum.csv")
    # the writer of the run's spectrum_*.csv, so that the two formats agree
    shells = runner._write_spectrum(out, spectral.forward(values))
    print(f"wrote {out} (t={t:g}, {len(shells)} shells)")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="euler2d")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(sub)
    _add_compare_parser(sub)
    _add_radius_parser(sub)
    _add_spectrum_parser(sub)
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "radius": _cmd_radius,
        "spectrum": _cmd_spectrum,
    }
    try:
        handlers[args.command](args)
    except (
        ConfigError, InsufficientDataError, FileNotFoundError, FileExistsError,
        NotADirectoryError, IsADirectoryError, PermissionError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, StepTooLargeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ReversionError as exc:
        print(f"reversion failure: {exc}", file=sys.stderr)
        return 4
    except Euler2DError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 6
    return 0


if __name__ == "__main__":
    sys.exit(main())
