"""Command-line front end: `lab run <config.json>` and `lab presets`.

`run` also accepts a flag form that assembles the config in place, e.g.

    lab run --experiment decay --preset non_carleson_n2 --gamma 1 \\
        --p 1.5 --beta 0 --eps 1e-1:1e-6:x10 --grid 16384 --out results/

Only flags the user actually passes enter the parameter record, so the
strict unknown-field validation still applies.  Exit codes: 0 success,
2 config error, 3 numerical failure inside an operation.

The environment variable LAB_THREADS caps the numeric thread pools; it is
applied before the numeric stack loads, so it must be set in the
environment of the `lab` process itself.
"""

import argparse
import json
import math
import os
import sys


def _apply_thread_cap():
    cap = os.environ.get("LAB_THREADS")
    if not cap:
        return
    try:
        n = max(1, int(cap))
    except ValueError:
        print("warning: ignoring non-integer LAB_THREADS=%r" % cap, file=sys.stderr)
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, str(n))


def parse_eps_spec(text):
    """Epsilon schedule from `A:B:xR` (geometric) or a comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3 or not parts[2].lower().startswith("x"):
            raise ValueError("schedule syntax is START:STOP:xRATIO")
        start = float(parts[0])
        stop = float(parts[1])
        ratio = float(parts[2][1:])
        if not (start > stop > 0.0) or ratio <= 1.0:
            raise ValueError("need START > STOP > 0 and RATIO > 1")
        count = round(math.log(start / stop) / math.log(ratio))
        if count < 1 or abs(start * ratio**-count / stop - 1.0) > 1e-9:
            raise ValueError("STOP is not reached from START by RATIO steps")
        return [start * ratio**-j for j in range(count + 1)]
    return [float(x) for x in text.split(",") if x.strip()]


# parameter -> type; each is set by the flag --<parameter>, with - for _
_FLAG_PARAMS = [
    ("gamma", float),
    ("p", float),
    ("beta", float),
    ("grid", int),
    ("depth", int),
    ("k", int),
    ("truncate", int),
    ("degree_budget", int),
    ("epsilon_target", float),
    ("delta_prime", float),
    ("dim", float),
]


def _config_from_flags(args):
    from .experiments import EXPERIMENTS

    params = {}
    if args.preset is not None:
        # --preset names the set where the experiment takes a set but no function
        known = args.experiment in EXPERIMENTS
        fields = EXPERIMENTS[args.experiment].fields if known else {}
        key = "set" if "set" in fields and "preset" not in fields else "preset"
        params[key] = args.preset
    for name, _ in _FLAG_PARAMS:
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    if args.eps is not None:
        params["eps"] = parse_eps_spec(args.eps)
    if args.degrees is not None:
        params["degrees"] = [int(x) for x in args.degrees.split(",") if x.strip()]
    if args.alpha is not None:
        params["alpha"] = [float(x) for x in args.alpha.split(",") if x.strip()]
    return {
        "experiment": args.experiment,
        "parameters": params,
        "output_dir": args.out if args.out is not None else ".",
    }


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lab",
        description="Batch experiments for cyclicity in weighted coefficient spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a config or flags")
    run_p.add_argument("config", nargs="?", help="path to a JSON config file")
    run_p.add_argument("--experiment", help="experiment name (flag form)")
    run_p.add_argument("--preset", help="set or function preset name")
    for name, conv in _FLAG_PARAMS:
        run_p.add_argument("--" + name.replace("_", "-"), dest=name, type=conv)
    run_p.add_argument("--eps", help="schedule: START:STOP:xRATIO or comma list")
    run_p.add_argument("--degrees", help="comma list of degrees")
    run_p.add_argument("--alpha", help="comma list of alpha values")
    run_p.add_argument("--out", help="output directory (default: current)")

    sub.add_parser("presets", help="list the named sets, functions and schedules")
    return parser


def main(argv=None):
    _apply_thread_cap()
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "presets":
        from .presets import catalogue_text

        print(catalogue_text())
        return 0

    # late import so the thread cap lands before the numeric stack loads
    from .experiments import ConfigError, ExperimentConfig, NumericalFailure, run

    if args.config is not None and args.experiment is not None:
        print("error: give either a config file or --experiment, not both",
              file=sys.stderr)
        return 2
    if args.config is not None:
        try:
            with open(args.config) as fh:
                obj = json.load(fh)
        except OSError as exc:
            print("error: cannot read config: %s" % exc, file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print("error: config is not valid JSON: %s" % exc, file=sys.stderr)
            return 2
        if args.out is not None:
            obj["output_dir"] = args.out
    elif args.experiment is not None:
        try:
            obj = _config_from_flags(args)
        except ValueError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
    else:
        print("error: give a config file or --experiment", file=sys.stderr)
        return 2

    try:
        config = ExperimentConfig.from_json_obj(obj)
        manifest = run(config)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    print(
        "wrote %s in %s (%.2fs)"
        % (", ".join(manifest.outputs), config.output_dir, manifest.wall_clock_s)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
