"""Command-line front end.

    pulsebandit simulate --config cfg.json [--set key=value ...] [--out DIR] [--profile PATH]
    pulsebandit pretrain --config cfg.json --out DIR
    pulsebandit replay   --config cfg.json --out DIR [--profile PATH]
    pulsebandit calibrate --config cfg.json --out DIR
    pulsebandit sweep    --config cfg.json --param key=[v1,v2] --out DIR
    pulsebandit validate-config --config cfg.json

Exit status: 0 on success, 1 on a config problem (the message names the
offending field), 2 on any other failure.  A run's metadata.json is
accepted anywhere a config is, which reruns the experiment it describes.
"""

import argparse
import json
import sys

import numpy as np

from .calibration import linear_quantile
from .environments import generate_history
from .errors import ConfigError, PulseBanditError
from .harness import (
    _dt_band,
    _require_band_pairs,
    _save_imputer,
    _write_json,
    load_config,
    pretrain,
    run_experiment,
    run_replay,
    run_sweep,
)

__all__ = ["main", "build_parser"]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pulsebandit",
        description="Linear contextual bandits with partially observed contexts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=False):
        p.add_argument("--config", required=True, help="JSON config (or run metadata)")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a dotted config key; VALUE parses as JSON",
        )
        p.add_argument("--out", required=needs_out, default=None, help="output directory")
        p.add_argument("--trials", type=int, default=None, help="override trial count")
        p.add_argument("--seed", type=int, default=None, help="override base seed")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    for name, text in (
        ("simulate", "run the configured experiment"),
        ("replay", "replay a logged dataset"),
    ):
        p = sub.add_parser(name, help=text)
        common(p)
        p.add_argument(
            "--profile",
            default=None,
            metavar="PATH",
            help="write a cProfile dump of the run to PATH (read it with pstats)",
        )
    common(sub.add_parser("pretrain", help="fit and save the imputer"), needs_out=True)
    common(sub.add_parser("calibrate", help="estimate the divergence band"), needs_out=True)
    sweep = sub.add_parser("sweep", help="run one experiment per parameter value")
    common(sweep, needs_out=True)
    sweep.add_argument(
        "--param",
        required=True,
        metavar="KEY=[V1,V2,...]",
        help="dotted config key and a JSON list of values",
    )
    common(sub.add_parser("validate-config", help="check a config and exit"))
    return parser


def _load(args):
    overrides = list(args.overrides)
    if args.trials is not None:
        overrides.append(f"trials={args.trials}")
    if args.seed is not None:
        overrides.append(f"base_seed={args.seed}")
    if args.out is not None:
        overrides.append(f"output.dir={json.dumps(args.out)}")
    return load_config(args.config, overrides), overrides


def _say(args, message):
    if not args.quiet:
        print(message)


def _cmd_validate(args):
    config, _ = _load(args)
    _say(args, f"ok: {config.name} (hash {config.config_hash()[:12]})")
    if not args.quiet:
        print(json.dumps(config.to_dict(), indent=1))
    return 0


def _cmd_run(args):
    config, overrides = _load(args)
    # picked by name at call time, so that a wrapper installed on either applies
    run = run_replay if args.command == "replay" else run_experiment
    if args.profile is None:
        result = run(config, overrides_echo=overrides)
    else:
        import cProfile

        # the dump covers the whole run and is written even when it fails
        profiler = cProfile.Profile()
        try:
            result = profiler.runcall(run, config, overrides_echo=overrides)
        finally:
            profiler.dump_stats(args.profile)
    for name, (mean, se) in result["finals"].items():
        _say(args, f"{name}: final mean {mean:.4f} +/- {se:.4f}")
    _say(args, f"wrote {result['raw_path']}")
    return 0


def _cmd_pretrain(args):
    import os

    config, _ = _load(args)
    pre = pretrain(config)
    os.makedirs(args.out, exist_ok=True)
    saved = _save_imputer(pre["imputer"], args.out)
    doc = {
        "imputer_kind": config.imputer["kind"],
        "imputer_path": saved,
        "feat_norm_bound": pre["feat_norm_bound"],
        "feat_norm_diagnostics": pre["feat_norm_diagnostics"],
        "plug_in_dt": pre["plug_in_dt"],
    }
    path = os.path.join(args.out, "pretrain.json")
    _write_json(path, doc)
    _say(args, f"wrote {path}" + (f" and {saved}" if saved else ""))
    return 0


def _cmd_calibrate(args):
    import os

    config, _ = _load(args)
    if config.environment["kind"] != "synthetic":
        # a replay log has no generator, and lower_bound has d_S = d_lin + d_non >= 2
        raise ConfigError(
            "environment.kind", "calibrate's band needs a synthetic environment (d_S = 1)"
        )
    _require_band_pairs(config.pretrain, "calibrate's band")
    dataset = generate_history(
        config.make_env,
        config.pretrain["n"],
        config.pretrain["t0"],
        config.pretrain["seed"],
    )
    query_points = None
    if config.calibration["grid_points"] is not None:
        lo, hi = linear_quantile(dataset.s.ravel(), [0.05, 0.95])
        query_points = np.linspace(lo, hi, config.calibration["grid_points"])[:, None]
    band = _dt_band(config, dataset, query_points)
    os.makedirs(args.out, exist_ok=True)
    band_path = os.path.join(args.out, "band.csv")
    d_w = band.centers.shape[1]
    with open(band_path, "w", encoding="utf-8", newline="\n") as fh:
        cols = ["grid_0"]
        for j in range(d_w):
            cols += [f"center_{j}", f"half_width_{j}", f"cross_term_{j}"]
        fh.write(",".join(cols) + "\n")
        for i in range(band.grid.shape[0]):
            row = [repr(float(band.grid[i, 0]))]
            for j in range(d_w):
                row += [
                    repr(float(band.centers[i, j])),
                    repr(float(band.half_widths[i, j])),
                    repr(float(band.cross_term[i, j])),
                ]
            fh.write(",".join(row) + "\n")
    summary = {
        "alpha": band.alpha,
        "dhat": band.dhat,
        "dhat_sq": band.dhat_sq,
        "max_cross_term": float(band.cross_term.max()),
        "empirical_modulus": band.empirical_modulus,
        "surrogate": band.surrogate,
        "metadata": band.metadata,
    }
    summary_path = os.path.join(args.out, "band.json")
    _write_json(summary_path, summary)
    _say(args, f"dhat = {band.dhat:.6g} (alpha = {band.alpha}); wrote {band_path}")
    return 0


def _cmd_sweep(args):
    config, overrides = _load(args)
    key, _, raw_values = args.param.partition("=")
    if not key or not raw_values:
        raise ConfigError("--param", "must be of the form key=[v1,v2,...]")
    try:
        values = json.loads(raw_values)
    except ValueError as exc:
        # malformed JSON, or an integer past Python's digit limit
        raise ConfigError("--param", f"cannot parse values: {exc}")
    if not isinstance(values, list):
        raise ConfigError("--param", "values must be a JSON list")
    result = run_sweep(config, key, values, args.out, overrides_echo=overrides)
    for row in result["rows"]:
        param, value, agent, mean, se = row.values()
        _say(args, f"{param}={value} {agent}: final mean {mean:.4f} +/- {se:.4f}")
    _say(args, f"wrote {result['table_path']}")
    return 0


_COMMANDS = {
    "simulate": _cmd_run,
    "replay": _cmd_run,
    "pretrain": _cmd_pretrain,
    "calibrate": _cmd_calibrate,
    "sweep": _cmd_sweep,
    "validate-config": _cmd_validate,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PulseBanditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
