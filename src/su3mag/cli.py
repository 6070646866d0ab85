"""Flag-driven command line interface.

Subcommands: verify, centralizer, flow, brackets.  All output is plain
structured text (JSON or CSV); identical configuration and seed produce
byte-identical files.  The default output directory comes from the
SU3MAG_OUTDIR environment variable (falling back to the working
directory); a JSON config file mirroring the flags can be passed to
verify, flow and brackets with --config, with explicit flags taking
precedence; a config key the command does not take is refused.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys
from pathlib import Path

import numpy as np

from . import reports
from .phase import flow_steps, integrate_flow
from .poly import DEGREE_CAP

# the CSV row cap of su3mag flow, unless the flag or the config sets it
FLOW_MAX_ROWS = 2000


def _out_dir(args):
    out = args.out or os.environ.get("SU3MAG_OUTDIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


class UsageError(ValueError):
    """Bad input: reported as one ``error:`` line with exit status 2."""


def _merge_config(args, keys, known):
    """The config file's keys, then the flags in ``keys`` that were given;
    a config key outside ``known`` (say, a misspelt one) is refused."""
    config = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config {args.config}: "
                             f"{exc.strerror}") from None
        except ValueError as exc:
            raise UsageError(f"config {args.config} is not valid JSON: "
                             f"{exc}") from None
        if not isinstance(loaded, dict):
            raise UsageError(f"config {args.config} must hold a JSON object")
        for key in loaded:
            if key not in known:
                raise UsageError(f"config {args.config} has unknown key "
                                 f"{key!r}")
        config.update(loaded)
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            config[key] = val
    return config


def _load_config(args, keys, extra=None):
    """Defaults for the case, then the config file, then explicit flags.

    The case is the flag's if given, else the config file's, else
    "regular".  The config file may hold the keys of the run config
    (reports.default_config) and of ``extra``, a command's own
    defaults; any other key is refused, and every value is checked,
    whether the command reads it or not.
    """
    extra = extra or {}
    known = set(reports.default_config("regular")) | set(extra)
    merged = _merge_config(args, ("case",) + keys, known)
    config = reports.default_config(merged.get("case", "regular"))
    config.update(extra)
    config.update(merged)
    _check_config(config)
    return config


def _check_config(config):
    """Refuse an unknown case, a non-finite or zero eps, a non-integer or
    out-of-range seed/samples/rank_samples (and max_rows, where the
    command takes it) and bad t_end/dt.  eps, t_end and dt must be JSON
    numbers: a string or a bool is refused, not converted."""
    if config["case"] not in reports.CASES:
        raise UsageError(f"case must be one of {', '.join(reports.CASES)}, "
                         f"got {config['case']!r}")
    for key in ("eps", "t_end", "dt"):
        value = config[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise UsageError(f"{key} must be a number, got {value!r}")
        value = float(value)
        if not math.isfinite(value):
            raise UsageError(f"{key} must be finite, got {value}")
    if float(config["eps"]) == 0.0:
        raise UsageError("eps must be nonzero (the magnetic parameter)")
    for key, least in (("seed", 0), ("samples", 1), ("rank_samples", 1),
                       ("max_rows", 1)):
        if key not in config:
            continue
        value = config[key]
        if not isinstance(value, int) or isinstance(value, bool):
            raise UsageError(f"{key} must be an integer, got {value!r}")
        if value < least:
            raise UsageError(f"{key} must be at least {least}, got {value}")
    try:
        flow_steps(float(config["t_end"]), float(config["dt"]))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_verify(args):
    config = _load_config(args, ("eps", "seed", "samples", "rank_samples",
                                 "t_end", "dt"))
    report = reports.run_verification(config)
    for line in reports.report_lines(report):
        print(line)
    out = _out_dir(args) / f"verify_{config['case']}.json"
    out.write_text(reports.report_json(report, config), encoding="utf-8")
    print(f"report written to {out}")
    return 0 if report.passed else 1


def _check_at_least_one(flag, value):
    if value < 1:
        raise UsageError(f"{flag} must be at least 1, got {value}")


def cmd_centralizer(args):
    _check_at_least_one("--max-degree", args.max_degree)
    if args.max_degree > DEGREE_CAP:
        raise UsageError(f"--max-degree must be at most {DEGREE_CAP}, "
                         f"got {args.max_degree}")
    if args.algebra == "su2" and args.sub != "torus":
        raise UsageError("su2 supports only the torus subalgebra")
    text = reports.centralizer_report(args.algebra, args.sub, args.m_only,
                                      args.max_degree)
    print(text, end="")
    out = _out_dir(args) / f"generators_{args.algebra}_{args.sub}.txt"
    out.write_text(text, encoding="utf-8")
    alg_text = reports.algebra_text(args.algebra, args.sub)
    alg_out = _out_dir(args) / f"algebra_{args.algebra}_{args.sub}.txt"
    alg_out.write_text(alg_text, encoding="utf-8")
    print(f"generator set written to {out}")
    print(f"algebra spec written to {alg_out}")
    return 0


def cmd_flow(args):
    if args.max_rows is not None:
        _check_at_least_one("--max-rows", args.max_rows)
    config = _load_config(args, ("eps", "seed", "t_end", "dt", "max_rows"),
                          extra={"max_rows": FLOW_MAX_ROWS})
    sys_ = reports.make_system(config["case"], config["eps"])
    rng = np.random.default_rng(int(config["seed"]))
    pt = sys_.random_regular_point(rng)
    traj = integrate_flow(sys_, pt, t_end=float(config["t_end"]),
                          dt=float(config["dt"]))
    fns = reports.monitored_functions(sys_)
    stride = math.ceil(len(traj.points) / config["max_rows"])
    out = _out_dir(args)
    csv_path = out / f"trajectory_{config['case']}.csv"
    csv_path.write_text(reports.trajectory_csv(sys_, traj, fns, stride),
                        encoding="utf-8")
    cons_path = out / f"conservation_{config['case']}.json"
    cons_doc = reports.conservation_json(sys_, traj, fns, stride=stride)
    cons_path.write_text(cons_doc, encoding="utf-8")
    doc = json.loads(cons_doc)
    for entry in doc["functions"]:
        status = "pass" if entry["pass"] else "FAIL"
        print(f"[{status}] {entry['function']}: max drift "
              f"{entry['max_drift']:.3e}")
    print(f"trajectory written to {csv_path}")
    print(f"conservation report written to {cons_path}")
    return 0 if all(e["pass"] for e in doc["functions"]) else 1


def cmd_brackets(args):
    config = _load_config(args, ("eps",))
    sys_ = reports.make_system(config["case"], config["eps"])
    text = reports.bracket_table_text(sys_)
    print(text, end="")
    out = _out_dir(args)
    (out / f"brackets_{config['case']}.txt").write_text(text,
                                                        encoding="utf-8")
    (out / f"brackets_{config['case']}.json").write_text(
        reports.bracket_table_json(sys_), encoding="utf-8")
    print(f"bracket tables written to {out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="su3mag",
        description="certificates for magnetic geodesic systems on SU(3) "
                    "homogeneous spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def out_flag(p):
        p.add_argument("--out", help="output directory "
                                     "(default: $SU3MAG_OUTDIR or .)")

    def common(p):
        out_flag(p)
        p.add_argument("--config", help="JSON config file mirroring flags")

    p = sub.add_parser("verify", help="run the full certificate suite")
    p.add_argument("--case", choices=reports.CASES,
                   help="default: the config's case, else regular")
    p.add_argument("--eps", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--rank-samples", dest="rank_samples", type=int)
    p.add_argument("--t-end", dest="t_end", type=float)
    p.add_argument("--dt", type=float)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("centralizer", help="commutant generators and relations")
    p.add_argument("--algebra", choices=("su3", "su2"), required=True)
    p.add_argument("--sub", choices=("torus", "irregular-A"), default="torus")
    p.add_argument("--m-only", action="store_true",
                   help="restrict to the reductive complement")
    p.add_argument("--max-degree", type=int, default=3)
    out_flag(p)
    p.set_defaults(func=cmd_centralizer)

    p = sub.add_parser("flow", help="integrate the magnetic geodesic flow")
    p.add_argument("--case", choices=reports.CASES,
                   help="default: the config's case, else regular")
    p.add_argument("--eps", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--t-end", dest="t_end", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--max-rows", dest="max_rows", type=int,
                   help=f"cap on exported CSV rows (default: the config's, "
                        f"else {FLOW_MAX_ROWS})")
    common(p)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("brackets", help="emit symbolic bracket tables")
    p.add_argument("--case", choices=reports.CASES,
                   help="default: the config's case, else regular")
    p.add_argument("--eps", type=float)
    common(p)
    p.set_defaults(func=cmd_brackets)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a numerical breakdown ends in one error line, without warnings
        with np.errstate(all="ignore"):
            return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except (OverflowError, RuntimeError, MemoryError) as exc:
        # say, an overflow at a huge eps, the drift guard, a flow too long
        print(f"error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
