"""Command-line front end: run scenarios, manage seeds and configs, and emit
machine-readable CSV/JSON results.

Numbers are serialized with 17 significant digits so CSVs round-trip double
precision exactly; in --deterministic mode a repeated run produces
byte-identical outputs (the manifest then omits the wall-clock duration).
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import os
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .core import CapacityError, ConfigError, NumericError, RngStreamPlan
from .particle import marginal_histogram, weighted_moments
from .watertank import (
    COMPONENTS,
    SAMPLED,
    SCENARIOS,
    EstimationReport,
    TankConfig,
    scenario,
    simulate,
)

DEFAULT_SEED = 42
OUTDIR_ENV = "GUMKF_OUTDIR"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _write_csv(path: Path, header: Sequence[str], table: np.ndarray) -> None:
    """The 2-D float table under a header row, CRLF line ends as csv's,
    each value as "%.17g" of its Python float.  Rows are formatted one at a
    time, so no copy of the whole table or text is held."""
    row = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row % tuple(values.tolist()) for values in table)


def _write_manifest(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _outdir(args) -> Path:
    """The output directory, created with its parents.  Commands call it
    once their options are checked, just before the first output is
    written, so a refused run leaves no directory behind."""
    path = _outpath(args)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _outpath(args) -> Path:
    return Path(args.out or os.environ.get(OUTDIR_ENV) or ".")


def _check_outdir(args) -> None:
    """Refuse at once, with the OSError that creating or writing it would
    raise, an output directory whose nearest existing ancestor (the
    directory itself, if it exists) is not a writable directory.  Creates
    nothing."""
    base = _outpath(args).absolute()
    while not os.path.lexists(base):
        base = base.parent
    if not base.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(base))
    if not os.access(base, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(base))


def _add_common(parser):
    parser.add_argument("--config", help="path to a TankConfig JSON file")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed")
    parser.add_argument("--out", help=f"output directory (default ${OUTDIR_ENV} or cwd)")
    parser.add_argument(
        "--deterministic",
        action="store_true",
        help="byte-identical outputs: the manifest omits the wall-clock duration",
    )


def _add_estimation(parser):
    parser.add_argument("--trials", type=int, default=100_000, help="Monte Carlo trials")
    parser.add_argument("--particles", type=int, default=100_000, help="particle count")
    parser.add_argument("--gamma", type=float, default=0.9, help="resampling tolerance factor")
    parser.add_argument("--threads", type=int, default=1, help="trial-level parallel degree")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gumkf", description=__doc__)
    parser.add_argument("--version", action="version", version=f"gumkf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate the water-tank system")
    _add_common(p_sim)

    p_est = sub.add_parser("estimate", help="run one estimation scenario")
    p_est.add_argument("scenario", choices=SCENARIOS)
    _add_common(p_est)
    _add_estimation(p_est)

    p_cmp = sub.add_parser("compare", help="join scenario CSVs into one table")
    p_cmp.add_argument("csvs", nargs="+", help="scenario CSV files to join on t")
    p_cmp.add_argument("--out", help="output directory")
    p_cmp.add_argument("--name", default="compare.csv", help="output file name")

    p_pdf = sub.add_parser(
        "pdf-marginal", help="histogram of a component's marginal PDF at given times"
    )
    p_pdf.add_argument(
        "--scenario",
        default="pf",
        choices=tuple(SAMPLED),
        help="sample-based scenario to draw the marginal from",
    )
    p_pdf.add_argument("--component", default="theta", choices=sorted(COMPONENTS))
    p_pdf.add_argument("--at", required=True, help="comma-separated times in seconds")
    _add_common(p_pdf)
    _add_estimation(p_pdf)
    return parser


def _run_command(args, command) -> int:
    """The start and end of every command but compare: load the config,
    run command(args, config), which returns its tables {file name:
    (header, table)}, its manifest stem and its extra manifest fields, then
    create the output directory and write each table and
    <stem>_manifest.json.  An output directory that could not be created
    or written is refused before the command runs."""
    started = time.monotonic()
    config = TankConfig.load(args.config) if args.config else TankConfig()
    _check_outdir(args)
    tables, stem, extra = command(args, config)
    outdir = _outdir(args)
    for name, (header, table) in tables.items():
        _write_csv(outdir / name, header, table)
    payload = {
        "schema_version": 1,
        "tool_version": __version__,
        "command": args.command,
        "master_seed": args.seed,
        "deterministic": args.deterministic,
        "config": config.to_dict(),
        "outputs": sorted(tables),
        "duration_seconds": None if args.deterministic else time.monotonic() - started,
        **extra,
    }
    _write_manifest(outdir / f"{stem}_manifest.json", payload)
    return 0


def _simulate(args, config):
    record = simulate(config, RngStreamPlan(args.seed))
    y = np.concatenate([[np.nan], record.measurements])  # no measurement at k = 0
    table = np.column_stack([record.times, record.states[:, 0], record.states[:, 1], y])
    return {"simulation.csv": (["t", "xL_true", "xs_true", "y"], table)}, "simulation", {}


def _scenario(args, config, record_at_times=()):
    """The scenario run of estimate and pdf-marginal, with the manifest
    fields they share: scenario, gamma and the scenario's sample count."""
    report = scenario(
        args.scenario,
        config,
        RngStreamPlan(args.seed),
        trials=args.trials,
        n_particles=args.particles,
        gamma=args.gamma,
        record_at_times=record_at_times,
        threads=args.threads,
    )
    extra = {"scenario": args.scenario, "gamma": args.gamma}
    count = SAMPLED.get(args.scenario)
    if count:
        extra[count] = getattr(args, count)
    return report, extra


def _report_rows(report: EstimationReport):
    header = ["t", "xL_est", "xL_u", "xs_est", "xs_u"]
    columns = [report.times, report.state_est[:, 0], report.state_u[:, 0],
               report.state_est[:, 1], report.state_u[:, 1]]
    if report.theta_est is not None:
        header += ["theta_est", "theta_u"]
        columns += [report.theta_est, report.theta_u]
    return header, np.column_stack(columns)


def _estimate(args, config):
    report, extra = _scenario(args, config)
    if report.ess is not None:
        extra["ess_min"] = float(report.ess.min())
        extra["ess_pre_resample_min"] = float(report.ess_pre_resample.min())
        extra["resample_events"] = int(report.resampled.sum())
    return {f"{args.scenario}.csv": _report_rows(report)}, args.scenario, extra


def _cmd_compare(args) -> int:
    # columns are <stem>__<col>, or <path without .csv>__<col> if stems repeat
    prefixes = [Path(name).stem for name in args.csvs]
    if len(set(prefixes)) < len(prefixes):
        prefixes = [name.removesuffix(".csv") for name in args.csvs]
    for i, name in enumerate(args.csvs):
        if prefixes[i] in prefixes[:i]:
            raise ConfigError(f"{name}: given twice; its columns would repeat")
    tables = []
    for name, prefix in zip(args.csvs, prefixes):
        with open(name, "r", newline="", encoding="utf-8") as fh:
            reader = list(csv.reader(fh))
        if not reader or reader[0][:1] != ["t"]:
            raise ConfigError(f"{name}: line 1: not a scenario CSV (missing t column)")
        for line, row in enumerate(reader[1:], start=2):
            if len(row) != len(reader[0]):
                raise ConfigError(
                    f"{name}: line {line}: {len(row)} fields where the header has {len(reader[0])}"
                )
        tables.append((prefix, reader[0], reader[1:]))
    t_col = [row[0] for row in tables[0][2]]
    for name, (_, _, rows) in zip(args.csvs[1:], tables[1:]):
        if [row[0] for row in rows] != t_col:
            raise ConfigError(f"{name}: time column differs from {args.csvs[0]}'s; cannot join")
    header = ["t"]
    for prefix, head, _ in tables:
        header += [f"{prefix}__{col}" for col in head[1:]]
    out_rows = []
    for i, t in enumerate(t_col):
        row = [t]
        for _, _, rows in tables:
            row += rows[i][1:]
        out_rows.append(row)
    with open(_outdir(args) / args.name, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(out_rows)
    return 0


def _pdf_marginal(args, config):
    try:
        times = tuple(float(t) for t in args.at.split(","))
    except ValueError as exc:
        raise ConfigError(f"invalid --at value {args.at!r}") from exc
    names = {}  # outputs are named by %g of the time, six significant digits
    for t in times:
        other = names.setdefault(f"{t:g}", t)
        if other != t:
            raise ConfigError(f"--at times {other} and {t} would share the output name t{t:g}s")
    report, extra = _scenario(args, config, times)
    comp = COMPONENTS[args.component]
    tables = {}
    summaries = {}
    for t in times:
        samples, weights = report.marginals[t]
        values = samples[:, comp]
        edges, density = marginal_histogram(values, weights)
        tables[f"{args.scenario}_{args.component}_t{t:g}s.csv"] = (
            ["bin_lo", "bin_hi", "density"],
            np.column_stack([edges[:-1], edges[1:], density]),
        )
        mean, var = weighted_moments(values[:, np.newaxis], weights)
        summaries[f"t={t:g}"] = {
            "weighted_mean": float(mean[0]), "weighted_std": float(np.sqrt(var[0, 0]))
        }
    extra.update(component=args.component, times_s=list(times), summaries=summaries)
    return tables, f"{args.scenario}_{args.component}_marginal", extra


_COMMANDS = {"simulate": _simulate, "estimate": _estimate, "pdf-marginal": _pdf_marginal}


def run(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and execute; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
        if args.command == "compare":
            return _cmd_compare(args)
        return _run_command(args, _COMMANDS[args.command])
    except ConfigError as exc:
        print(f"gumkf: config error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, CapacityError) as exc:
        print(f"gumkf: numeric failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"gumkf: out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"gumkf: I/O error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
