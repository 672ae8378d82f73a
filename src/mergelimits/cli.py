"""Command-line experiment runner.

Subcommands: gen-experts, merge, rht, width, kinematics, saturate,
rht-study, subspace, report. Each subcommand takes only the flags it
reads. Exit codes: 0 success, 2 config error, 3 numeric error (a
non-finite output; numpy never warns), 4 I/O or format error. main may be
called repeatedly in one process; it builds its parser once.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import experiments, geometry, merge, plotting, rht, subspace, tensorio
from .errors import ConfigError, FormatError, NumericError
from .tensorio import RngStream


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path} is not UTF-8 text: {e}") from e


def _load_config(args) -> experiments.ExperimentConfig:
    if args.config:
        cfg = experiments.ExperimentConfig.from_json(_read_text(args.config))
    else:
        cfg = experiments.ExperimentConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _size(text: str) -> int:
    """Parse a size flag, rejecting values no array can be allocated at."""
    n = int(text)
    if n > experiments.MAX_SIZE:
        raise argparse.ArgumentTypeError(f"{n} exceeds the largest array size {experiments.MAX_SIZE}")
    return n


def _emit(report: experiments.Report, args, stem: str, plot=()) -> None:
    """Write <stem>.<format> and, with --plot, <stem>.svg of each (label,
    column name) in plot against column 0. Prints every path written."""
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{stem}.{args.format}")
    experiments.emit_report(report, args.format, path)
    print(path)
    if plot and args.plot:
        svg = os.path.join(args.out, f"{stem}.svg")
        xs = [r[0] for r in report.rows]
        cols = [(label, report.columns.index(name)) for label, name in plot]
        plotting.plot_svg([(label, xs, [r[c] for r in report.rows]) for label, c in cols], svg)
        print(svg)


def _write_pvec(vec: np.ndarray, args, name: str) -> None:
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{name}.mmpv")
    tensorio.write_pvec(vec, path)
    print(path)


def cmd_gen_experts(args) -> None:
    cfg = _load_config(args)
    # Each expert is written as its block arrives: no N x D stack is held.
    for start, block in experiments.gen_experts(cfg, low_rank=args.low_rank):
        for i, e in enumerate(block, start):
            _write_pvec(e, args, f"expert_{i:03d}")


def cmd_merge(args) -> None:
    n = len(args.experts)
    if args.weights is not None:
        try:
            alphas = np.array([float(x) for x in args.weights.split(",")])
        except ValueError as e:
            raise ConfigError(f"--weights must be comma-separated numbers: {e}") from e
        if not np.all(np.isfinite(alphas)):
            raise ConfigError(f"--weights must be finite, got {args.weights!r}")
        w = merge.MergeWeights(alphas)
        if len(w) != n:
            raise ConfigError(f"{n} experts but {len(w)} weights")
    else:
        w = merge.MergeWeights.uniform(n)
    # The weights are checked before any file is read; the files then stream into one sum.
    rows = (tensorio.read_pvec(path) for path in args.experts)
    _write_pvec(merge.merge_linear(rows, w), args, "merged")


def cmd_rht(args) -> None:
    cfg = _load_config(args)
    v = tensorio.read_pvec(args.vector)
    _write_pvec(rht.apply_rht(v, cfg.rht_params, RngStream(cfg.seed, 100)), args, "rht")


def cmd_width(args) -> None:
    cfg = _load_config(args)
    task = experiments.gen_quadratic_task(cfg)
    jensen = geometry.width_jensen(task)
    mc, se = geometry.width_mc(task, args.samples, RngStream(cfg.seed, 3))
    report = experiments.Report(
        "width",
        ["method", "value", "stderr"],
        [["jensen", jensen, 0.0], ["monte_carlo", mc, se]],
        dataclasses.asdict(cfg),
        {"samples": args.samples},
    )
    _emit(report, args, "width")


def cmd_kinematics(args) -> None:
    if args.k_max is None:
        args.k_max = args.dim
    if args.k_step < 1:
        raise ConfigError(f"--k-step must be >= 1, got {args.k_step}")
    k_values = list(range(args.k_min, args.k_max + 1, args.k_step))
    half_angle = None if args.half_angle_deg is None else float(np.radians(args.half_angle_deg))
    report = experiments.run_kinematics(
        args.dim,
        k_values,
        args.trials,
        RngStream(args.seed, 4),
        half_angle=half_angle,
        subspace_dim=args.subspace_dim,
    )
    plot = [("intersection probability", "intersection_probability")]
    _emit(report, args, "kinematics", plot=plot)


def cmd_saturate(args) -> None:
    plot = [("variance (analytic)", "var_analytic"), ("variance (mc)", "var_mc"),
            ("expected loss", "expected_loss")]
    _emit(experiments.run_saturation(_load_config(args)), args, "saturation", plot=plot)


def cmd_rht_study(args) -> None:
    plot = [("loss (baseline)", "loss_baseline"), ("loss (rht)", "loss_rht")]
    _emit(experiments.run_rht_study(_load_config(args)), args, "rht_study", plot=plot)


def cmd_subspace(args) -> None:
    stacked = tensorio.read_matrix(args.matrix)
    if not args.no_center and stacked.size:
        # This call's own matrix, centered in place: the bits of stacked - mean
        # without a second copy. An empty one is left to pca_explained's checks.
        stacked -= stacked.mean(axis=0, keepdims=True)
    rep = subspace.pca_explained(stacked, center=False)
    rows = [
        [i + 1, float(sv), float(fr)]
        for i, (sv, fr) in enumerate(zip(rep.singular_values, rep.explained_fractions))
    ]
    extra = {
        "centered": not args.no_center,
        "rank": rep.rank,
        "tail_count": rep.tail_count,
        "tail_bound": rep.tail_bound,
        "components_for_95pct": (
            subspace.components_for_threshold(rep, 0.95) if not rep.degenerate else None
        ),
        "band_counts": rep.counts_per_log_band.tolist(),
        "band_fractions": rep.band_fractions.tolist(),
        "band_convention": "index 0 is [1, inf); index 1+k is [e^-(k+1), e^-k); last is below e^-13; an exact edge e^-k counts toward band k-1",
    }
    report = experiments.Report(
        "subspace",
        ["component", "singular_value", "explained_fraction"],
        rows,
        {"matrix": args.matrix},
        extra,
    )
    _emit(report, args, "subspace")


def cmd_report(args) -> None:
    report = experiments.Report.from_json(_read_text(args.input))
    _emit(report, args, report.kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mergelimits")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help, config=False, report=False, plot=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if config:
            p.add_argument("--config", help="JSON experiment config (ExperimentConfig fields)")
            p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
        if report:
            p.add_argument("--format", choices=["csv", "json"], default="csv")
        if plot:
            p.add_argument("--plot", action="store_true", help="also write an SVG plot")
        return p

    p = add("gen-experts", cmd_gen_experts, "sample equicorrelated expert deltas", config=True)
    p.add_argument("--low-rank", action="store_true",
                   help="draw sqrt(D) x sqrt(D) factor-product experts of the config rank")

    p = add("merge", cmd_merge, "convex-combine expert vectors")
    p.add_argument("experts", nargs="+", help="MMPV expert files")
    p.add_argument("--weights", help="comma-separated convex weights (default uniform)")

    p = add("rht", cmd_rht, "apply the heavy-tailed reparameterization", config=True)
    p.add_argument("vector", help="MMPV input vector")

    p = add("width", cmd_width, "Gaussian width of the task sublevel set", config=True, report=True)
    p.add_argument("--samples", type=_size, default=20_000)

    p = add(
        "kinematics", cmd_kinematics, "cone/subspace intersection transition curve",
        report=True, plot=True,
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=_size, default=60)
    p.add_argument("--half-angle-deg", type=float)
    p.add_argument("--subspace-dim", type=_size)
    p.add_argument("--k-min", type=_size, default=1)
    p.add_argument("--k-max", type=_size)
    p.add_argument("--k-step", type=_size, default=1)
    p.add_argument("--trials", type=_size, default=500)

    add("saturate", cmd_saturate, "saturation sweep over merge counts",
        config=True, report=True, plot=True)
    add("rht-study", cmd_rht_study, "paired baseline-vs-RHT saturation study",
        config=True, report=True, plot=True)

    p = add("subspace", cmd_subspace, "PCA / singular-value diagnostics of stacked experts",
            report=True)
    p.add_argument("matrix", help="MMMX file, rows = experts")
    p.add_argument("--no-center", action="store_true")

    p = add("report", cmd_report, "re-emit a JSON report as csv or json", report=True)
    p.add_argument("input", help="JSON report file")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Parsing keeps no state in the parser: each call gets a fresh namespace.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # emit_report, as_pvec and plot_svg turn a non-finite output into exit 3.
        with np.errstate(over="ignore", invalid="ignore"):
            args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        # A size from the config or flags that no allocation can hold.
        detail = f" ({e})" if str(e) else ""
        print(f"config error: a requested size is too large to allocate{detail}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3
    except (FormatError, OSError, UnicodeEncodeError) as e:
        # UnicodeEncodeError: a path the filesystem encoding cannot represent.
        print(f"i/o error: {e}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
