"""Command-line experiment runner.

Subcommands: gen-experts, merge, rht, width, kinematics, saturate,
rht-study, subspace, report. Exit codes: 0 success, 2 config error,
3 numeric error, 4 I/O or format error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import experiments, geometry, merge, plotting, rht, subspace, tensorio
from .errors import ConfigError, FormatError, NumericError
from .tensorio import RngStream


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON experiment config (ExperimentConfig fields)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=["csv", "json"], default="csv")


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
        cfg = experiments.ExperimentConfig.from_dict({**cfg.to_dict(), "seed": args.seed})
    return cfg


def _emit(report: experiments.Report, args, stem: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{stem}.{args.format}")
    experiments.emit_report(report, args.format, path)
    return path


def cmd_gen_experts(args) -> None:
    cfg = _load_config(args)
    experts = experiments.gen_experts(cfg, low_rank=args.low_rank)
    os.makedirs(args.out, exist_ok=True)
    for i, e in enumerate(experts):
        vec = e.dense().reshape(-1) if isinstance(e, tensorio.LowRankDelta) else e
        path = os.path.join(args.out, f"expert_{i:03d}.mmpv")
        tensorio.write_pvec(vec, path)
        print(path)


def cmd_merge(args) -> None:
    experts = [tensorio.read_pvec(p) for p in args.experts]
    if args.weights:
        try:
            alphas = np.array([float(x) for x in args.weights.split(",")])
        except ValueError as e:
            raise ConfigError(f"--weights must be comma-separated numbers: {e}") from e
        w = merge.MergeWeights(alphas)
    else:
        w = merge.MergeWeights.uniform(len(experts))
    merged = merge.merge_linear(experts, w)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "merged.mmpv")
    tensorio.write_pvec(merged, path)
    print(path)


def cmd_rht(args) -> None:
    cfg = _load_config(args)
    v = tensorio.read_pvec(args.vector)
    out = rht.apply_rht(v, cfg.rht_params, RngStream(cfg.seed, 100))
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "rht.mmpv")
    tensorio.write_pvec(out, path)
    print(path)


def cmd_width(args) -> None:
    cfg = _load_config(args)
    task = experiments.gen_quadratic_task(cfg)
    jensen = geometry.width_jensen(task)
    mc, se = geometry.width_mc(task, args.samples, RngStream(cfg.seed, 3))
    report = experiments.Report(
        "width",
        ["method", "value", "stderr"],
        [["jensen", jensen, 0.0], ["monte_carlo", mc, se]],
        cfg.to_dict(),
        {"samples": args.samples},
    )
    print(_emit(report, args, "width"))


def cmd_kinematics(args) -> None:
    cfg = _load_config(args)
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
        RngStream(cfg.seed, 4),
        half_angle=half_angle,
        subspace_dim=args.subspace_dim,
    )
    print(_emit(report, args, "kinematics"))
    if args.plot:
        svg = os.path.join(args.out, "kinematics.svg")
        ks = [r[0] for r in report.rows]
        ps = [r[1] for r in report.rows]
        plotting.plot_svg([("intersection probability", ks, ps)], svg)
        print(svg)


def cmd_saturate(args) -> None:
    cfg = _load_config(args)
    report = experiments.run_saturation(cfg)
    print(_emit(report, args, "saturation"))
    if args.plot:
        svg = os.path.join(args.out, "saturation.svg")
        ns = [r[0] for r in report.rows]
        plotting.plot_svg(
            [
                ("variance (analytic)", ns, [r[1] for r in report.rows]),
                ("variance (mc)", ns, [r[2] for r in report.rows]),
                ("expected loss", ns, [r[4] for r in report.rows]),
            ],
            svg,
        )
        print(svg)


def cmd_rht_study(args) -> None:
    cfg = _load_config(args)
    report = experiments.run_rht_study(cfg)
    print(_emit(report, args, "rht_study"))
    if args.plot:
        svg = os.path.join(args.out, "rht_study.svg")
        ns = [r[0] for r in report.rows]
        plotting.plot_svg(
            [
                ("loss (baseline)", ns, [r[1] for r in report.rows]),
                ("loss (rht)", ns, [r[2] for r in report.rows]),
            ],
            svg,
        )
        print(svg)


def cmd_subspace(args) -> None:
    stacked = tensorio.read_matrix(args.matrix)
    rep = subspace.pca_explained(stacked, center=not args.no_center)
    rows = [
        [i + 1, float(sv), float(fr)]
        for i, (sv, fr) in enumerate(zip(rep.singular_values, rep.explained_fractions))
    ]
    extra = {
        "centered": not args.no_center,
        "rank": rep.rank,
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
    print(_emit(report, args, "subspace"))


def cmd_report(args) -> None:
    report = experiments.Report.from_json(_read_text(args.input))
    print(_emit(report, args, report.kind))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mergelimits")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-experts", help="sample equicorrelated expert deltas")
    _common_flags(p)
    p.add_argument("--low-rank", action="store_true")
    p.set_defaults(func=cmd_gen_experts)

    p = sub.add_parser("merge", help="convex-combine expert vectors")
    _common_flags(p)
    p.add_argument("experts", nargs="+", help="MMPV expert files")
    p.add_argument("--weights", help="comma-separated convex weights (default uniform)")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("rht", help="apply the heavy-tailed reparameterization")
    _common_flags(p)
    p.add_argument("vector", help="MMPV input vector")
    p.set_defaults(func=cmd_rht)

    p = sub.add_parser("width", help="Gaussian width of the task sublevel set")
    _common_flags(p)
    p.add_argument("--samples", type=int, default=20_000)
    p.set_defaults(func=cmd_width)

    p = sub.add_parser("kinematics", help="cone/subspace intersection transition curve")
    _common_flags(p)
    p.add_argument("--dim", type=int, default=60)
    p.add_argument("--half-angle-deg", type=float)
    p.add_argument("--subspace-dim", type=int)
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int)
    p.add_argument("--k-step", type=int, default=1)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=cmd_kinematics)

    p = sub.add_parser("saturate", help="saturation sweep over merge counts")
    _common_flags(p)
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=cmd_saturate)

    p = sub.add_parser("rht-study", help="paired baseline-vs-RHT saturation study")
    _common_flags(p)
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=cmd_rht_study)

    p = sub.add_parser("subspace", help="PCA / singular-value diagnostics of stacked experts")
    _common_flags(p)
    p.add_argument("matrix", help="MMMX file, rows = experts")
    p.add_argument("--no-center", action="store_true")
    p.set_defaults(func=cmd_subspace)

    p = sub.add_parser("report", help="re-emit a JSON report as csv or json")
    _common_flags(p)
    p.add_argument("input", help="JSON report file")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3
    except (FormatError, OSError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
