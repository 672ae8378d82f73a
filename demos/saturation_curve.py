"""How many experts is it worth merging?

Walks the core story end to end: sample equicorrelated experts, merge
1..N of them uniformly, and watch the variance of the merged parameters
saturate at sigma^2 * rho instead of vanishing. The two stops answer
different questions. The successive-gain stop keeps experts until the next
one cuts the variance by less than delta. The closed-form bound n_max counts
the experts that leave the variance at least delta above its limit, which is
where the distance-to-limit stop falls (past the ten merged here).

Run from the repository root:

    python3 demos/saturation_curve.py
"""

import os

from mergelimits.experiments import ExperimentConfig, emit_report, run_saturation
from mergelimits.merge import n_max, variance_limit
from mergelimits.plotting import plot_svg

out_dir = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(out_dir, exist_ok=True)

# Ten experts in 500 dimensions, pairwise correlation 0.5. Each merged-in
# expert must cut variance by at least delta = 0.05 to count as progress.
cfg = ExperimentConfig(seed=0, dimension=500, n_experts=10, rho=0.5, delta=0.05)

report = run_saturation(cfg)

print(f"variance limit sigma^2 * rho      = {variance_limit(cfg.sigma2, cfg.rho)}")
print(f"closed-form merge bound n_max     = {n_max(cfg.sigma2, cfg.rho, cfg.delta)}")
print(f"adaptive stop (successive gain)   = n = {report.extra['stop_n_successive']}")
print()
print(f"{'n':>3} {'var (analytic)':>15} {'var (mc)':>12} {'expected loss':>14}")
for n, ana, mc, _, loss, *_ in (tuple(r) for r in report.rows):
    print(f"{n:>3} {ana:>15.6f} {mc:>12.6f} {loss:>14.3f}")

csv_path = os.path.join(out_dir, "saturation.csv")
emit_report(report, "csv", csv_path)

ns = [r[0] for r in report.rows]
plot_svg(
    [
        ("variance (analytic)", ns, [r[1] for r in report.rows]),
        ("variance (mc)", ns, [r[2] for r in report.rows]),
        ("limit", ns, [report.extra["variance_limit"]] * len(ns)),
    ],
    os.path.join(out_dir, "saturation.svg"),
)
print(f"\nwrote {csv_path} and saturation.svg")
