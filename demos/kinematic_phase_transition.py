"""The intersection phase transition between a cone and a random subspace.

A circular cone C and a Haar-rotated k-dimensional subspace intersect
nontrivially with probability that jumps from ~0 to ~1 as k crosses
D - delta(C), where delta is the statistical dimension. For a cone with
half-angle a, delta is an exact 1-D integral over the polar angle, close to
D sin^2(a) + cos(2a), so the crossing point is predictable before running
a single trial.

Run from the repository root:

    python3 demos/kinematic_phase_transition.py
"""

import math
import os

from mergelimits.experiments import emit_report, run_kinematics
from mergelimits.plotting import plot_svg
from mergelimits.tensorio import RngStream

out_dir = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(out_dir, exist_ok=True)

dim = 60
series = []
for deg in (20, 30, 45):
    report = run_kinematics(
        dim,
        range(1, dim + 1),
        trials=300,
        stream=RngStream(0, deg),
        half_angle=math.radians(deg),
    )
    statdim = report.extra["statdim"]
    print(
        f"half-angle {deg:>2} deg: statdim {statdim:6.2f} "
        f"(D sin^2 = {dim * math.sin(math.radians(deg)) ** 2:6.2f}), "
        f"crossing at k = {report.extra['crossing_k']} "
        f"(predicted {report.extra['predicted_crossing']:.1f})"
    )
    emit_report(report, "csv", os.path.join(out_dir, f"kinematics_{deg}deg.csv"))
    series.append(
        (f"{deg} deg", [r[0] for r in report.rows], [r[1] for r in report.rows])
    )

plot_svg(series, os.path.join(out_dir, "kinematics.svg"))
print(f"\nwrote kinematics CSVs and kinematics.svg to {out_dir}")
