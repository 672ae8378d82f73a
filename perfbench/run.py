"""mergelimits benchmark: run one workload (or all) and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload saturate-d3000 --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 1

With ``--trace 0`` it starts the workload's set-up process several times
to time set-up, then one fresh process that runs ops back to back for
``--seconds`` and checks every output. It prints the end-to-end metrics as
a table, a ``details`` line (environment, report digests, per-op times and
errors) and, last, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 1`` it runs each op untraced and
traced in one fresh process, prints the per-layer metrics instead and
writes the spans to ``.perfbench/trace-<workload>-seed<n>.npz``.

See perfbench/README.md for the metrics, the workloads and why they were chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

# The set-up time is the median over this many fresh processes (probes plus
# the measured process itself).
SETUP_SAMPLES = 5
# Every workload must finish well inside the 180 s a run is allowed.
DEADLINE_S = 170.0

# End-to-end metrics and their units; README.md defines each.
END_TO_END = [("op_s_p50", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]


def spawn_worker(root: Path, name: str, args, mode: str, tag: str, env: dict,
                 deadline: float) -> tuple[dict, float]:
    """Run worker.py once; return its result and its set-up time in seconds."""
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = scratch / f"work-{os.getpid()}-{tag}"
    result_path = scratch / f"result-{os.getpid()}-{tag}.json"
    cmd = [sys.executable, str(root / "perfbench" / "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", str(workdir), "--result", str(result_path)]
    if mode == "trace":
        cmd += ["--spans", str(scratch / f"trace-{name}-seed{args.seed}.npz")]
    try:
        started = time.monotonic()
        # The worker's stdout goes to our stderr so that our last stdout line is the result.
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                              timeout=max(1.0, deadline - started))
        if proc.returncode != 0:
            raise RuntimeError(f"{name} {mode} worker exited with {proc.returncode}")
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        result_path.unlink(missing_ok=True)
    return result, result["ready_monotonic"] - started


def run_workload(root: Path, name: str, args, env: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        result, _ = spawn_worker(root, name, args, "trace", "trace", env, deadline)
    else:
        def probe(k: int) -> float:
            return spawn_worker(root, name, args, "setup", f"setup{k}", env, deadline)[1]

        # Probes before and after the measured process spread the set-up
        # samples over the run, so one slow spell of the host moves fewer.
        before = [probe(k) for k in range((SETUP_SAMPLES - 1) // 2)]
        result, setup = spawn_worker(root, name, args, "run", "run", env, deadline)
        setups = before + [setup] + [probe(k) for k in range(len(before), SETUP_SAMPLES - 1)]
        times = [op["seconds"] for op in result["ops"]]
        result["setups_s"] = setups
        result["metrics"] = {
            "op_s_p50": statistics.median(times),
            "ops_per_s": len(times) / result["wall_s"],
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "setup_s": statistics.median(setups),
        }
    return result


def digests_by_label(ops: list[dict]) -> dict:
    """First digest per input label, and whether every repeat matched it."""
    seen: dict[str, str] = {}
    stable = True
    for op in ops:
        if "digest" in op and not op["traced"]:
            first = seen.setdefault(op["label"], op["digest"])
            stable &= first == op["digest"]
    return {"by_label": seen, "repeats_identical": stable}


def report(name: str, args, result: dict) -> tuple[dict, int, int]:
    """Print one workload's table and details; return its metrics and op counts."""
    ops = result["ops"]
    failed = [op for op in ops if op["error"] is not None]
    env = result["env"]
    threads = sorted({lib.get("threads") for lib in env["openblas"]} - {None})
    print(f"== {name}  seed {args.seed}: {len(ops)} ops in {result['wall_s']:.2f} s, "
          f"closed loop with 1 client, BLAS threads {threads}, nproc {env['nproc']}")
    if args.trace:
        units = {m[0]: m[1] for m in tracing.LAYER_METRICS + tracing.TRACE_METRICS}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in result["layer_metrics"].items()}
        for key, m in metrics.items():
            print(f"  {key:46s} {m['value']:14.6g} {m['unit']}")
        print(f"  (per traced op over {sum(op['traced'] for op in ops)} traced ops; "
              f"untraced twins give the overhead)")
    else:
        units = dict(END_TO_END)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
        notes = {
            "op_s_p50": f"median of {len(ops)} ops",
            "ops_per_s": f"{len(ops)} ops / {result['wall_s']:.3f} s",
            "peak_rss_mb": "ru_maxrss of the op process",
            "setup_s": f"median of {len(result['setups_s'])} process starts",
        }
        for key, m in metrics.items():
            print(f"  {key:12s} {m['value']:12.6g} {m['unit']:4s}  {notes[key]}")
        print(f"  {'error_rate':12s} {len(failed) / len(ops):12.6g} {'ratio':4s}  "
              f"{len(failed)} failed / {len(ops)} attempted")
    for op in failed:
        print(f"  FAILED op {op['index']} ({op['label']}): {op['error']}")
    details = {
        "workload": name,
        "env": env,
        "digests": digests_by_label(ops),
        "notes": sorted({json.dumps(op.get("notes"), sort_keys=True) for op in ops
                         if op.get("notes")}),
        "op_seconds": [round(op["seconds"], 6) for op in ops],
        "setups_s": result.get("setups_s"),
        "missing_targets": result.get("missing_targets"),
    }
    print("details " + json.dumps(details, sort_keys=True))
    return metrics, len(ops), len(failed)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    if not (root / "src" / "mergelimits" / "__init__.py").is_file():
        print("run.py: no src/mergelimits here; run from the repository root", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    # BLAS threads are set, not left to the library default, and never exceed nproc.
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(nproc), "OMP_NUM_THREADS": str(nproc)}
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    all_metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            metrics, n, f = report(name, args, run_workload(root, name, args, env))
            prefix = "" if len(names) == 1 else f"{name}."
            all_metrics.update({prefix + k: v for k, v in metrics.items()})
            attempted += n
            failed += f
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
