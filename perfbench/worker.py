"""One benchmark process: imports, input set-up, the op loop and the checks.

run.py starts this in a fresh process from the checkout root, once per
phase, so that set-up time and peak memory belong to one workload:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|run|trace --workdir DIR --result FILE

``setup`` imports numpy, scipy and mergelimits, writes the workload's
inputs and stops. ``run`` then runs ops back to back (a closed loop with
one client) until ``--seconds`` have passed, untraced. ``trace`` runs each
op once untraced and once traced, alternating which goes first, so that
the difference is the tracing overhead and equal digests show that
tracing changed no output. Every op is checked after the loop has ended.
The result, including the environment, is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import mergelimits  # noqa: E402
from mergelimits import cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_op(argvs: list[list[str]]) -> str | None:
    """Run one op's CLI calls in order in this process; the error or None."""
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            try:
                # Looked up on the module at each call so the tracer's wrapper runs.
                rc = cli.main(argv)
            except SystemExit as e:
                rc = e.code
            except Exception as e:  # noqa: BLE001 - an op that raises is a failed op
                return f"{argv[0]} raised {type(e).__name__}: {e}"
            if rc != 0:
                return f"{argv[0]} exited with {rc}"
    return None


def digest_dir(out: Path) -> str:
    """sha256 over every file under ``out``: relative path and content digest."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(f"{path.relative_to(out).as_posix()} {workloads.sha256_file(path)}\n".encode())
    return h.hexdigest()


def verify(wl, ops: list[dict]) -> None:
    """Check each op that ran to completion; record its digest and notes."""
    for op in ops:
        out = Path(op["out"])
        if op["error"] is None:
            try:
                op["notes"] = wl.check(op["index"], out)
                op["digest"] = digest_dir(out)
            except workloads.CheckFailed as e:
                op["error"] = f"check failed: {e}"
            except (OSError, KeyError, TypeError, ValueError) as e:
                op["error"] = f"check failed: {type(e).__name__}: {e}"
        shutil.rmtree(out, ignore_errors=True)


def loop(wl, seconds: float, variants) -> tuple[list[dict], float]:
    """Run op i under each of ``variants(i)`` until ``seconds`` have passed.

    A variant is (suffix, context manager factory, traced flag).
    """
    ops = []
    start = time.perf_counter()
    i = 0
    while True:
        for suffix, context, traced in variants(i):
            out = f"ops/{i:04d}{suffix}"
            argvs = wl.argvs(i, out)
            with context():
                t0 = time.perf_counter()
                error = run_op(argvs)
                dt = time.perf_counter() - t0
            ops.append({"index": i, "label": wl.label(i), "out": out, "seconds": dt,
                        "error": error, "traced": traced})
        i += 1
        if time.perf_counter() - start >= seconds:
            return ops, time.perf_counter() - start


def openblas_info() -> list[dict]:
    """Config string and thread count of every OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return []
    out = []
    for path in libs:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for key, call, restype in (("config", "get_config", ctypes.c_char_p),
                                   ("threads", "get_num_threads", ctypes.c_int)):
            # numpy and scipy wheels prefix and suffix the symbols differently.
            names = [f"{prefix}{call}{suffix}" for prefix in ("scipy_openblas_", "openblas_")
                     for suffix in ("64_", "")]
            fn = next((getattr(lib, n) for n in names if hasattr(lib, n)), None)
            if fn is not None:
                fn.restype = restype
                value = fn()
                info[key] = value.decode() if isinstance(value, bytes) else value
        out.append(info)
    return out


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    src = ROOT / "src" / "mergelimits"
    h = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_info(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
        "src_sha256": h.hexdigest(),
        "workload_seed": seed,
    }


def trace_metrics(tracer: tracing.Tracer, ops: list[dict]) -> dict:
    """Per-layer metrics plus overhead; fail traced ops whose output differs from their twin's."""
    traced = [op for op in ops if op["traced"]]
    untraced = {op["index"]: op for op in ops if not op["traced"]}
    for op in traced:
        twin = untraced[op["index"]]
        if op["error"] is None and twin["error"] is None and op["digest"] != twin["digest"]:
            op["error"] = "tracing changed the output digest"
    metrics = tracing.layer_metrics(tracer, len(traced))
    metrics["trace.overhead_s"] = (statistics.median(op["seconds"] for op in traced)
                                   - statistics.median(op["seconds"] for op in untraced.values()))
    metrics["trace.spans"] = len(tracer.start) / len(traced)
    return metrics


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--spans", type=Path, help="where the trace mode writes its spans")
    args = p.parse_args()

    package = Path(mergelimits.__file__).resolve().parent
    if package != (ROOT / "src" / "mergelimits").resolve():
        print(f"worker: imported mergelimits from {package}, not from src/", file=sys.stderr)
        return 2

    result_path = args.result.resolve()
    spans_path = args.spans.resolve() if args.spans else None
    wl = workloads.WORKLOADS[args.workload](args.seed)
    args.workdir.mkdir(parents=True)
    os.chdir(args.workdir)
    wl.setup()
    result = {"workload": wl.name, "seed": args.seed, "ready_monotonic": time.monotonic()}

    if args.mode == "run":
        ops, wall = loop(wl, args.seconds, lambda i: [("", contextlib.nullcontext, False)])
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        verify(wl, ops)
    elif args.mode == "trace":
        tracer = tracing.Tracer()

        def variants(i):
            pair = [("u", contextlib.nullcontext, False), ("t", tracer.installed, True)]
            tracer.op_id = i
            return pair if i % 2 == 0 else pair[::-1]

        # One untimed op first, so that the first pair's untraced twin does not
        # carry the process's first-op cost and skew the overhead.
        run_op(wl.argvs(0, "ops/warmup"))
        shutil.rmtree("ops/warmup", ignore_errors=True)
        ops, wall = loop(wl, args.seconds, variants)
        verify(wl, ops)
        result.update(layer_metrics=trace_metrics(tracer, ops), missing_targets=tracer.missing)
        if spans_path is not None:
            tracer.save(spans_path)
    if args.mode != "setup":
        result.update(ops=ops, wall_s=wall, env=environment(args.seed))
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
