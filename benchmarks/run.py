"""Benchmark of the amprl pipeline on three seeded workloads.

    python3 benchmarks/run.py --workload train|generate|curate|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``src/``.
Each run builds its inputs in a set-up process (timed several times), then
one closed-loop process repeats the workload's CLI stages for about S
seconds, with one BLAS thread, and checks the artifacts. With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` the per-layer metrics
of a traced run. The last stdout line is a JSON object with the keys
correct, attempted, failed and metrics. A full record, with the
environment and artifact digests, goes to ``.bench_work/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

WORKLOAD_NAMES = ("train", "generate", "curate")
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 170.0
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for name in BLAS_VARIABLES:
        env[name] = str(BLAS_THREADS)
    env.pop("AMPRL_OUTPUT_DIR", None)
    return env


def run_child(args: list[str], root: Path, deadline: float) -> dict:
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=root, env=child_env(root), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker {args[0]} exceeded {timeout:.0f} s") from err
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(versions: dict, seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def run_workload(name: str, root: Path, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    work = root / ".bench_work" / f"{name}-seed{seed}-trace{trace}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    # Set-up is timed before and after the measurement: the host slows down
    # in phases of several seconds, and two samples half a minute apart
    # steady the median.
    def set_up(where: str) -> dict:
        return run_child(["setup", "--workload", name, "--seed", str(seed), "--work", str(work / where)],
                         root, deadline)

    try:
        before = set_up("before")
        measured = run_child(["measure", "--workload", name, "--seed", str(seed), "--work", str(work),
                              "--inputs", str(work / "before" / "setup0"), "--seconds", str(seconds),
                              "--trace", str(trace)], root, deadline)
        after = set_up("after")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup_times = before["setup_s"] + after["setup_s"]
    setup_digests = before["digests"] + after["digests"]

    failures = list(measured["failures"])
    attempted = measured["attempted"] + 1  # plus: the set-ups agree byte for byte
    if len(set(setup_digests)) != 1:
        failures.append("set-up repetitions produced different inputs")
    reps = measured["reps"]
    first, second = metrics.STAGE_ROLES[name]
    untraced = [r for r in reps if not r["trace"]]
    stage_medians = {
        stage: {k: metrics.median(r["stages"][stage][k] for r in untraced) for k in ("wall", "cpu")}
        for stage in reps[0]["stages"]
    }
    if trace:
        values, failed_counts = traced_values(reps)
        attempted += 1  # the traced counts agree across repetitions
        if failed_counts:
            failures.append("traced counts differ between repetitions: " + ", ".join(failed_counts[:5]))
        units = {n: u for n, u, _ in metrics.per_layer_spec()}
    else:
        values = {
            "setup_s": metrics.median(setup_times),
            "wall_s": metrics.median(r["wall"] for r in untraced),
            "first_stage_s": stage_medians[first]["wall"],
            "second_stage_s": stage_medians[second]["wall"],
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        units = {n: u for n, u, _, _ in metrics.END_TO_END}
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
        "stages": stage_medians,
        "repetitions": len(reps),
        "rep_wall_s": [r["wall"] for r in reps],
        "setup_s": setup_times,
        "input_digest": setup_digests[0],
        "artifact_digest": measured["warmup"]["digest"],
        "trace_spans": reps[-1]["trace"] if trace else None,
        "environment": environment(measured["versions"], seed),
    }


def traced_values(reps: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer values: medians of times over traced repetitions; counts must
    agree. The first timed repetition is untraced: the overhead baseline."""
    traced = [r for r in reps if r["trace"]]
    per_rep = [metrics.layer_values(r["trace"], r["stages"]) for r in traced]
    values, unequal = {}, []
    for name, unit, _ in metrics.per_layer_spec():
        if name == metrics.OVERHEAD:
            values[name] = metrics.median(r["wall"] for r in traced) - reps[0]["wall"]
            continue
        column = [v[name] for v in per_rep]
        if metrics.deterministic(unit):
            if len(set(column)) != 1:
                unequal.append(name)
            values[name] = column[0]
        else:
            values[name] = metrics.median(column)
    return values, unequal


def print_report(result: dict) -> None:
    name = result["workload"]
    print(f"== {name} (seed {result['seed']}, trace {result['trace']}, {result['repetitions']} repetitions)")
    print("   env " + json.dumps(result["environment"], sort_keys=True))
    for metric, entry in result["metrics"].items():
        print(f"   {metric:<48} {entry['value']:>14.6g} {entry['unit']}")
    if result["trace"]:
        spans = result["trace_spans"]["spans"]
        print("   largest self times (last traced repetition): " + ", ".join(
            f"{n} {s['self_s']:.3g} s" for n, s in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])[:5]))
    else:
        for stage, t in result["stages"].items():
            print(f"   {'stage ' + stage + '.wall_s':<48} {t['wall']:>14.6g} s")
    print(f"   operations attempted {result['attempted']}, failed {result['failed']}")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")
    print(f"   artifact digest {result['artifact_digest']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "amprl" / "__init__.py").is_file():
        print(f"error: {root} is not an amprl checkout (no src/amprl); run from the repository root", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + CHILD_TIMEOUT_S * len(names)
    try:
        results = [run_workload(n, root, args.seed, args.seconds, args.trace, deadline) for n in names]
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    out_dir = root / ".bench_work" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    for result in results:
        print_report(result)
        path = out_dir / f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, sort_keys=True, indent=2) + "\n", encoding="utf-8")

    if len(results) == 1:
        merged = results[0]["metrics"]
    else:
        merged = {f"{r['workload']}.{n}": e for r in results for n, e in r["metrics"].items()}
    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": merged,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
