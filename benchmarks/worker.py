"""Child process of the benchmark: `setup` builds a workload's inputs,
`measure` runs its stages in-process through ``amprl.cli.main``.

Both print one JSON object as their last stdout line. run.py starts this
file with the checkout's ``src`` on PYTHONPATH and one BLAS thread.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import importlib
import pkgutil
import resource
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CLUSTERS_FILE, WORKLOADS, CheckFailed, write_clusters  # noqa: E402

MIN_TIMED_REPS = 3
SETUP_REPEATS = 8  # set-ups timed per set-up process; run.py starts two
MANIFEST = "run_manifest.json"  # holds timestamps, so it is left out of the digest


def digest(directory: Path) -> str:
    """sha256 over the relative path and bytes of every artifact but the manifest."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file() and p.name != MANIFEST):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def import_package() -> dict:
    """Load every amprl module up front, so no repetition pays for imports,
    and describe the versions that were loaded."""
    import numpy

    package = importlib.import_module("amprl")
    if not Path(package.__file__).resolve().is_relative_to((Path.cwd() / "src").resolve()):
        raise SystemExit(f"amprl was imported from {package.__file__}, outside this checkout's src/")
    for info in pkgutil.walk_packages(package.__path__, "amprl."):
        importlib.import_module(info.name)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "amprl_version": package.__version__}


def cmd_setup(args) -> dict:
    workload = WORKLOADS[args.workload]
    import_package()
    times, digests = [], []
    for k in range(SETUP_REPEATS):
        target = Path(args.work) / f"setup{k}"
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        start = time.perf_counter()
        workload.setup(target, args.seed)
        times.append(time.perf_counter() - start)
        digests.append(digest(target))
    return {"setup_s": times, "digests": digests}


class Operations:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def run_stages(workload, inputs: Path, rep: Path, ops: Operations) -> dict:
    from amprl.cli import main

    times = {}
    for stage in workload.stages:
        argv = stage.argv(inputs, rep)
        sink = io.StringIO()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(sink):
            code = main(argv)
        times[stage.name] = {"wall": time.perf_counter() - wall0, "cpu": time.process_time() - cpu0}
        ops.record(code == 0, f"stage {stage.name} exited {code}")
    return times


def capture_clusters(path: Path):
    """Write greedy_cluster's result to `path` for the cluster check; returns the undo."""
    import amprl.dataprep as dp

    original = dp.greedy_cluster

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        write_clusters(path, result)
        return result

    dp.greedy_cluster = recording
    return lambda: setattr(dp, "greedy_cluster", original)


def run_checks(workload, inputs: Path, rep: Path, ops: Operations) -> None:
    for name, check in workload.checks:
        try:
            check(inputs, rep)
        except (CheckFailed, OSError, ValueError, KeyError, ArithmeticError) as err:
            ops.record(False, f"check {name}: {err}")
        else:
            ops.record(True, name)


def cmd_measure(args) -> dict:
    workload = WORKLOADS[args.workload]
    versions = import_package()
    inputs = Path(args.inputs)
    work = Path(args.work)
    ops = Operations()
    reps: list[dict] = []
    start = None
    while True:
        index = len(reps)
        rep_dir = work / f"rep{index}"
        shutil.rmtree(rep_dir, ignore_errors=True)
        # Repetition 0 warms up (allocator, caches) and is not timed; in a
        # traced run, repetition 1 is the untraced baseline for the overhead.
        tracer = Tracer() if args.trace and index > 1 else None
        restore = capture_clusters(work / CLUSTERS_FILE) if index == 0 else None
        if tracer:
            tracer.install()
        wall0 = time.perf_counter()
        try:
            stages = run_stages(workload, inputs, rep_dir, ops)
        finally:
            wall = time.perf_counter() - wall0
            if tracer:
                tracer.uninstall()
            if restore:
                restore()
        reps.append({"wall": wall, "stages": stages, "digest": digest(rep_dir), "trace": tracer.snapshot() if tracer else None})
        if index == 0:
            start = time.perf_counter()
            continue
        shutil.rmtree(rep_dir)
        ops.record(reps[-1]["digest"] == reps[0]["digest"], f"repetition {index} artifacts differ from repetition 0")
        timed = reps[1:]
        typical = metrics.median(r["wall"] for r in timed)
        if len(timed) >= MIN_TIMED_REPS and time.perf_counter() - start + typical > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    run_checks(workload, inputs, work / "rep0", ops)
    return {
        "versions": versions,
        "warmup": reps[0],
        "reps": reps[1:],
        "peak_rss_mb": peak_rss_mb,
        "attempted": ops.attempted,
        "failures": ops.failures,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("command", choices=("setup", "measure"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="directory for this run's files")
    parser.add_argument("--inputs", help="set-up output that measure runs on")
    parser.add_argument("--seconds", type=float, default=0.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = cmd_setup(args) if args.command == "setup" else cmd_measure(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
