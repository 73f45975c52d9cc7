"""Benchmark runner for orbitforge: one workload, in this one process.

    python3 perfbench/run.py --workload verify_suite --seed 1 --seconds 38 --trace 0

The workload's inputs come from ``--seed``.  Set-up (import, input generation
and one warm-up certificate) is timed; input generation and warm-up are
repeated and their median added to the import time.  Then the workload's
certificate list runs in whole passes while another pass still fits in
``--seconds``.  Every certificate passes a correctness gate and must replay
to the same measured values every time it runs.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones, from untraced passes.  With ``--trace 1`` untraced and
traced passes alternate; the metrics are the per-layer ones from the traced
passes (per pass) and the tracing overhead.  The line before it is a JSON
record with the environment, the replay digest, the failed ratio and the
pass times.  The exit code is 1 when any certificate failed, 2 when
orbitforge cannot be imported from ``src/`` beside this directory.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPEATS = 7


def _digest(values):
    """Hash of a certificate's measured values; floats hash by exact repr."""
    import numpy as np

    h = hashlib.sha256()
    for v in values:
        if isinstance(v, np.ndarray):
            h.update(f"{v.dtype.str}{v.shape}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        else:
            h.update(repr(v).encode())
        h.update(b"|")
    return h.hexdigest()


class Tally:
    """Certificate times and failures of one mode (set-up, untraced, traced)."""

    def __init__(self, digests):
        self.times = {}
        self.digests = digests  # shared by all modes: tracing must not change results
        self.attempted = 0
        self.failed = 0
        self.pass_s = []

    def medians(self):
        return {name: statistics.median(t) for name, t in self.times.items()}


def run_cert(cert, clock, tally):
    """Time one certificate, gate it, check it replays; its values or None."""
    tally.attempted += 1
    start = clock()
    try:
        result = cert.run()
        elapsed = clock() - start
        passed, values = cert.check(result)
    except Exception:
        traceback.print_exc()
        passed = False
    if passed:
        digest = _digest(values)
        if tally.digests.setdefault(cert.name, digest) != digest:
            print(f"{cert.name}: measured values differ from its first run", file=sys.stderr)
            passed = False
    if not passed:
        print(f"{cert.name}: FAILED", file=sys.stderr)
        tally.failed += 1
        return None
    tally.times.setdefault(cert.name, []).append(elapsed)
    return values


def run_pass(workload, clock, tally):
    start = clock()
    values = {cert.name: run_cert(cert, clock, tally) for cert in workload.certs}
    tally.pass_s.append(clock() - start)
    if all(v is not None for v in values.values()):
        tally.attempted += 1
        problems = workload.check_pass(values)
        for problem in problems:
            print(f"pass check: {problem}", file=sys.stderr)
        tally.failed += bool(problems)


def cert_groups(medians):
    """Median times summed by certificate kind ("007_radius_8x8" -> "radius_8x8")."""
    groups = {}
    for name, t in medians.items():
        key = name.split("_", 1)[1] if name[:1].isdigit() else name
        groups[key] = groups.get(key, 0.0) + t
    return groups


# -- environment --------------------------------------------------------------


def blas_threads(np):
    """OpenBLAS thread count, or None when the library cannot be queried."""
    import ctypes

    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha():
    """HEAD of the checkout, or None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_sha": git_sha(),
        "seed": seed,
    }


# -- the run ------------------------------------------------------------------


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def measure(workload, seconds, tracer, plain, traced):
    """Whole passes while the next one fits; traced passes alternate with
    untraced ones when a tracer is given.  Returns CPU seconds per untraced pass."""
    cpu_s = 0.0
    start = time.perf_counter()
    while True:
        if tracer is not None and len(traced.pass_s) < len(plain.pass_s):
            t = time.perf_counter()
            tracer.install()
            try:
                run_pass(workload, tracer.now, traced)
            finally:
                tracer.uninstall()
            last_s = time.perf_counter() - t
        else:
            cpu = time.process_time()
            run_pass(workload, time.perf_counter, plain)
            cpu_s += time.process_time() - cpu
            last_s = plain.pass_s[-1]
        if tracer is not None and not traced.pass_s:
            continue
        if time.perf_counter() - start + last_s > seconds:
            return cpu_s / len(plain.pass_s)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "orbitforge" / "__init__.py").is_file():
        print(f"perfbench: no orbitforge sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import orbitforge
    import workloads

    import_s = time.perf_counter() - start
    if not Path(orbitforge.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported orbitforge from {orbitforge.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")

    digests = {}
    warm, plain, traced = Tally(digests), Tally(digests), Tally(digests)
    setup_repeats_s = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](args.seed)
        run_cert(workload.warmup, time.perf_counter, warm)
        setup_repeats_s.append(time.perf_counter() - t)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(orbitforge)
    cpu_s = measure(workload, args.seconds, tracer, plain, traced)

    attempted = warm.attempted + plain.attempted + traced.attempted
    failed = warm.failed + plain.failed + traced.failed
    medians = plain.medians()
    wall_s = sum(medians.values())
    if tracer is None:
        metrics = {
            "setup_s": import_s + statistics.median(setup_repeats_s),
            "wall_s": wall_s,
            "slowest_cert_s": max(medians.values(), default=0.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"peak_rss_mb": "MB"}
    else:
        traced_wall_s = sum(traced.medians().values())
        metrics = tracer.layer_metrics(len(traced.pass_s))
        metrics["process.cpu_s"] = cpu_s
        metrics["trace.wall_s"] = traced_wall_s
        metrics["trace.overhead_s"] = traced_wall_s - wall_s
        units = {}

    replay = hashlib.sha256("".join(digests.get(c.name, "-") for c in workload.certs).encode())
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "replay_digest": replay.hexdigest(),
        "failed_ratio": failed / attempted,
        "import_s": import_s,
        "setup_repeats_s": setup_repeats_s,
        "pass_s": plain.pass_s,
        "traced_pass_s": traced.pass_s,
        "slowest_cert": max(medians, key=medians.get, default=None),
        "cert_group_s": cert_groups(medians),
        "untraced_layers": tracer.missing if tracer is not None else [],
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, _unit(name))}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
