#!/usr/bin/env python3
"""Benchmark for urwidth: seeded closed-loop workloads, end to end and per layer.

    python3 perfbench/run.py --workload cover_search --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout; the package is imported from ``src/``.
One workload runs as one client in one process: it executes whole rounds
of its seeded operation list, one operation at a time, until ``--seconds``
have passed.  Every operation builds its own space and problem and checks
its own output.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one fixed
pass of the operation list untraced and then traced, and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
fuller record (run environment, tail percentile, failures) goes to
``perfbench/out/``.  ``--workload all`` runs every workload, each in its
own process, and prints one table.
"""

from __future__ import annotations

import os
import sys

# pinned before numpy loads; child processes inherit them
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostref  # noqa: E402
import layertrace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("cover_search", "certify", "shatter", "stream")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


def import_program():
    """Import urwidth from this checkout's ``src/``; exit non-zero if it is absent."""
    if not (SRC / "urwidth" / "__init__.py").is_file():
        sys.exit(f"perfbench: no urwidth package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import urwidth

    if Path(urwidth.__file__).resolve().parent != (SRC / "urwidth").resolve():
        sys.exit(f"perfbench: urwidth imported from {urwidth.__file__}, not from {SRC}")
    return urwidth


def setup_probe(workload: str, seed: int) -> None:
    """Child side of the set-up measurement: import, build the op list, report."""
    import networkx  # noqa: F401
    import numpy  # noqa: F401

    import_program()
    import workloads

    workloads.make_rounds(workload, seed)
    print("ready", flush=True)


def measure_setup(workload: str, seed: int):
    """Wall time from starting a fresh interpreter to its first possible
    operation: once as a warm-up that fills bytecode caches, then
    ``SETUP_SAMPLES`` times with a reference burst after each."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]

    def probe() -> float:
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        if line != "ready" or code != 0:
            sys.exit(f"perfbench: set-up probe failed (exit {code}, said {line!r})")
        return t1 - t0

    probe()
    meter = hostref.Meter(every_s=0.0)
    for _ in range(SETUP_SAMPLES):
        meter.record(probe())
    return meter


def attempt(workloads, op, tracer, index: int) -> tuple[list[str], float]:
    """Execute and check one operation; returns (violations, seconds)."""
    t0 = time.perf_counter()
    tracer.begin_op(index)
    try:
        bad = workloads.check(op, workloads.execute(op, tracer))
    except Exception as exc:  # an operation that raises counts as failed
        bad = [f"raised {type(exc).__name__}: {exc}"]
    finally:
        tracer.end_op()
    return bad, time.perf_counter() - t0


def run_ops(workloads, ops, tracer, meter, failed: list, failures: list) -> None:
    for op in ops:
        bad, dt = attempt(workloads, op, tracer, len(failed))
        meter.record(dt)
        failed.append(bool(bad))
        if bad:
            failures.append({"op": op.kind, "params": op.params, "violations": bad})


def percentile(xs: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of a nonempty list."""
    s = sorted(xs)
    pos = q / 100 * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    if math.isinf(s[hi]):
        return s[hi] if pos > lo else s[lo]
    return s[lo] + (pos - lo) * (s[hi] - s[lo])


def timed_run(workloads, rounds, seconds: float) -> dict:
    """Closed loop over whole rounds until ``seconds`` of wall time have passed."""
    meter, failed, failures = hostref.Meter(), [], []
    tracer = layertrace.NullTracer()
    start = time.perf_counter()
    r = 0
    while True:
        run_ops(workloads, rounds[r % len(rounds)], tracer, meter, failed, failures)
        r += 1
        if time.perf_counter() - start >= seconds:
            break
    meter.finish()
    return {"meter": meter, "failed": failed, "failures": failures, "rounds": r,
            "wall_s": time.perf_counter() - start}


def latency_metrics(times: list[float], failed: list[bool], tail_q: int) -> dict:
    """Throughput and latency percentiles of one closed-loop client."""
    busy = sum(times)
    # a failed operation misses every latency limit; past the run it reads as the run
    lat = [math.inf if f else t for t, f in zip(times, failed)]

    def finite(x):
        return busy if math.isinf(x) else x

    return {
        "ops_per_s": (failed.count(False) / busy, "1/s"),
        "op_p50_s": (finite(percentile(lat, 50)), "s"),
        "op_tail_s": (finite(percentile(lat, tail_q)), "s"),
    }


def end_to_end(run: dict, setup, tail_q: int) -> tuple[dict, dict]:
    """Host-adjusted end-to-end metrics, and the same timings as raw wall time."""
    meter, failed = run["meter"], run["failed"]
    metrics = latency_metrics(meter.adjusted, failed, tail_q)
    metrics["ok_ratio"] = (failed.count(False) / len(failed), "ratio")
    metrics["setup_s"] = (statistics.median(setup.adjusted), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    raw = latency_metrics(meter.raw, failed, tail_q)
    raw["setup_s"] = (statistics.median(setup.raw), "s")
    return metrics, raw


def traced_pass(workloads, rounds, spans_path: Path) -> tuple[dict, dict]:
    """One fixed pass untraced, then the same pass traced; per-layer metrics.

    Layer times are rescaled by the traced pass's host factor, like the
    end-to-end times."""
    ops = [op for rnd in rounds for op in rnd]
    failed, failures = [], []
    untraced = hostref.Meter()
    run_ops(workloads, ops, layertrace.NullTracer(), untraced, failed, failures)
    untraced.finish()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        traced = hostref.Meter()
        run_ops(workloads, ops, tracer, traced, failed, failures)
        traced.finish()
    finally:
        tracer.restore()
    tracer.write_spans(spans_path)
    factor = traced.factor
    metrics = {k: (v * factor if u == "s" else v, u) for k, (v, u) in tracer.layer_metrics().items()}
    metrics["trace.overhead_ratio"] = (sum(untraced.adjusted) / sum(traced.adjusted), "ratio")
    run = {"failed": failed, "failures": failures, "pass_ops": len(ops),
           "untraced_s": sum(untraced.raw), "traced_s": sum(traced.raw),
           "host_factor": factor, "wrap_points": tracer.wrap_points}
    return metrics, run


def git_head() -> str:
    git = ROOT / ".git"
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
    return "unknown (not a git checkout)"


def environment(workload: str, seed: int) -> dict:
    import networkx
    import numpy

    why = None
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        why = next((w["why"] for w in bench["workloads"] if w["name"] == workload), None)
    except (OSError, ValueError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_head": git_head(),
        "seed": seed,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "workload": workload,
        "why": why,
    }


def run_workload(args) -> int:
    import_program()
    setup = None if args.trace else measure_setup(args.workload, args.seed)
    import workloads

    rounds = workloads.make_rounds(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tail_q = workloads.TAIL_PERCENTILE[args.workload]
    if args.trace:
        metrics, run = traced_pass(workloads, rounds, OUT / f"{stem}-spans.json")
        extra = {}
    else:
        run = timed_run(workloads, rounds, args.seconds)
        metrics, raw = end_to_end(run, setup, tail_q)
        meter = run.pop("meter")
        lat = meter.adjusted
        extra = {
            "raw_wall": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
            "host_factor": meter.factor,
            "reference_bursts_s": meter.bursts,
            "setup_samples_s": {"raw": setup.raw, "adjusted": setup.adjusted},
            "tail": {"percentile": tail_q, "samples": len(lat),
                     "beyond": sum(1 for x in lat if x > metrics["op_tail_s"][0])},
        }
    failed = run.pop("failed")
    attempted, n_failed = len(failed), len(run["failures"])
    record = {
        "environment": environment(args.workload, args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": n_failed,
        "fail_ratio": n_failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
        **run,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} python={env['python']} numpy={env['numpy']} "
          f"networkx={env['networkx']} nproc={env['nproc']} head={env['git_head'][:12]} "
          f"blas_threads=1")
    for f in run["failures"][:5]:
        print(f"# FAILED {f['op']} {json.dumps(f['params'])}: {'; '.join(f['violations'])}")
    print(f"# attempted={attempted} failed={n_failed} fail_ratio={n_failed / attempted:g}")
    if args.trace:
        print(f"# one pass of {run['pass_ops']} ops untraced then traced; host factor {run['host_factor']:.3f}")
    else:
        t = extra["tail"]
        print(f"# op_tail_s is p{t['percentile']} of {t['samples']} ops ({t['beyond']} beyond); "
              f"{run['rounds']} rounds in {run['wall_s']:.2f} s wall; host factor {extra['host_factor']:.3f}")
        print("# raw wall: " + " ".join(f"{k}={v:.6g}" for k, (v, _) in raw.items()))
    for k, (v, u) in metrics.items():
        print(f"{k:<28} {v:>14.6g} {u}")
    result = {
        "correct": n_failed == 0,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one table at the end."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S + 60)
        if proc.returncode != 0:
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"== {name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} fail_ratio={res['failed'] / res['attempted']:g}")
        for k, m in res["metrics"].items():
            print(f"   {k:<28} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
