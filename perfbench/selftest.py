#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py        # about six minutes

All three tests run, at the fixed seed ``SEED``.

1. Output checks: for one operation of every kind, the honest output
   passes its check, and a corrupted output (a covering with one support
   removed, a certificate with one support point removed, an off-by-one
   Betti or VC value, a replay log missing its last step, an impossible
   coverage time, a broken success count) makes the operation count as
   failed in the benchmark loop, as does an operation that raises.
2. Wrap points: installing and restoring the tracer leaves every patched
   name of the package bound to its original object.
3. Counts: two traced runs of each workload at one seed, in separate
   processes, report identical count metrics.

Exits 0 when every test passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
SEED = 7


def _corruptions() -> dict:
    def cover(out):
        out["covering"].triples.pop(0)

    def bracket(out):
        doc = json.loads(out["text"])
        doc["ub"]["covering"]["triples"][0]["support"].pop()
        out["text"] = json.dumps(doc)

    def nerve(out):
        b0, b1 = out["betti"]
        out["betti"] = (b0, b1 + 1)

    def vc(out):
        out["vc"] += 1

    def episode(out):
        out["replay"].log.pop()

    def coupon(out):
        out["times"][0] = 1

    def permutation(out):
        out["result"].successes += 1

    return {"cover": cover, "bracket": bracket, "nerve": nerve, "intervals": vc,
            "patchwise": vc, "episode": episode, "coupon": coupon, "permutation": permutation}


def test_output_checks(workloads, seed: int) -> list[str]:
    errors = []
    corrupt = _corruptions()
    samples = {}
    for name in run.WORKLOAD_NAMES:
        for op in workloads.make_rounds(name, seed)[0]:
            samples.setdefault(op.kind, op)
    if set(samples) != set(corrupt):
        errors.append(f"kinds without a corruption test: {set(samples) ^ set(corrupt)}")
    null = run.layertrace.NullTracer()
    for kind, op in sorted(samples.items()):
        honest = workloads.check(op, workloads.execute(op, null))
        if honest:
            errors.append(f"{kind}: honest output rejected: {honest}")

        def execute(op, tracer, _kind=kind):
            out = workloads.execute(op, tracer)
            corrupt[_kind](out)
            return out

        shim = types.SimpleNamespace(execute=execute, check=workloads.check)
        failed, failures = [], []
        run.run_ops(shim, [op], null, run.hostref.Meter(), failed, failures)
        if failed != [True]:
            errors.append(f"{kind}: corrupted output was not counted as failed")
        else:
            print(f"  {kind}: corruption caught: {failures[0]['violations'][0][:90]}")

    def raises(op, tracer):
        raise RuntimeError("injected")

    failed = []
    shim = types.SimpleNamespace(execute=raises, check=workloads.check)
    run.run_ops(shim, [samples["cover"]], null, run.hostref.Meter(), failed, [])
    if failed != [True]:
        errors.append("an operation that raises was not counted as failed")
    return errors


def test_restore() -> list[str]:
    import urwidth
    from urwidth import problems, spaces

    owners = [urwidth] + [sys.modules[f"urwidth.{m}"] for m in run.layertrace.LAYERS]
    owners += [c for c in vars(spaces).values() if isinstance(c, type)] + [problems.MarginProblem]
    before = [dict(vars(o)) for o in owners]
    tracer = run.layertrace.Tracer()
    tracer.install()
    patched = len(tracer.wrap_points)
    tracer.restore()
    after = [dict(vars(o)) for o in owners]
    changed = [
        f"{getattr(o, '__name__', o)}.{k}"
        for o, b, a in zip(owners, before, after)
        for k in b.keys() | a.keys()
        if b.get(k) is not a.get(k)
    ]
    if patched < 50:
        return [f"only {patched} wrap points installed"]
    return [f"not restored: {changed[:5]}"] if changed else []


def _traced_counts(name: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--trace", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=run.CHILD_TIMEOUT_S,
                          check=True)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: m["value"] for k, m in res["metrics"].items() if m["unit"] in ("count", "bytes")}


def test_counts(seed: int) -> list[str]:
    errors = []
    named = ("spaces.dist_calls", "coverings.candidates", "vc.hypotheses",
             "machine.constructs", "sampling.draws")
    seen_nonzero = set()
    for name in run.WORKLOAD_NAMES:
        first, second = _traced_counts(name, seed), _traced_counts(name, seed)
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        if diff:
            errors.append(f"{name}: counts differ between two traced runs: {diff}")
        seen_nonzero |= {k for k in named if first.get(k)}
        print(f"  {name}: " + " ".join(f"{k}={first[k]}" for k in named))
    missing = set(named) - seen_nonzero
    if missing:
        errors.append(f"named counts never nonzero: {sorted(missing)}")
    return errors


def main() -> int:
    run.import_program()
    import workloads

    tests = [("output checks", lambda: test_output_checks(workloads, SEED)),
             ("wrap points restored", test_restore),
             ("counts repeat", lambda: test_counts(SEED))]
    failed = 0
    for title, fn in tests:
        print(f"{title}:")
        errors = fn()
        for e in errors:
            print(f"  FAIL {e}")
        print(f"{title}: {'FAIL' if errors else 'PASS'}")
        failed += bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
