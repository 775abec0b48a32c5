#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

Run from the root of a source checkout:

    python3 perfbench/smoke.py

It checks that every metric BENCHMARK.json names appears, with its unit,
in the output of both run modes; that no op fails on the default seed or
on a second seed; that a wrong expected counter injected into each kind of
check is caught; and that the benchmark exits non-zero, printing no
result, where there are no jordanquad sources.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SEEDS = (1, 2)

problems = []


def expect(ok, message):
    if not ok:
        problems.append(message)
        print(f"FAIL: {message}", flush=True)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def check_outputs(spec):
    for workload in [w["name"] for w in spec["workloads"]]:
        for seed, trace in [(s, 0) for s in SEEDS] + [(SEEDS[0], 1)]:
            tag = f"{workload} seed={seed} trace={trace}"
            proc = run(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                        "--trace", str(trace), "--tiny"])
            expect(proc.returncode == 0, f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
            if proc.returncode:
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            summary = json.loads(lines[-2])["summary"]
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{tag}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and summary["fail_frac"] == 0,
                   f"{tag}: {result['failed']} of {result['attempted']} ops failed")
            wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{tag}: metrics differ from BENCHMARK.json: "
                                  f"missing {sorted(set(wanted) - set(got))}, "
                                  f"extra {sorted(set(got) - set(wanted))}, "
                                  f"units {[k for k in wanted if got.get(k, wanted[k]) != wanted[k]]}")
            print(f"ok: {tag}", flush=True)


def check_injection():
    """A correct result passes its check; the same result against a wrong
    expected counter does not."""
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from workloads import WORKLOADS

    for workload, (generate, build) in WORKLOADS.items():
        ops = build(generate(SEEDS[0], tiny=True))
        for kind in sorted({op.kind for op in ops}):
            op = next(o for o in ops if o.kind == kind)
            result = op.run()
            expect(op.check(result) == [], f"{workload}/{kind}: correct result rejected")
            for key, value in list(op.expect.items()):
                op.expect[key] = value + 1
                expect(op.check(result) != [],
                       f"{workload}/{kind}: wrong expected {key}={value + 1} not caught")
                op.expect[key] = value
        print(f"ok: injected counters caught on {workload}", flush=True)


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: no sources, so no result."""
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if name.endswith((".py", ".md")):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    proc = run(["--workload", "fp-sampled", "--seed", "1", "--seconds", "1", "--trace", "0"],
               cwd=bare)
    expect(proc.returncode != 0, "bare directory: exit code 0")
    expect('"correct"' not in proc.stdout, "bare directory: printed a result")
    shutil.rmtree(bare)
    print("ok: bare directory refused", flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_outputs(spec)
    check_injection()
    check_bare_directory()
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
