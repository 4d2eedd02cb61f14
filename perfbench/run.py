#!/usr/bin/env python3
"""Benchmark of the cantorshift pipeline: certified tree, coding, chi.

Run from the repository root:

    python3 perfbench/run.py --workload quad-d10 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One workload runs in one process and one thread against the sources in
``src/``.  Set-up (imports, map and disk parsing, seeded input generation)
is timed apart from the measured work; iterations repeat until
``--seconds`` have been measured (at least one).  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` wraps the
library's entry points and reports the per-layer metrics instead.
``--workload all`` runs every workload untraced and traced, each in a
fresh process, and prints a summary with the tracing overhead.  The last
line of output is always the JSON result.  See README.md beside this file
for the workloads, the metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# the import time of a fresh interpreter, printed by a child process
IMPORT_PROBE = ("import sys, time; sys.path[:0] = [{src!r}, {here!r}]; "
                "t = time.perf_counter(); import workloads; "
                "print(time.perf_counter() - t)")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _median(values):
    m = statistics.median(values)
    return int(m) if all(isinstance(v, int) for v in values) and m == int(m) else m


def _stage_clock(seconds, tracer):
    @contextmanager
    def stage(name):
        t0 = time.perf_counter()
        with tracer.span(f"stage.{name}") if tracer else nullcontext():
            try:
                yield
            finally:
                seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - t0
    return stage


def _fact_metrics(facts, attempts):
    m = {f"tree.cells.L{k}": 0 for k in range(11)}
    m["tree.finest_resolution"] = 0
    m["tree.certify_success_ratio"] = 0.0
    tree = facts.get("tree")
    if tree is not None:
        for k, comps in enumerate(tree.levels):
            m[f"tree.cells.L{k}"] = sum(len(c.cover) for c in comps)
        m["tree.finest_resolution"] = max(tree.level_resolution(k)
                                          for k in range(tree.depth + 1))
        if attempts:
            m["tree.certify_success_ratio"] = tree.depth / attempts
    sizes = facts.get("json_bytes", (0, 0, 0))
    m["tree.json_bytes"], m["coding.json_bytes"], m["render.svg_bytes"] = sizes
    cert = facts.get("chi_certified", [])
    m["coding.chi.certified_frac"] = sum(cert) / len(cert) if cert else 0.0
    m["oracle.cases_failed"] = facts.get("cases_failed", 0)
    return m


def run_one(args, spec) -> int:
    if not (SRC / "cantorshift" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    probe = IMPORT_PROBE.format(src=str(SRC), here=str(HERE))
    import_s = statistics.median(
        float(subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, check=True, timeout=120).stdout)
        for _ in range(SETUP_REPEATS))
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import workloads
    if not Path(workloads.coding.__file__).resolve().is_relative_to(SRC):
        print("error: cantorshift was not imported from src/", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    prep = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inp = wl.prepare(args.seed)
        prep.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(prep)
    generated = {k: v for k, v in inp.items() if isinstance(v, list)}
    inputs_sha = hashlib.sha256(repr(sorted(generated.items())).encode()).hexdigest()

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    out = workloads.Outcome()
    rows = []
    start = time.perf_counter()
    while True:
        seconds = {}
        if tracer:
            tracer.reset()
        try:
            facts = wl.iterate(inp, _stage_clock(seconds, tracer), out)
        except Exception as exc:  # an unchecked library error still yields a result
            out.op("iteration", [repr(exc)])
            facts = {}
        row = {f"{k}_s": v for k, v in seconds.items()}
        row["wall_s"] = sum(seconds.values())
        if tracer:
            layers = tracing.layer_metrics(tracer)
            row.update(layers)
            row.update(_fact_metrics(facts, layers["tree.certify_attempts"]))
        rows.append(row)
        facts = None  # drop the previous tree before the next build
        if time.perf_counter() - start >= args.seconds:
            break
    if tracer:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(rows)
    med = {k: _median([r[k] for r in rows if k in r]) for k in rows[0]}

    print(f"cantorshift benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"env: python={platform.python_version()} numpy={numpy.__version__} "
          f"scipy={scipy.__version__} nproc={os.cpu_count()} "
          f"machine={platform.machine()}")
    print(f"inputs sha256={inputs_sha}")
    print(f"setup_s = {setup_s:.4f} s (median of {SETUP_REPEATS} fresh-interpreter "
          f"imports, {import_s:.4f} s, + median of {SETUP_REPEATS} input preparations)")
    for k, v in med.items():
        if k.endswith("_s") and "." not in k:
            print(f"{k} = {v:.4f} s (median of {n} iteration(s))")
    if "cases_s" in med:
        n_cases = len(inp["cases"])
        print(f"cases_per_s = {n_cases / med['cases_s']:.2f} 1/s "
              f"({n_cases} cases, median of {n})")
    print(f"peak_rss_mb = {peak_rss_mb:.1f} MB (this process)")
    print(f"failed_frac = {out.failed}/{out.attempted} = "
          f"{out.failed / max(out.attempted, 1):.6f}")
    for msg in out.failures[:20]:
        print(f"FAILED {msg}")

    if tracer:
        med["trace.wall_s"] = med["wall_s"]
        ref = workloads.REFERENCE[args.workload]["counters"]
        drift = [k for k, v in ref.items() if any(r[k] != v for r in rows)]
        med["selfcheck.counter_drift"] = len(drift)
        for k in drift:
            print(f"COUNTER DRIFT {k}: {[r[k] for r in rows]}, reference {ref[k]}")
        if med["tree.build_tree.calls"]:
            print(f"build span {med['tree.build_tree.s']:.4f} s = children "
                  f"{med['tree.build_tree.s'] - med['tree.self_s']:.4f} s "
                  f"+ tree.self_s {med['tree.self_s']:.4f} s")
        for parent, name, calls, secs in tracer.breakdown()[:30]:
            print(f"  {parent or '-'} > {name}: {calls} calls, {secs:.4f} s")
        wanted = spec["per_layer"]
        values = med
    else:
        wanted = spec["end_to_end"]
        values = {"setup_s": setup_s, "wall_s": med["wall_s"], "peak_rss_mb": peak_rss_mb}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": out.failed == 0, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


def run_all(args, spec) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    results = {}
    for wl in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl["name"],
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"error: {wl['name']} trace={trace} exited {proc.returncode}",
                      file=sys.stderr)
                return 1
            results[(wl["name"], trace)] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("\nsummary (untraced end-to-end metrics; overhead = traced wall_s - wall_s)")
    attempted = failed = 0
    for wl in spec["workloads"]:
        plain, traced = results[(wl["name"], 0)], results[(wl["name"], 1)]
        attempted += plain["attempted"] + traced["attempted"]
        failed += plain["failed"] + traced["failed"]
        cells = [f"{k} {v['value']:.4f} {v['unit']}" for k, v in plain["metrics"].items()]
        overhead = traced["metrics"]["trace.wall_s"]["value"] - plain["metrics"]["wall_s"]["value"]
        print(f"  {wl['name']}: " + ", ".join(cells)
              + f", tracing overhead {overhead:.4f} s")
    print(f"failed_frac = {failed}/{attempted} = {failed / max(attempted, 1):.6f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {}}))
    return 0


def main(argv=None) -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return (run_all if args.workload == "all" else run_one)(args, spec)


if __name__ == "__main__":
    sys.exit(main())
