"""Benchmark of the declassiflow pipeline over three generated workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads (see workloads.py):

- dataflow-large: segments(K) for K = 4, 6, 8, 10, 12, configured like
  `analyze --protect`; phase 1 (loop expansion and the edge fixpoint).
- refine-paths: segments(2), call chains of 4, 6 and 8 functions and
  `anticorrelated`, configured like `protect`; phase 2 (refinement).
- verify-corpus: 300 frozen random acyclic programs, the three analogs,
  `anticorrelated`, `nested_loops`, `hoistable_loop` and `two_latch`,
  configured like `verify`; the oracle.

Each run starts fresh single-threaded worker processes with PYTHONHASHSEED
pinned: four that only set up, then one that sets up, times passes over the
workload's programs for about S seconds (at least one pass) and checks the
first pass's outputs (checks.py). Every time is scaled to the host's
reference speed, measured alongside it (speed.py): the shared host runs
stretches of a run at down to half speed. A program's time is the median of
its scaled repetitions; wall_s is the sum of these times, prog_p50_s and
prog_tail_s their median and tail. Set-up is everything before the first
timed program: importing declassiflow and generating the workload; setup_s is
the median of the five. The unscaled times are printed beside them. The seed
orders the programs within a pass; the programs themselves are frozen. With
`--trace 1` the worker spends half the time untraced, then traces one pass at
every layer boundary (layers.py) and writes its spans to perfbench/out/.

Prints every metric by name and unit, the check results, a `detail` line and,
last, one JSON object: end-to-end metrics with `--trace 0`, per-layer metrics
with `--trace 1`. `correct` holds when the reports repeat byte for byte across
passes, no program raises and every failed check is a recorded one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HASH_SEED = "0"
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170

WORKLOADS = ("dataflow-large", "refine-paths", "verify-corpus")

# end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "prog_p50_s": "s",
    "prog_tail_s": "s",
    "peak_rss_mb": "MB",
    "run_ok_share": "ratio",
    "check_ok_share": "ratio",
    "barriers_static": "count",
    "barriers_dynamic": "count",
}


def _worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "declassiflow", "__init__.py")):
        print(f"error: no declassiflow sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from checks import KNOWN_FAILURES
    from layers import PER_LAYER

    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    try:
        setups = [_worker(common + ["--setup-only"], deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
        run_args = common + ["--trace", str(args.trace)]
        if args.trace:
            out_dir = os.path.join(HERE, "out")
            os.makedirs(out_dir, exist_ok=True)
            run_args += ["--spans", os.path.join(
                out_dir, f"spans-{args.workload}-{args.seed}.jsonl")]
        r = _worker(run_args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(r)

    programs = r["programs"]
    failures = r["check_failures"]
    known = KNOWN_FAILURES.get(args.workload, {})
    unexpected = {n: f for n, f in failures.items() if not set(f) <= set(known.get(n, []))}
    fixed = sorted(n for n in known if n not in failures)
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": r["wall_s"],
        "prog_p50_s": r["prog_p50_s"],
        "prog_tail_s": r["prog_tail_s"],
        "peak_rss_mb": r["peak_rss_mb"],
        "run_ok_share": 1 - r["failed"] / r["attempted"],
        "check_ok_share": 1 - len(failures) / programs,
        "barriers_static": r["barriers_static"],
        "barriers_dynamic": r["barriers_dynamic"],
    }
    correct = r["deterministic"] and r["failed"] == 0 and not unexpected

    print(f"workload {args.workload} ({r['command']}): {programs} programs, "
          f"{r['passes']} passes, seed {args.seed}, PYTHONHASHSEED={r['hash_seed']}")
    for name, unit in END_TO_END.items():
        print(f"  {name:<18} {values[name]:.6g} {unit}")
    print(f"  fail_share         {r['failed'] / r['attempted']:.6g} ratio "
          f"({r['failed']}/{r['attempted']} runs raised: {r['errors'] or 'none'})")
    print(f"  check_fail_share   {len(failures) / programs:.6g} ratio "
          f"({len(failures)}/{programs} programs)")
    print(f"  prog_tail_s is p{r['prog_tail_percentile']:.4g} of {programs} "
          f"per-program times, {r['prog_tail_beyond']} samples beyond it")
    print(f"  unscaled: setup {statistics.median(s['setup_raw_s'] for s in setups):.6g} s, "
          f"pass wall {statistics.median(r['wall_s_passes']):.6g} s (medians); host speed "
          f"{min(r['host_speed']):.3g}..{max(r['host_speed']):.3g} of the reference")
    for name, failed in failures.items():
        tag = "recorded" if name not in unexpected else "NEW"
        print(f"  check failed: {name}: {', '.join(failed)} ({tag})")
    if fixed:
        print(f"  recorded failures that now pass: {', '.join(fixed)}")
    print(f"  reports sha256 (timing removed) {r['report_sha256']}, "
          f"repeat across passes: {r['deterministic']}")
    print(f"  frozen inputs vs tests/: {r['frozen_inputs']}")

    if args.trace:
        metrics = {name: {"value": r["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        for name, m in metrics.items():
            print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
        if r["absent"]:
            print(f"  absent (not traced): {', '.join(r['absent'])}")
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    detail = {k: v for k, v in r.items() if k != "layers"}
    detail.update(setup_samples_s=[s["setup_s"] for s in setups],
                  setup_raw_samples_s=[s["setup_raw_s"] for s in setups],
                  unexpected_failures=unexpected,
                  fixed_failures=fixed)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
