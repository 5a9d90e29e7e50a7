"""One benchmark worker: set up one workload, time passes over its programs,
then check the outputs of the first pass. Prints one JSON object.

Each program is timed from source text to report bytes, the way
`declassiflow.cli.main` runs it minus argument parsing and file I/O:
`parse_program` -> `run_pipeline` -> `emit_report`; a pass's wall time is the
sum of these. Between programs the host's speed is timed (speed.py), and the
reported times are scaled to its reference speed. A program that raises is
counted with its exception type and the pass goes on.

Started by run.py in a fresh single-threaded process with PYTHONHASHSEED
pinned; `--setup-only` measures set-up and exits.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def _setup(workload: str):
    import declassiflow.cli  # noqa: F401  (the package, as the CLI entry point loads it)
    import workloads
    return workloads.build(workload), time.perf_counter() - _STARTED


def _digest(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "timing"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value,
    percentile, samples beyond). Below eleven samples this is the maximum."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


@dataclass
class Pass:
    times: dict[str, float] = field(default_factory=dict)  # program -> seconds
    spans: dict[str, tuple[float, float]] = field(default_factory=dict)  # program -> (start, end)
    digests: dict[str, str] = field(default_factory=dict)  # program -> report sha256
    errors: dict[str, str] = field(default_factory=dict)  # program -> exception type
    refinements: list[str] = field(default_factory=list)  # verdicts, in report order
    barriers: int = 0


def run_pass(wl, order, captured=None, tracer=None, speed=None) -> Pass:
    """Time every program once. With `captured`, also keep what the checks
    need (untimed); with `speed`, time the host's speed between programs."""
    from declassiflow import cli, ir, pipeline
    from checks import Captured

    result = Pass()
    analyses_of = {}
    original = pipeline.analyze_program
    if captured is not None:
        def tapped(program, config=None):
            out = original(program, config)
            analyses_of["last"] = out[0]
            return out
        pipeline.analyze_program = tapped
    try:
        for i in order:
            name, text = wl.programs[i]
            if tracer is not None:
                tracer.request = name
            if speed is not None:
                speed.sample_if_due()
            start = time.perf_counter()
            try:
                program = ir.parse_program(text)
                report = pipeline.run_pipeline(program, wl.config)
                cli.emit_report(report)
            except Exception as exc:  # counted, and the pass goes on
                end = time.perf_counter()
                result.times[name] = end - start
                result.spans[name] = (start, end)
                result.errors[name] = type(exc).__name__
                continue
            end = time.perf_counter()
            result.times[name] = end - start
            result.spans[name] = (start, end)
            result.digests[name] = _digest(report)
            result.barriers += sum(len(v) for v in report["barriers"].values())
            result.refinements += [r["verdict"] for f in report["functions"]
                                   for r in f["refinements"]]
            if captured is not None:
                analyses = analyses_of.pop("last")
                fixpoint = None
                if name.startswith("random-"):
                    km = analyses["main"].km
                    fixpoint = {e.key: set(km.known[e.index]) for e in km.cfg.edges}
                captured.append(Captured(
                    name, text, report["barriers"], report.get("protected_program"),
                    pipeline.property_map(program, analyses), fixpoint))
    finally:
        pipeline.analyze_program = original
    if speed is not None:
        speed.sample()
    return result


def _traced_pass(wl, order, untraced_wall: float, spans_path: str | None):
    """One pass with every layer boundary traced; returns the pass and the
    per-layer metrics."""
    import layers

    tracer = layers.Tracer()
    tracer.install()
    try:
        traced = run_pass(wl, order, tracer=tracer)
    finally:
        tracer.uninstall()
    if spans_path:
        tracer.write(spans_path)
    metrics = {name: 0 for name in layers.PER_LAYER}
    metrics.update(tracer.layer_metrics())
    verdicts = traced.refinements
    decided = verdicts.count("inevitable") + verdicts.count("escapable")
    metrics.update({
        "refine.queries": len(verdicts),
        "refine.inevitable": verdicts.count("inevitable"),
        "refine.escapable": verdicts.count("escapable"),
        "refine.unknown": verdicts.count("unknown"),
        "refine.decided_ratio": decided / len(verdicts) if verdicts else 0.0,
        "pipeline.trace_overhead_ratio": sum(traced.times.values()) / untraced_wall,
    })
    oracle_s = metrics["oracle.verify_s"] + metrics["oracle.explore_s"]
    metrics["oracle.execs_per_s"] = (metrics["oracle.spec_executions"] / oracle_s
                                     if oracle_s else 0.0)
    return traced, metrics, sorted(tracer.absent)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the traced pass's spans here")
    args = ap.parse_args()

    wl, setup_raw_s = _setup(args.workload)
    from speed import REFERENCE_S, HostSpeed
    speed = HostSpeed()
    speed.sample()
    setup_s = setup_raw_s * REFERENCE_S / statistics.median(speed.took)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    from checks import check
    import workloads

    order = list(range(len(wl.programs)))
    random.Random(args.seed).shuffle(order)
    # a traced run spends half its time untraced, then traces one pass
    budget = args.seconds / 2 if args.trace else args.seconds
    measured_from = time.perf_counter()
    captured = []
    passes = [run_pass(wl, order, captured, speed=speed)]
    while True:
        per_pass = statistics.median(sum(p.times.values()) for p in passes)
        if time.perf_counter() - measured_from + per_pass > budget:
            break
        passes.append(run_pass(wl, order, speed=speed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls = [sum(p.times.values()) for p in passes]
    # a program's time is the median over the run of its repetitions' times
    # scaled to the host's reference speed (speed.py)
    scaled = {name: statistics.median(p.times[name] * speed.scale(*p.spans[name])
                                      for p in passes)
              for name in passes[0].times}
    tail_value, tail_pct, tail_beyond = _tail(list(scaled.values()))

    layer_metrics, absent = {}, []
    if args.trace:
        traced, layer_metrics, absent = _traced_pass(
            wl, order, statistics.median(walls), args.spans)
        passes.append(traced)

    first = passes[0]
    outcomes = {c.name: check(c, wl.full_grid, wl.config.window, wl.config.depth)
                for c in captured}
    check_failures = {name: [f"raised:{err}"] for name, err in first.errors.items()}
    check_failures.update({n: o.failed for n, o in outcomes.items() if o.failed})
    check_failures = dict(sorted(check_failures.items()))
    verdicts = first.refinements
    print(json.dumps({
        "workload": wl.name,
        "command": wl.command,
        "programs": len(wl.programs),
        "passes": len(walls),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "wall_s": sum(scaled.values()),
        "wall_s_passes": walls,
        "host_speed": [REFERENCE_S / t for t in speed.took],
        "prog_p50_s": statistics.median(scaled.values()),
        "prog_tail_s": tail_value,
        "prog_tail_percentile": tail_pct,
        "prog_tail_beyond": tail_beyond,
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(len(p.times) for p in passes),
        "failed": sum(len(p.errors) for p in passes),
        "errors": {name: err for p in passes for name, err in p.errors.items()},
        "deterministic": all(p.digests == first.digests for p in passes),
        "report_sha256": hashlib.sha256("".join(
            first.digests.get(name, "-") for name, _ in wl.programs).encode()).hexdigest(),
        "barriers_static": first.barriers,
        "barriers_dynamic": sum(o.barriers_dynamic for o in outcomes.values()),
        "check_inputs": sum(o.inputs for o in outcomes.values()),
        "check_failures": check_failures,
        "refine_verdicts": {v: verdicts.count(v) for v in sorted(set(verdicts))},
        "frozen_inputs": workloads.frozen_inputs_match(ROOT),
        "layers": layer_metrics,
        "absent": absent,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
