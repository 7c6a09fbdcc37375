"""Benchmark for telic: end-to-end figures, or per-layer figures with --trace 1.

    python3 bench/run.py --workload selftest|lexicon|reduction \\
        --seed N --seconds S --trace 0|1

Run it from the root of a source tree: it imports telic from ``src/`` there
and writes its inputs, results and trace dumps under ``bench/out/``. It
checks every output, and prints as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. See
``bench/README.md`` for the workloads, the metrics and reference figures.

Timing: the machine this was built on runs the same pure-Python code up to
twice as slow, for stretches from a fraction of a second to minutes,
depending on what else shares its cores. So every figure is a median: of
the passes of the run, of the operations of a pass, and of SETUP_SAMPLES
fresh interpreters spread over the run. A fixed computation that shares no
code with telic (``reference.py``) is timed before every pass and after
every set-up, and every time is reported at the reference pace REFERENCE_S:
multiplied by (REFERENCE_S / the median of its times in this run) to the
power PACE_EXPONENT. The result file keeps the unscaled figures too.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 12  # fresh interpreters per run, spread evenly over it
SETUP_TIMEOUT_S = 60
REFERENCE_BURST = 16  # reference samples before each pass and after each set-up
# Median time of reference.sample() on the machine the bounds were set on
# (CPython 3.11.7, 2 shared vCPUs); figures are reported at this pace.
REFERENCE_S = 0.0055
# When that machine slows down, the small reference slows about twice as
# much as telic does in log terms (2 times against 1.35 to 1.4 times), so
# times are scaled by the square root of the reference's slowdown.
PACE_EXPONENT = 0.5

# Runs in a fresh interpreter: import telic and load the prelude into a fresh
# Processor, which is what every `telic check` pays before its first declaration.
SETUP_CHILD = """
import sys
from time import perf_counter
start = perf_counter()
sys.path.insert(0, sys.argv[1])
import telic
proc, reports = telic.load_prelude()
elapsed = perf_counter() - start
print(repr(elapsed) if reports and all(r.ok for r in reports) else "broken")
"""


@dataclass
class Pass:
    start: float  # perf_counter when set-up began
    ready: float  # when the timed part began
    end: float
    op_s: list[float]  # seconds of each operation, in order
    failed: int = 0
    problems: list = field(default_factory=list)
    tracer: object | None = None

    @property
    def timed_s(self) -> float:
        return self.end - self.ready


def setup_sample() -> float:
    """Set-up time in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
    )
    if out.returncode != 0 or out.stdout.strip() == "broken":
        raise RuntimeError(f"set-up failed: {out.stdout.strip()} {out.stderr.strip()[-500:]}")
    return float(out.stdout.strip())


def one_pass(telic, probe, workload, prelude_file: str, traced: bool) -> Pass:
    gc.collect()
    patches = probe.Patches()
    timer = probe.OpTimer(prelude_file)
    tracer = probe.Tracer(prelude_file) if traced else None
    timer.install(patches, telic)
    if tracer is not None:
        tracer.install(patches, telic)
    try:
        start = perf_counter()
        state = workload.setup()
        ready = perf_counter()
        outcome = workload.run(state)
        end = perf_counter()
    finally:
        patches.undo()
    failed, problems = workload.check(timer.ops, outcome)
    return Pass(start, ready, end, [op.seconds for op in timer.ops], failed, problems, tracer)


def measure(telic, probe, workload, prelude_file: str, seconds: float, trace: bool):
    """Whole passes until ``seconds`` have gone by, with SETUP_SAMPLES
    set-ups in fresh interpreters spread evenly between them, and the
    reference timed before each pass and after each set-up. With ``trace``,
    traced and untraced passes alternate."""
    passes: list[Pass] = []
    setup: list[float] = []
    samples: list[float] = []
    start = perf_counter()
    while perf_counter() - start < seconds or (trace and len(passes) < 2):
        samples.extend(reference.sample() for _ in range(REFERENCE_BURST))
        passes.append(one_pass(telic, probe, workload, prelude_file, traced=trace and len(passes) % 2 == 1))
        while len(setup) < SETUP_SAMPLES and perf_counter() - start >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(setup_sample())
            samples.extend(reference.sample() for _ in range(REFERENCE_BURST))
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
        samples.extend(reference.sample() for _ in range(REFERENCE_BURST))
    return passes, setup, (statistics.median(samples) / REFERENCE_S) ** PACE_EXPONENT


def end_to_end(passes: list[Pass], setup: list[float], per_pass: int, pace: float) -> dict:
    """The end-to-end metrics, medians over ``passes``, with times divided by ``pace``."""
    median = statistics.median
    return {
        "setup_s": {"value": median(setup) / pace, "unit": "s"},
        "decls_per_s": {"value": per_pass * pace / median(p.timed_s for p in passes), "unit": "1/s"},
        "decl_ms_p50": {"value": 1000.0 * median(median(p.op_s) for p in passes) / pace, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def per_layer(probe, passes: list[Pass]) -> tuple[dict, list[str], list[str]]:
    """Per-layer figures of the traced passes, the metrics that are absent,
    and the deterministic counts that differed between passes. Times are
    medians over the traced passes; counts must agree across passes."""
    median = statistics.median
    traced = [p for p in passes if p.tracer is not None]
    plain = [p for p in passes if p.tracer is None]
    metrics, absent, unsteady = {}, [], []
    for name, (unit, sources, read) in probe.LAYER_METRICS.items():
        if not any(s in traced[0].tracer.installed for s in sources):
            absent.append(name)
            continue
        values = [read(p.tracer.self_s, p.tracer.counts) for p in traced]
        if name in probe.DETERMINISTIC and len(set(values)) > 1:
            unsteady.append(f"{name}: {values}")
        metrics[name] = {"value": median(values), "unit": unit}
    metrics["pass_s"] = {"value": median(p.end - p.start for p in traced), "unit": "s"}
    metrics["other_s"] = {"value": median(p.end - p.start - sum(p.tracer.self_s.values()) for p in traced), "unit": "s"}
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (median(p.timed_s for p in traced) / median(p.timed_s for p in plain) - 1.0), "unit": "%"}
    return metrics, absent, unsteady


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("selftest", "lexicon", "reduction"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "telic" / "__init__.py").is_file():
        print(f"error: no telic sources under {SRC}; run from a full source tree", file=sys.stderr)
        return 2
    # Measure the bundled prelude, whatever the caller's environment names.
    os.environ.pop("TELIC_PRELUDE", None)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import probe
    import telic
    import telic.cli
    import workloads

    workdir = OUT / "inputs"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload, telic, ROOT, args.seed, workdir)
    prelude_file = str(telic.prelude_path())

    passes, setup, pace = measure(telic, probe, workload, prelude_file, args.seconds, bool(args.trace))

    problems = [line for p in passes for line in p.problems]
    if len({len(p.op_s) for p in passes}) > 1:
        problems.append(f"operations per pass differ: {sorted({len(p.op_s) for p in passes})}")
    attempted = workload.ops_per_pass * len(passes)
    failed = sum(p.failed for p in passes)
    extra: dict = {}
    if args.trace:
        metrics, absent, unsteady = per_layer(probe, passes)
        problems += [f"count differs between passes: {u}" for u in unsteady]
        extra = {"absent": absent, "counts_per_pass": [dict(p.tracer.counts) for p in passes if p.tracer]}
        if absent:
            print(f"absent per-layer metrics (their functions are gone): {', '.join(absent)}", file=sys.stderr)
        dump = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        dump.write_text(json.dumps({"passes": [p.tracer.spans for p in passes if p.tracer]}))
    else:
        metrics = end_to_end(passes, setup, workload.ops_per_pass, pace)
        extra = {"pace": pace, "unscaled": end_to_end(passes, setup, workload.ops_per_pass, 1.0)}

    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  python=platform.python_version(), setup_samples_s=setup,
                  pass_run_s=[p.timed_s for p in passes], traced=[p.tracer is not None for p in passes],
                  problems=problems[:50], **extra)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
