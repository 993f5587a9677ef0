"""Benchmark of the egs library: one workload, one seed, one process.

    python3 egsbench/run.py --workload reduce --seed 1 --seconds 30 --trace 0

A single caller makes sequential library calls, each waiting for the last
(a closed loop with one client).  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it replays a fixed prefix of the
workload untraced and then traced, and prints the per-layer metrics.  The
last line of standard output is the JSON result.  End-to-end times are
rescaled to a reference machine speed measured along the run (speed.py).
See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import speed  # noqa: E402  (HERE is on sys.path when run as a script)

# Input builds per timed run: one before the timed loop and the rest spread
# evenly over it, so that the median build time samples the same stretch of
# the machine's speed as the timed items do.
SETUP_REPEATS = 5
MIN_ITEMS = 100          # item_p90_ms needs at least this many samples


def _fail(message: str) -> None:
    print(f"egsbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library() -> None:
    if not (SRC / "egs" / "__init__.py").is_file():
        _fail(f"library sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import egs  # noqa: F401


def _build(workload: str, seed: int):
    import workloads

    return workloads.MAKE_INPUTS[workload](seed)


class Loop:
    """Runs items, times each one and checks its output.  With a clock it
    takes a calibration sample whenever ``speed.SAMPLE_EVERY_S`` of item
    time has passed since the last one, and records each item's time with
    the index of the sample before it."""

    def __init__(self, clock: speed.Clock | None = None):
        import workloads

        self.workloads = workloads
        self.clock = clock
        self.since_sample = 0.0
        self.timings: list[tuple[float, int]] = []   # every item
        self.latencies: list[tuple[float, int]] = []  # completed items
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fm_cache: dict = {}
        self.seen: dict[int, object] = {}

    def run(self, item, tracer=None) -> None:
        self.attempted += 1
        if self.clock and (not self.clock.samples or self.since_sample >= speed.SAMPLE_EVERY_S):
            self.clock.tick()
            self.since_sample = 0.0
        start = time.perf_counter()
        try:
            with tracer.span("bench.item") if tracer else nullcontext():
                result = self.workloads.run_item(item)
        except self.workloads.BudgetExceeded:
            result = None
        elapsed = time.perf_counter() - start
        self.busy += elapsed
        self.since_sample += elapsed
        timing = (elapsed, len(self.clock.samples) - 1 if self.clock else -1)
        self.timings.append(timing)
        if self.workloads.failed(item, result):
            self.failed += 1
            if not item.known_fault:
                outcome = "ran past its budget" if result is None else "gave the wrong verdict"
                self._report([f"a {item.kind} item {outcome}"])
            return
        self.latencies.append(timing)
        if tracer:
            tracer.enabled = False  # the checks' own library calls are not workload
        found = self._check(item, result)
        if tracer:
            tracer.enabled = True
        self._report(found)

    def _report(self, found: list[str]) -> None:
        for problem in found:
            if len(self.problems) < 20:
                print(f"egsbench: check failed: {problem}", file=sys.stderr)
            self.problems.append(problem)

    def _check(self, item, result) -> list[str]:
        """Full checks the first time an item runs; later runs of the same
        item must reproduce its output."""
        summary = self.workloads.fingerprint(item, result)
        if id(item) in self.seen:
            if self.seen[id(item)] != summary:
                return ["an item's output differs from its first run"]
            return []
        self.seen[id(item)] = summary
        return self.workloads.check_item(item, result, self.fm_cache)

    def run_blocks(self, blocks, tracer=None) -> None:
        for block in blocks:
            for item in block:
                self.run(item, tracer)

    @property
    def correct(self) -> bool:
        return not self.problems

    def rescaled(self, timings: list[tuple[float, int]]) -> list[float]:
        """Item times at the reference speed."""
        return [elapsed * self.clock.scale(index) for elapsed, index in timings]


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    clock = speed.Clock()
    _, import_raw, import_s = clock.timed(_import_library)
    inputs, build_raw, build_s = clock.timed(lambda: _build(workload, seed))
    builds = [(build_raw, build_s)]
    digest = inputs.digest()
    print(f"digest {workload} seed={seed} {digest}")
    loop = Loop(clock)
    blocks = inputs.blocks
    done = 0
    while loop.busy < seconds or len(loop.latencies) < MIN_ITEMS:
        while (len(builds) < SETUP_REPEATS
               and loop.busy >= seconds * len(builds) / SETUP_REPEATS):
            again, build_raw, build_s = clock.timed(lambda: _build(workload, seed))
            if again.digest() != digest:
                _fail("input builds differ between repeats")
            builds.append((build_raw, build_s))
        loop.run_blocks([blocks[done % len(blocks)]])
        done += 1
    busy = sum(loop.rescaled(loop.timings))
    latencies = loop.rescaled(loop.latencies)
    print(f"blocks {done} of {len(blocks)} distinct; busy {loop.busy:.3f} s measured,"
          f" {busy:.3f} s at reference speed")
    print(f"measured: setup_s={import_raw + statistics.median(b[0] for b in builds):.4f}"
          f" items_per_s={len(loop.latencies) / loop.busy:.4f}"
          f" item_p50_ms={statistics.median(t for t, _ in loop.latencies) * 1e3:.4f};"
          f" calibration loop {statistics.median(clock.samples) * 1e3:.4f} ms median of"
          f" {len(clock.samples)} samples, reference {speed.REFERENCE_S * 1e3:.4f} ms")
    metrics = {
        "setup_s": (import_s + statistics.median(b[1] for b in builds), "s"),
        "items_per_s": (len(latencies) / busy, "items/s"),
        "item_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "item_p90_ms": (statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {
        "correct": loop.correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_run(workload: str, seed: int) -> dict:
    _import_library()
    import tracing
    import workloads

    inputs = _build(workload, seed)
    prefix = inputs.blocks[: workloads.TRACE_BLOCKS[workload]]
    plain = Loop()
    plain.run_blocks(prefix)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            traced_inputs = workloads.MAKE_INPUTS[workload](seed)
        if traced_inputs.digest() != inputs.digest():
            _fail("traced input build differs from the untraced one")
        loop = Loop()
        loop.run_blocks(prefix, tracer)
    finally:
        tracer.uninstall()
    print(f"digest {workload} seed={seed} {inputs.digest()}")
    print(
        f"trace {workload}: {sum(map(len, prefix))} items, untraced {plain.busy:.3f} s,"
        f" traced {loop.busy:.3f} s, overhead x{loop.busy / plain.busy:.2f},"
        f" {len(tracer.span_name)} spans"
    )
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-{seed}.tsv.gz"
    tracer.write_spans(path)
    print(f"spans written to {path.relative_to(HERE.parent)}")
    units = tracing.metric_units()
    values = tracer.metrics()
    return {
        "correct": loop.correct and plain.correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("reduce", "equiv", "dominance"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.trace:
        result = traced_run(args.workload, args.seed)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
