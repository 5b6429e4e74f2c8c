"""Seeded end-to-end and per-layer benchmark of the qkdkit pipeline.

Run from the repository root:

    python3 bench/run.py --workload clean-chain --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 1

One process builds a workload's scenario from the seed, then calls
`qkdkit.scenario.run_scenario` repeatedly for `--seconds`, writing the
reports under `.bench_out/<workload>/` as `qkdkit run` does. Every run's
outputs are checked (see checks.py).

With `--trace 0` it prints the end-to-end metrics. With `--trace 1` it
alternates untraced and traced runs and prints the per-layer metrics of
the traced runs (see tracing.py); the spans go to
`.bench_out/<workload>/spans.jsonl`. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
`--workload all` each workload runs in its own process and their tables
are printed one after another.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 7
# On a shared host the same code can run up to twice as slowly from one
# minute to the next, and within a minute the host flips between fast and
# slow phases lasting seconds. Raw times therefore drift between runs by
# more than any usable regression bound. Both end-to-end times are reported
# at a nominal host speed instead: the mean raw time, times a nominal
# reference time over the mean time of a fixed reference measured in the
# same period (see at_nominal_speed). The raw medians are printed beside
# them.
# - wall_s: the reference is calibration_kernel, run by HostSampler every
#   SAMPLE_INTERVAL_S during each timed run; nominally REF_NOMINAL_S.
# - setup_s: the reference is a fresh interpreter that imports a fixed set
#   of standard modules, run after every probe; nominally
#   SETUP_REF_NOMINAL_S. Process start and imports on two threads are not
#   tracked by the in-process kernel.
SETUP_REF_NOMINAL_S = 0.15
SETUP_REF_PROBE = "import argparse, asyncio, decimal, email.parser, http.client, json, unittest, xml.dom.minidom"
REF_NOMINAL_S = 0.001
SAMPLE_INTERVAL_S = 0.1
HOST_REF_SAMPLES = 20
MIN_RUNS = 3
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170
# A fresh interpreter as the CLI starts it: import the package's entry
# module and load one config through the JSON schema.
SETUP_PROBE = "import sys\nfrom qkdkit.cli import load_scenario\nload_scenario(sys.argv[1])\n"

# Metric names and units are defined once, in BENCHMARK.json.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="clean-chain, noisy-bulk, relay-mesh or all")
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 for per-layer metrics")
    return parser.parse_args(argv)


class Workload:
    """A seeded scenario written to disk, loaded, and run repeatedly."""

    def __init__(self, name: str, seed: int):
        from qkdkit.scenario import load_scenario

        self.dir = OUT / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        raw, topology = workloads.build(name, seed)
        if topology is not None:
            (self.dir / workloads.MESH_TOPOLOGY).write_text(topology)
        self.config = self.dir / "scenario.json"
        self.config.write_text(json.dumps(raw, indent=2) + "\n")
        self.scenario = load_scenario(self.config)
        self.reports_dir = self.dir / "reports"
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.key_bits_per_pulse = None

    def run(self, sampler: HostSampler | None = None) -> tuple[float, object]:
        """One timed run_scenario call, checked; returns (wall seconds, result).

        With a sampler, the host is sampled during the call and the time the
        samples took is left out of the wall time.
        """
        import qkdkit.scenario

        gc.collect()
        self.attempted += checks.operation_count(self.scenario)
        spent = sampler.spent if sampler else 0.0
        start = time.perf_counter()
        try:
            with sampler.sampling() if sampler else contextlib.nullcontext():
                result = qkdkit.scenario.run_scenario(
                    self.scenario, out_dir=self.reports_dir, config_dir=self.dir
                )
        except Exception:
            result = None
            traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - start - ((sampler.spent - spent) if sampler else 0.0)
        if result is None:
            self.failed += checks.operation_count(self.scenario)
            return wall, None
        reports = checks.read_reports(self.reports_dir, self.scenario)
        failed, problems = checks.failed_operations(result, reports, self.reference)
        self.failed += failed
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        if self.reference is None:
            self.reference = reports
            pulses = sum(r.n_pulses for r in result.rounds)
            final = sum(r.final_length for r in result.rounds)
            self.key_bits_per_pulse = final / pulses if pulses else 0.0
        return wall, result


def calibration_kernel() -> None:
    """A fixed loop of integer and string work, about a millisecond long.

    It allocates no object that the cyclic garbage collector tracks, so it
    neither triggers nor pays for collections of qkdkit's objects: a change
    to qkdkit that allocates more moves the run's wall time, not the
    reference.
    """
    total = 0
    for i in range(4_000):
        total ^= i + len(str(i))


class HostSampler:
    """Measures host speed during timed calls.

    While sampling, an interval timer runs calibration_kernel in this thread
    every SAMPLE_INTERVAL_S and records how long it took. The samples cover
    the same seconds as the timed calls, fast and slow phases alike; `spent`
    lets a caller take their own time out of a measurement. A signal is
    handled only between bytecodes, so expirations during one long numpy
    call give a single sample at its end. Each sample is therefore weighted
    by the time since the previous one, which it stands for.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.weights: list[float] = []
        self.spent = 0.0
        self._last = 0.0

    def _tick(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        calibration_kernel()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.samples.append(end - start)
        self.weights.append(start - self._last)
        self.spent += end - start
        self._last = end

    def reference(self) -> float:
        """Kernel time averaged over the sampled seconds."""
        return sum(k * w for k, w in zip(self.samples, self.weights)) / sum(self.weights)

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def host_reference() -> float:
    """Median calibration_kernel time, measured outside any timed run."""
    times = []
    for _ in range(HOST_REF_SAMPLES):
        start = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def at_nominal_speed(raw: list[float], reference: float, nominal: float) -> float:
    """Mean raw time on a host where the reference takes `nominal` seconds.

    `reference` is the mean reference time over the same period. Means, not
    medians: only total time over total reference time cancels the host's
    fast and slow phases; medians of the two pick phases independently.
    """
    return statistics.fmean(raw) * nominal / reference


def probe(*args: str) -> float:
    """Seconds for a fresh interpreter to run `python -c <args>`."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"probe failed:\n{proc.stderr}")
    return elapsed


def tail(samples: list[float]) -> str:
    """Highest percentile with at least TAIL_BEYOND samples above it."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return f"tail n/a (needs {TAIL_BEYOND + 1}+ samples)"
    ordered = sorted(samples)
    pct = 100.0 * (n - TAIL_BEYOND) / n
    return f"p{pct:.0f} {ordered[n - TAIL_BEYOND - 1]:.4f} s"


def another_run(deadline: float, durations: list[float]) -> bool:
    """Whether a further run is due: at least MIN_RUNS, then while one more
    of median length is expected to end before the deadline."""
    if len(durations) < MIN_RUNS:
        return True
    return time.perf_counter() + statistics.median(durations) <= deadline


def end_to_end(w: Workload, seconds: float) -> tuple[dict, list[str]]:
    setup_raw, setup_refs = [], []
    for _ in range(SETUP_REPEATS):
        setup_raw.append(probe(SETUP_PROBE, str(w.config)))
        setup_refs.append(probe(SETUP_REF_PROBE))
    sampler, walls = HostSampler(), []
    deadline = time.perf_counter() + seconds
    w.run()  # untimed warm-up: fills qkdkit's caches and sets the reference outputs
    while another_run(deadline, walls):
        walls.append(w.run(sampler)[0])
    metrics = {
        "setup_s": at_nominal_speed(setup_raw, statistics.fmean(setup_refs), SETUP_REF_NOMINAL_S),
        "wall_s": at_nominal_speed(walls, sampler.reference(), REF_NOMINAL_S),
        "key_bits_per_pulse": w.key_bits_per_pulse or 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (w.attempted - w.failed) / w.attempted,
    }
    notes = {
        "setup_s": f"{len(setup_raw)} fresh interpreters; raw median {statistics.median(setup_raw):.4f} s",
        "wall_s": f"{len(walls)} runs; raw median {statistics.median(walls):.4f} s, {tail(walls)}",
        "key_bits_per_pulse": "final bits over pulses sent",
        "peak_rss_mb": "peak resident memory of this process",
        "ok_ratio": f"fail_ratio {w.failed / w.attempted:g} = {w.failed} failed of {w.attempted} operations",
    }
    lines = ["  times at nominal host speed"]
    lines += [
        f"  {name:<20} {value:>14.6g} {END_TO_END_UNITS[name]:<10} {notes[name]}"
        for name, value in metrics.items()
    ]
    return metrics, lines


def per_layer(w: Workload, seconds: float) -> tuple[dict, list[str], bool]:
    import tracing

    tracer = tracing.Tracer()
    originals = tracing.snapshot_originals()
    untraced, layers, pairs, host_refs = [], [], [], []
    sound = True
    deadline = time.perf_counter() + seconds
    w.run()  # untimed warm-up, as in end_to_end
    while another_run(deadline, pairs):
        pair_start = time.perf_counter()
        # alternate which side goes first, so drift favours neither
        for traced in (False, True) if len(pairs) % 2 == 0 else (True, False):
            if not traced:
                untraced.append(w.run()[0])
                continue
            first = len(tracer.spans)
            tracer.run_id = len(pairs)
            with tracer.installed():
                _, result = w.run()
            stale = tracing.unrestored_names(originals)
            if stale:
                print(f"check failed: still wrapped after tracing: {stale}", file=sys.stderr)
                sound = False
            if result is None:
                continue
            del result
            layers.append(tracing.run_layers(tracer.spans, first))
            error = tracing.layer_sum_error(layers[-1])
            if error > 1e-6:
                print(f"check failed: layer times miss the traced wall by {error:.3g} s", file=sys.stderr)
                sound = False
        pairs.append(time.perf_counter() - pair_start)
        host_refs.append(host_reference())
    tracer.write(w.dir / "spans.jsonl")
    if not layers:
        return {}, [], False
    metrics = {name: statistics.median(entry[name] for entry in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(untraced)
    wall = metrics["trace.wall_s"]
    lines = [
        f"  raw medians of {len(layers)} traced and {len(untraced)} untraced runs",
        f"  host reference {1e3 * statistics.median(host_refs):.4f} ms between runs"
        f" (nominal {1e3 * REF_NOMINAL_S:g} ms)",
    ]
    for name in PER_LAYER_UNITS:
        timed = PER_LAYER_UNITS[name] == "s"
        share = f"{100.0 * metrics[name] / wall:5.1f}% of wall" if timed else ""
        lines.append(f"  {name:<28} {metrics[name]:>14.6g} {PER_LAYER_UNITS[name]:<9} {share}")
    return {name: metrics[name] for name in PER_LAYER_UNITS}, lines, sound


def run_workload(args) -> int:
    w = Workload(args.workload, args.seed)
    if args.trace:
        metrics, lines, sound = per_layer(w, args.seconds)
        units = PER_LAYER_UNITS
    else:
        metrics, lines = end_to_end(w, args.seconds)
        units, sound = END_TO_END_UNITS, True
    print(f"{args.workload} (seed {args.seed}, trace {args.trace}):")
    print("\n".join(lines))
    print(json.dumps({
        "correct": sound and w.failed == 0 and len(metrics) == len(units),
        "attempted": w.attempted,
        "failed": w.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak memory."""
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(f"{name}: FAILED (exit {proc.returncode})")
            status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qkdkit" / "__init__.py").is_file():
        print(f"error: no qkdkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
