"""Benchmark for boxcorr: four workloads, end-to-end job time, per-layer costs.

Run from the repository root; the package is imported from ``src/``:

    python3 perfbench/run.py --workload scan-ex41 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Each run is a closed loop with one client, one process and one thread: a
job starts when the previous one ends. A job is one unit of user work
(see ``workloads.py``); every public call whose output the benchmark
checks is one operation.

With ``--trace 0`` a run starts ``SETUP_PROBES`` fresh processes that
only set up, sets up itself and runs its first job, then runs later jobs
until ``--seconds`` would be exceeded. After each of the first
``COLD_PROBES`` later jobs it starts a fresh process that sets up and runs
one job, so that cold and later jobs are spread over the whole run.

Every time is reported in reference seconds (see ``calibrate.py``): the
wall time scaled by the host's speed measured around and during it, so
that a run reads the same whether the shared host is busy or idle. The
raw wall times are printed before the result.
A run reports:

* ``setup_s``: imports, document reading and seeded input generation,
  the median over this process and the probes;
* ``cold_job_s``: the first job in a fresh process, the median over this
  process and the probes;
* ``job_s``: the median time of the later jobs;
* ``peak_rss_mb``: peak resident memory of this process (``ru_maxrss``);
* ``ops_ok_frac``: operations whose output matched, over operations
  attempted (never 0, unlike its complement).

With ``--trace 1`` a run ignores ``--seconds``: it sets up, runs one cold
and one later job untraced, then installs ``tracer.Tracer`` and runs two
traced jobs. It reports the per-layer metrics of ``tracer.LAYER_METRICS``:
counts from the last traced job, self times (wall seconds) averaged over
the two, ``trace.overhead_frac`` from reference seconds, and says whether
the two jobs' counts agree.

``--workload all`` runs each workload in its own fresh process and prints
every metric by name with its unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
NAMES = ("paper", "scan-ex41", "scan-affine", "symbolic-n4")
SETUP_PROBES = 2
COLD_PROBES = 1
MIN_WARM_JOBS = 2
# Set-up takes about 0.1 s, so the calibration before it is short; the
# one after it also serves the first job.
SETUP_PASSES = 4
# No job starts past this many seconds into the run, so that a run ends
# well inside three minutes even when jobs have become very slow.
LAST_START_S = 120.0
CHILD_TIMEOUT_S = 180.0


def _parse(argv):
    ap = argparse.ArgumentParser(description="boxcorr benchmark")
    ap.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", choices=("setup", "job"), help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _setup(name: str, seed: int):
    """Import the package, read documents, generate inputs.

    Returns (workload, reference seconds of set-up, kernel seconds after it).
    """
    before = calibrate.measure(SETUP_PASSES)
    t0 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[name](seed)
    took = time.perf_counter() - t0
    after = calibrate.measure()
    import boxcorr
    if not Path(boxcorr.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"boxcorr was imported from {boxcorr.__file__}, not from {SRC}")
    return wl, calibrate.scaled(took, before, after), after


def _child(args: list[str]) -> list[str]:
    """Run this script in a fresh process; returns its output lines."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"child run {args} exited with {proc.returncode}")
    return proc.stdout.strip().splitlines()


def _probe(args, kind: str) -> dict:
    return json.loads(_child(["--workload", args.workload, "--seed", str(args.seed),
                              "--seconds", "0", "--probe", kind])[-1])


class Loop:
    """Runs timed jobs of one workload and tallies the checked operations."""

    def __init__(self, wl, kernel_s: float, sampled: bool = True) -> None:
        self.wl = wl
        self.kernel_s = kernel_s  # the latest calibration, taken just before the next job
        # Traced runs leave out in-job sampling, which would land in the layers' self times.
        self.sampled = sampled
        self.walls: list[float] = []
        self.attempted = 0
        self.failed = 0

    def recalibrate(self) -> None:
        self.kernel_s = calibrate.measure()

    def job(self, tracer=None) -> float:
        """Run one job; returns its reference seconds."""
        gc.collect()
        if tracer is None:
            with calibrate.Sampler(active=self.sampled) as sampler:
                t0 = time.perf_counter()
                raw = self.wl.run_job()
                wall = time.perf_counter() - t0
        else:
            sampler = None
            tracer.start_job()
            raw = self.wl.run_job()
            wall = tracer.end_job()
        before, self.kernel_s = self.kernel_s, calibrate.measure()
        self.walls.append(wall)
        observed = self.wl.observe(raw)
        failed = self.wl.failures(observed)
        if failed:
            print(f"{self.wl.name}: {failed} of {len(observed)} operations failed", file=sys.stderr)
        self.attempted += len(observed)
        self.failed += failed
        return calibrate.scaled(wall, before, self.kernel_s, sampler)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(args) -> tuple[Loop, dict]:
    setups = [_probe(args, "setup")["setup_s"] for _ in range(SETUP_PROBES)]
    wl, own_setup, kernel_s = _setup(args.workload, args.seed)
    setups.append(own_setup)
    loop = Loop(wl, kernel_s)
    colds = [loop.job()]
    warm: list[float] = []
    while True:
        if len(colds) > COLD_PROBES:
            elapsed = time.perf_counter() - START
            estimate = statistics.median(loop.walls[1:])
            if len(warm) >= MIN_WARM_JOBS and elapsed + estimate > args.seconds:
                break
            if elapsed > LAST_START_S:
                break
        warm.append(loop.job())
        if len(colds) <= COLD_PROBES:
            probe = _probe(args, "job")
            setups.append(probe["setup_s"])
            colds.append(probe["cold_job_s"])
            loop.attempted += probe["attempted"]
            loop.failed += probe["failed"]
            loop.recalibrate()
    print(f"{args.workload}: reference s: setup {['%.4f' % s for s in setups]}, "
          f"cold {['%.4f' % c for c in colds]}, warm {['%.4f' % w for w in warm]}")
    print(f"{args.workload}: wall s of this process: cold {loop.walls[0]:.4f}, "
          f"warm {['%.4f' % w for w in loop.walls[1:]]}")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return loop, {
        "setup_s": _metric(statistics.median(setups), "s"),
        "cold_job_s": _metric(statistics.median(colds), "s"),
        "job_s": _metric(statistics.median(warm), "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "ops_ok_frac": _metric(1 - loop.failed / loop.attempted, "frac"),
    }


def _per_layer(args) -> tuple[Loop, dict]:
    wl, _, kernel_s = _setup(args.workload, args.seed)
    loop = Loop(wl, kernel_s, sampled=False)
    loop.job()
    untraced = loop.job()
    import tracer as tracing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        refs, self_times, counts, outside = [], [], [], []
        for _ in range(2):
            refs.append(loop.job(tracer))
            self_times.append(tracer.self_seconds())
            counts.append(tracer.counts())
            outside.append(tracer.job_self_s)
    finally:
        tracer.uninstall()
    repeat = counts[0] == counts[1]
    if not repeat:
        diff = {k: (counts[0][k], counts[1][k]) for k in counts[0] if counts[0][k] != counts[1][k]}
        print(f"{args.workload}: counts differ between the two traced jobs: {diff}", file=sys.stderr)
    self_s = {k: statistics.mean(t[k] for t in self_times) for k in self_times[0]}
    metrics = tracer.layer_metrics(self_s, statistics.mean(refs) / untraced - 1)
    print(f"{args.workload}: reference s: untraced job {untraced:.4f}, traced jobs "
          f"{['%.4f' % r for r in refs]}, counts repeat: {'yes' if repeat else 'no'}")
    traced = statistics.mean(loop.walls[-2:])
    shares = sorted(((s / traced, k) for k, s in self_s.items()), reverse=True)
    shares.append((statistics.mean(outside) / traced, "(outside every span)"))
    print(f"{args.workload}: self-time shares of the traced job: "
          + ", ".join(f"{k} {v:.3f}" for v, k in shares if v >= 0.001))
    return loop, metrics


def _all(args) -> dict:
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        lines = _child(["--workload", name, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace)])
        print("\n".join(line for line in lines if line.startswith(f"{name}: ")))
        part = json.loads(lines[-1])
        result["correct"] = result["correct"] and part["correct"]
        result["attempted"] += part["attempted"]
        result["failed"] += part["failed"]
        for metric, m in part["metrics"].items():
            result["metrics"][f"{name}.{metric}"] = m
    return result


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "boxcorr" / "__init__.py").is_file():
        print(f"no boxcorr sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe:
        wl, took, kernel_s = _setup(args.workload, args.seed)
        loop = Loop(wl, kernel_s)
        cold = loop.job() if args.probe == "job" else None
        print(json.dumps({"setup_s": took, "cold_job_s": cold,
                          "attempted": loop.attempted, "failed": loop.failed}))
        return 0
    if args.workload == "all":
        result = _all(args)
    else:
        loop, metrics = (_per_layer if args.trace else _end_to_end)(args)
        result = {"correct": loop.failed == 0, "attempted": loop.attempted,
                  "failed": loop.failed, "metrics": metrics}
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
