"""pacverify benchmark: time fixed specs end to end, and each layer when traced.

    python3 bench/run.py --workload intervals-honest --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                      # every workload, each in its own process

Run from the repository root; the program is imported from ``src/``. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md.
"""

import os
import sys

# Pin the load before numpy is imported: one process, one BLAS thread. An
# inherited PACVERIFY_WORKERS would fan trials out over processes.
os.environ["PACVERIFY_WORKERS"] = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import time
from pathlib import Path

import checks
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 11
WORKLOAD_NAMES = ("intervals-honest", "sq-portfolio-honest", "sq-wide-transcripts",
                  "lowerbound-crossing")


def load_workloads():
    """Import the program from this checkout's src/, and nothing else."""
    if not (ROOT / "src" / "pacverify" / "__init__.py").is_file():
        sys.exit(f"error: {ROOT / 'src' / 'pacverify'} not found; run from a pacverify checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # bench/ is already first on sys.path, as the script's directory
    return workloads.WORKLOADS


def op_seed(workload: str, seed: int, index: int) -> int:
    """Root seed of operation `index` (0-based, warm-ups first) of a run."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def probe_setup(name: str) -> None:
    """Child process: import and set up, then report readiness."""
    workload = load_workloads()[name](ROOT)
    problems = workload.setup()
    print("ready " + json.dumps(problems), flush=True)


def time_setup(name: str) -> tuple:
    """Wall time from starting a fresh process to its first operation being
    ready, over SETUP_PROBES processes; returns (times, problems)."""
    times, problems = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, __file__, "--probe-setup", name],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            proc.wait(timeout=120)
        if proc.returncode != 0 or not line.startswith("ready "):
            raise RuntimeError(f"set-up probe for {name} failed (exit {proc.returncode})")
        problems += json.loads(line[len("ready "):])
    return times, problems


class Run:
    """One run of one workload: warm-ups, then operations until time is up."""

    def __init__(self, workload, seed: int, tracer=None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.successes: list = []
        self.times: list = []  # untraced timed operations; traced ones are in the spans

    def attempt(self, index: int, warmup: bool, traced: bool = False):
        """Run, time and check one operation; a failure is recorded, never raised."""
        wl = self.workload
        self.attempted += 1
        out = None
        problems: list = []
        if traced:
            self.tracer.install()
        try:
            start = time.perf_counter()
            if traced:
                with self.tracer.operation(index):
                    out = wl.op(op_seed(wl.name, self.seed, index), warmup)
            else:
                out = wl.op(op_seed(wl.name, self.seed, index), warmup)
            elapsed = time.perf_counter() - start
        except Exception as exc:
            problems.append(f"{type(exc).__name__}: {exc}")
        finally:
            if traced:
                self.tracer.uninstall()
        if not problems:
            try:
                problems, success = wl.check(out, warmup)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            else:
                if success is not None:
                    self.successes.append(success)
        wl.cleanup()
        if problems:
            self.failed += 1
            for p in problems:
                print(f"op {index}{' (traced)' if traced else ''} failed: {p}", file=sys.stderr)
            return None
        if not (warmup or traced):
            self.times.append(elapsed)
        return out

    def measure(self, seconds: float) -> None:
        wl = self.workload
        for index in range(wl.warmups):
            self.attempt(index, warmup=True)
        index = wl.warmups
        start = time.perf_counter()
        while index == wl.warmups or time.perf_counter() - start < seconds:
            if self.tracer is None:
                self.attempt(index, warmup=False)
            else:
                # alternate which copy runs first, so neither gains from the other's warm caches
                order = (False, True) if index % 2 == 0 else (True, False)
                outs = {traced: self.attempt(index, warmup=False, traced=traced) for traced in order}
                if None not in outs.values() and wl.outcome(outs[False]) != wl.outcome(outs[True]):
                    self.failed += 1
                    print(f"op {index} (traced) failed: outcome differs from the untraced run",
                          file=sys.stderr)
            index += 1


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workloads = load_workloads()
    setup_times, problems = time_setup(name)
    workload = workloads[name](ROOT)
    problems += workload.setup()
    tracer = spans.Tracer() if trace else None
    run = Run(workload, seed, tracer)
    run.measure(seconds)

    delta = workload.spec.get("params", {}).get("delta", 0.0)
    misses = run.successes.count(False)
    allowed = checks.allowed_misses(len(run.successes), delta)
    if misses > allowed:
        problems.append(f"{misses} of {len(run.successes)} operations missed the guarantee; "
                        f"at most {allowed} are consistent with success rate >= {1 - delta}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    times = run.times
    guarantee = (f", {len(run.successes) - misses}/{len(run.successes)} met the guarantee"
                 if run.successes else "")
    print(f"{name}: seed {seed}, {run.attempted} operations attempted "
          f"({workload.warmups} warm-up), {run.failed} failed{guarantee}")
    if not times:
        metrics = {}
    elif trace:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{name}.jsonl")
        values = tracer.metrics(statistics.median(times))
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in spans.metric_units().items()}
        covered = 1.0 - values["trace.unattributed_s"] / values["trace.op_s"]
        print(f"  layer self times cover {covered:.1%} of the traced operation; "
              f"tracing overhead {values['trace.overhead_ratio']:+.1%}")
    else:
        metrics = {
            "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "op_s_p50": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        if len(times) >= 100:
            p90 = statistics.quantiles(times, n=10)[-1]
            print(f"  op_s_p90 {p90:.4f} s over {len(times)} operations")
    for key, m in metrics.items():
        if m["value"]:  # a traced run lists only the layers this workload exercises
            print(f"  {key:<34} {m['value']:.6g} {m['unit']}")
    return {"correct": not problems, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload in its own process, so peak memory is its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)],
                              stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload; default: all, each in its own process")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: trace the layers and report per-layer metrics")
    parser.add_argument("--probe-setup", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        probe_setup(args.probe_setup)
        return 0
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload:
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    else:
        result = run_all(args.seed, seconds, args.trace)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
