"""Benchmark of the hybridgi package, run through ``hybridgi.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Lines before it print each metric with its unit and the
environment. Details go to ``.perfbench/<workload>-seed<N>-trace<T>.json``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120
MIN_OPS = 3
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "experiments_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def cap_blas_threads() -> int:
    """Limit BLAS threads to the CPUs this process may use; numpy reads
    these variables once, when it is first imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def import_program():
    """Import hybridgi.cli from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "hybridgi" / "cli.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'hybridgi'}")
    sys.path.insert(0, str(SRC))
    import hybridgi.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "hybridgi").resolve():
        sys.exit(f"perfbench: imported hybridgi from {cli.__file__}, not {SRC}")
    return cli


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with at
    least TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(samples)
    count = len(ordered)
    index = count - TAIL_BEYOND - 1 if count > TAIL_BEYOND else count - 1
    return ordered[index], 100.0 * (index + 1) / count, count - index - 1


def environment(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        rev = done.stdout.strip() or rev
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "git_rev": rev,
    }


def setup_probe(name: str, seed: int, tiny: bool, work_dir: Path) -> None:
    """Set-up as a fresh process pays it: import the CLI, generate the inputs.

    Prints the wall seconds and the contention probe's slowdown meanwhile.
    """
    import contention

    sampler = contention.Probe(with_arrays=False)
    sampler.start()
    start = time.perf_counter()
    import_program()
    import workloads

    workloads.WORKLOADS[name](work_dir, seed, tiny).prepare()
    end = time.perf_counter()
    sampler.stop()
    print(json.dumps({"seconds": end - start, "slowdown": sampler.slowdown(start, end)}))


def measure_setup(args, work_root: Path) -> list[dict]:
    """Set-up samples from fresh processes; the first, which may compile
    bytecode and fill the file cache, is not kept."""
    samples = []
    for i in range(SETUP_REPEATS + 1):
        work_dir = work_root / f"setup{i}"
        work_dir.mkdir(parents=True)
        command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(work_dir),
                   "--workload", args.workload, "--seed", str(args.seed)]
        if args.tiny:
            command.append("--tiny")
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        shutil.rmtree(work_dir)
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{done.stderr}")
        if i:
            samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


class Runner:
    """Runs ops of one workload and checks each op's outputs."""

    def __init__(self, cli, workload, capture):
        self.cli = cli
        self.workload = workload
        self.capture = capture
        self.attempted = 0
        self.failed = 0
        self.experiments = 0
        self.problems = []

    def op(self, tracer=None) -> tuple[float, float]:
        """Run one op; return its (start, end) clock readings."""
        self.attempted += 1
        self.capture.reset()
        if tracer:
            tracer.install()
            tracer.begin_op(self.attempted)
        codes = []
        start = time.perf_counter()
        try:
            for argv in self.workload.argvs():
                codes.append(self.cli.main(argv))
                if codes[-1] != 0:
                    break
        except (Exception, SystemExit):
            codes.append(traceback.format_exc())
        end = time.perf_counter()
        elapsed = end - start
        if tracer:
            tracer.uninstall()
            tracer.end_op(elapsed)
        if any(code != 0 for code in codes):
            problems = [f"op {self.attempted}: program exited with {codes[-1]}"]
        else:
            try:
                passed, problems = self.workload.check(self.capture)
            except (Exception, SystemExit):
                passed, problems = 0, [traceback.format_exc()]
            self.experiments += passed
            problems = [f"op {self.attempted}: {p}" for p in problems]
        if problems:
            self.failed += 1
            self.problems += problems
            print("\n".join(problems[:5]), file=sys.stderr)
        return start, end

    def loop(self, seconds: float, min_ops: int, next_tracer) -> list[tuple[float, float]]:
        """Run ops until the next one would end past ``seconds``; return
        their (start, end) spans.

        ``next_tracer(i)`` gives the tracer for op i, or None for an
        untraced op.
        """
        spans = []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if len(spans) >= min_ops and elapsed * (1 + 1 / len(spans)) > seconds:
                break
            spans.append(self.op(next_tracer(len(spans))))
        return spans


def run_workload(args) -> dict:
    nproc = cap_blas_threads()
    cli = import_program()
    import contention
    import hooks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of "
                 f"{', '.join(workloads.WORKLOADS)} or all")
    work_root = OUT_DIR / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_root, ignore_errors=True)
    try:
        setup_samples = measure_setup(args, work_root)
        workload = workloads.WORKLOADS[args.workload](work_root / "main", args.seed, args.tiny)
        workload.work_dir.mkdir(parents=True)
        workload.prepare()
        capture = hooks.Capture()
        capture.install()
        sampler = contention.Probe()
        sampler.start()
        try:
            runner = Runner(cli, workload, capture)
            runner.op()  # warm-up, untimed but checked
            warm_up_experiments = runner.experiments
            if args.trace:
                tracer = hooks.Tracer()
                spans = runner.loop(args.seconds, 2 * MIN_OPS,
                                    lambda i: tracer if i % 2 else None)
            else:
                spans = runner.loop(args.seconds, MIN_OPS, lambda i: None)
        finally:
            sampler.stop()
            capture.uninstall()
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    env = environment(nproc)
    op_ms = [1e3 * d for d in sampler.correct(spans)]
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "environment": env, "setup_samples": setup_samples,
               "op_ms": op_ms, "op_wall_ms": [1e3 * (end - start) for start, end in spans],
               "probe": {"samples": sampler.samples,
                         "median_slowdown": sampler.median_slowdown()},
               "problems": runner.problems}
    if args.trace:
        values = tracer.metrics(untraced_ms=op_ms[0::2], traced_ms=op_ms[1::2])
        units = {name: unit for name, (unit, _) in hooks.PER_LAYER.items()}
        details.update(wrapped_sites=tracer.sites, spans=tracer.spans,
                       counters=tracer.stats)
    else:
        setup_s = [s["seconds"] / s["slowdown"] for s in setup_samples]
        tail_ms, percentile, beyond = tail(op_ms)
        values = {
            "setup_s": statistics.median(setup_s),
            "op_p50_ms": statistics.median(op_ms),
            "op_tail_ms": tail_ms,
            "experiments_per_s": (runner.experiments - warm_up_experiments) / (sum(op_ms) / 1e3),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        details.update(setup_s=setup_s, tail={"percentile": percentile, "samples": len(op_ms),
                                              "beyond": beyond})
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    details["metrics"] = metrics

    OUT_DIR.mkdir(exist_ok=True)
    size = "-tiny" if args.tiny else ""
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}{size}.json"
    out_path.write_text(json.dumps(details, indent=1))

    print(f"workload {args.workload} seed {args.seed}: {runner.attempted} ops "
          f"(1 warm-up), {runner.failed} failed")
    print("environment " + json.dumps(env))
    for name, metric in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{percentile:.1f} of {len(op_ms)} ops, {beyond} beyond)"
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}{note}")
    wall_p50 = statistics.median(details["op_wall_ms"])
    print(f"  uncorrected op wall p50 {wall_p50:.6g} ms; contention probe: "
          f"{sampler.samples} samples, median slowdown {sampler.median_slowdown():.3f}")
    print(f"details -> {out_path}")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process; metrics named <workload>.<metric>."""
    cap_blas_threads()
    import_program()
    import workloads

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(int(args.trace))]
        if args.tiny:
            command.append("--tiny")
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with {done.returncode}")
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        result["correct"] = result["correct"] and one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        result["metrics"].update(
            {f"{name}.{metric}": value for metric, value in one["metrics"].items()}
        )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or all")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from wrapped calls")
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to a few pixels (smoke tests)")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        cap_blas_threads()
        setup_probe(args.workload, args.seed, args.tiny, Path(args.setup_probe))
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
