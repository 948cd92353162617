"""ppgemo benchmark: one workload per invocation, in a fresh process.

    python3 perfbench/run.py --workload loso_small --seed 0 --seconds 20 --trace 0

Builds nothing: it imports ppgemo from ``src/`` of the checkout it sits in and
exits 2 if that is missing. It sets one BLAS thread before numpy is imported,
so that worker threads x BLAS threads <= nproc: the workloads' matrix products
are too small for OpenBLAS to split (a second thread changed no step or batch
time), and an idle second thread would only wait on a shared host. It prints every
metric with its unit, then an environment record, and as the last line
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the same loop with spans around every
layer and reports the per-layer metrics. The result, with the environment
and the checks, is also written to ``.bench_out/`` in the checkout, and a
traced run writes its spans there.

End-to-end metrics, per workload:
  setup_s        median of the set-up repeats (inputs, dataset writing,
                 model build, warm-up)
  op_s_p50       median seconds of one operation: the whole ``loso`` command
                 (loso_small), one B=512 train step (train_b512), one
                 256-window predict_proba batch: each variant's median,
                 averaged over the three variants (infer_b256)
  windows_per_s  windows through forward+backward+Adam (loso_small,
                 train_b512) or scored (infer_b256) per timed second
  peak_rss_mb    peak resident memory of this process
Failed operations over attempted ones are the ``failed`` and ``attempted``
fields (and ``error_rate`` of the traced run).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# Worker threads each workload runs in parallel: loso_small's fold pool.
THREADS = {"loso_small": 2, "train_b512": 1, "infer_b256": 1}
E2E_UNITS = {"setup_s": "s", "op_s_p50": "s", "windows_per_s": "1/s", "peak_rss_mb": "MB"}
# The traced train_b512 run must attribute its step time to the stages, the
# loss and Adam to within this share.
COVERAGE_TOLERANCE = 0.10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(THREADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny shapes, for the benchmark's own tests")
    p.add_argument("--inject-nan", action="store_true", help="poison one input sample (tests error counting)")
    p.add_argument("--write-reference", action="store_true",
                   help="store this run's outputs as the reference for the default seed")
    return p.parse_args(argv)


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent), "GIT_CONFIG_NOSYSTEM": "1",
           "HOME": str(ROOT)}
    done = subprocess.run(["git", "--no-optional-locks", "-C", str(ROOT), *args],
                          capture_output=True, text=True, env=env, check=False)
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_times() -> list[int] | None:
    """Machine-wide CPU jiffies (user, nice, system, idle, iowait, irq,
    softirq, steal), to tell how much CPU the hypervisor took during a run."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def environment(nproc: int, threads: int, blas_threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "worker_threads": threads,
        "blas_threads": blas_threads,
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "ppgemo" / "__init__.py").is_file():
        print(f"error: no ppgemo sources in {src}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = THREADS[args.workload]
    blas_threads = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads)
    load_before, cpu_before = os.getloadavg(), cpu_times()
    sys.path.insert(0, str(src))

    import ppgemo  # noqa: E402  (after the BLAS setting and the path)

    if Path(ppgemo.__file__).resolve().parent != (src / "ppgemo").resolve():
        print(f"error: ppgemo imported from {ppgemo.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer, per_layer_units

    if args.write_reference and (args.smoke or args.seed != workloads.DEFAULT_SEED):
        print(f"error: the reference is the full-size run of seed {workloads.DEFAULT_SEED}", file=sys.stderr)
        return 2

    setting = workloads.SMOKE if args.smoke else workloads.FULL
    tracer = Tracer() if args.trace else None
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = workloads.WORKLOADS[args.workload]
        outcome = run(setting, args.seed, args.seconds, tracer, args.inject_nan, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer:
        values = tracer.metrics(outcome.counts, outcome.attempted, outcome.failed)
        units = per_layer_units()
        if args.workload == "train_b512":
            outcome.checks["trace_coverage"] = abs(1.0 - values["trace.coverage_frac"]) <= COVERAGE_TOLERANCE
    else:
        values = {
            "setup_s": outcome.setup_s,
            "op_s_p50": outcome.op_s_p50,
            "windows_per_s": outcome.windows / sum(outcome.op_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = outcome.failed == 0 and all(outcome.checks.values())

    env = environment(nproc, threads, blas_threads)
    env["loadavg_before"] = load_before
    env["loadavg_after"] = os.getloadavg()
    cpu_after = cpu_times()
    if cpu_before and cpu_after:
        spent = [b - a for a, b in zip(cpu_before, cpu_after)]
        env["cpu_steal_frac"] = spent[7] / max(sum(spent), 1)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "operations": len(outcome.op_s),
        "op_s": outcome.op_s,
        "checks": outcome.checks,
        "info": outcome.info,
        "environment": env,
    }
    result = {"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed, "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(json.dumps({**record, "result": result}, indent=1))
    if tracer:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(tracer.dump()))
    if args.write_reference:
        ref = json.loads(workloads.REFERENCE.read_text()) if workloads.REFERENCE.exists() else {}
        ref[args.workload] = outcome.outputs
        workloads.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")

    width = max(len(n) for n in metrics)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:>14.6g}  {m['unit']}")
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"error_rate {error_rate:.4g} ({outcome.failed}/{outcome.attempted}); checks {outcome.checks}; "
          f"info {outcome.info}")
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
