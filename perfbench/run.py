"""latticerl benchmark runner.

One workload per process:

    python3 perfbench/run.py --workload elbow_lattice_t1 --seed 1 \
        --seconds 30 --trace 0

prints a readable report, then as its last line one JSON object with the
keys correct, attempted, failed and metrics (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1). It exits 1 when a correctness
check fails. ``--workload all`` runs every workload untraced and traced, one
process at a time, and adds the tracing overhead. See perfbench/README.md.
"""

import os

# Pinned before numpy loads. One thread is at least as fast as two on these
# matrix sizes and varies less between runs.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

START = time.perf_counter()


def keep_heap() -> bool:
    """Have glibc malloc serve large arrays from the heap and never return
    freed memory to the OS. By default the update's temporaries are mapped
    and unmapped over and over: a reacher_lattice_t4_wide update took 261k
    page faults and 0.7 s of system time, and the faults' cost drifts with
    the host's load. With this setting it takes 0.5k faults."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_mmap_threshold, 1 << 30)
                and mallopt(m_trim_threshold, 2**31 - 1))


HEAP_KEPT = keep_heap()
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("elbow_lattice_t1", "reacher_diagonal",
             "reacher_lattice_t4_wide", "checkpoint_eval_cli")

# (name, unit) of the end-to-end metrics every workload reports
END_TO_END = (
    ("steps_per_s", "env-steps/s"),
    ("rollout_or_eval_s_p50", "s"),
    ("update_or_analyze_s_p50", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)


def machine_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "malloc_heap_kept": HEAP_KEPT,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import latticerl  # noqa: F401  (timed as part of set-up)
    import tracing
    import workloads

    import_s = time.perf_counter() - START
    tracer = tracing.Tracer()
    if trace:
        tracer.install()
    rec = workloads.Recorder()
    if trace:
        # a span of its own keeps the reference work out of the self time
        # of trainer.fit, inside which it runs
        rec.calibration = tracer.wrap("bench.calibrate",
                                      workloads.calibration_work)
    rec.add_timed("import_s", import_s)
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        if name in workloads.TRAINING:
            steps = workloads.run_training(name, seed, seconds, tracer, rec,
                                           workdir)
        else:
            steps = workloads.run_checkpoint_eval_cli(seed, seconds, tracer,
                                                      rec, workdir)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    s = rec.samples
    if not s.get("fit_s" if name in workloads.TRAINING else "analyze_s"):
        print(f"{name}: no operation completed", file=sys.stderr)
        for msg in rec.failures:
            print(f"FAILED {msg}", file=sys.stderr)
        return 1

    # end-to-end timings at the reference host speed, see README.md
    setup_s = s["import_s_ref"][0] + median(s["setup_s_ref"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # readable report: metric names as specified, as measured, with units
    # and sample counts
    if name in workloads.TRAINING:
        per_iteration = steps / workloads.TRAINING[name].iterations
        iteration_s = [r + u for r, u in zip(s["rollout_s_ref"],
                                              s["update_s_ref"])]
        steps_per_s = per_iteration / median(iteration_s)
        act, post = median(s["rollout_s_ref"]), median(s["update_s_ref"])
        report = [
            ("train_steps_per_s", steps * len(s["fit_s"]) / sum(s["fit_s"]),
             "env-steps/s", len(s["fit_s"])),
            ("rollout_steps_per_s",
             per_iteration * len(s["rollout_s"]) / sum(s["rollout_s"]),
             "env-steps/s", len(s["rollout_s"])),
            ("update_s_p50", median(s["update_s"]), "s", len(s["update_s"])),
        ]
    else:
        steps_per_s = steps / median(s["eval_s_ref"])
        act, post = median(s["eval_s_ref"]), median(s["analyze_s_ref"])
        report = [
            ("eval_steps_per_s", steps * len(s["eval_s"]) / sum(s["eval_s"]),
             "env-steps/s", len(s["eval_s"])),
            ("analyze_s", median(s["analyze_s"]), "s", len(s["analyze_s"])),
        ]

    if trace:
        metrics, unsteady = tracer.layer_metrics()
        metrics["trace.steps_per_s"] = steps_per_s
        rec.check(not unsteady,
                  f"counts differ between repetitions: {unsteady}")
        tracer.dump(OUT / f"{name}.spans.json")
        units = {n: u for n, u, _ in tracing.PER_LAYER}
    else:
        metrics = {"steps_per_s": steps_per_s, "rollout_or_eval_s_p50": act,
                   "update_or_analyze_s_p50": post,
                   "peak_rss_mb": peak_rss_mb, "setup_s": setup_s}
        units = dict(END_TO_END)

    report += [
        ("setup_s", s["import_s"][0] + median(s["setup_s"]), "s",
         len(s["setup_s"])),
        ("peak_rss_mb", peak_rss_mb, "MiB", 1),
        ("op_failure_rate", rec.failed / len(rec.ops), "ratio",
         len(rec.ops)),
        ("host_speed", workloads.CAL_REF_S / median(s["cal_s"]),
         "x reference", len(s["cal_s"])),
    ]

    header = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "machine": machine_record()}
    print("# " + json.dumps(header))
    for metric, value, unit, n in report:
        print(f"{metric:24s} {value:.6g} {unit} (n={n})")
    for key, value in rec.record.items():
        print(f"{key:24s} {value}")
    for msg in rec.failures:
        print(f"FAILED {msg}")

    if trace:
        for metric, value in metrics.items():
            print(f"{metric:40s} {value:.10g} {units[metric]}")
    with open(OUT / f"{name}.trace{int(trace)}.json", "w") as fh:
        json.dump({**header, "report": report, "record": rec.record,
                   "failures": rec.failures, "metrics": metrics}, fh,
                  indent=1)
    correct = not rec.failures
    print(json.dumps({
        "correct": correct,
        "attempted": len(rec.ops),
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced then traced, one process at a time."""
    status = 0
    rows = []
    for name in WORKLOADS:
        rates = []
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False)
            print(proc.stdout, end="", flush=True)
            status = status or proc.returncode
            if proc.returncode != 0:
                break
            metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
            rates.append(metrics["steps_per_s" if trace == 0
                                 else "trace.steps_per_s"]["value"])
        if len(rates) == 2:
            rows.append((name, rates[0], rates[1]))
    print("tracing overhead (steps/s untraced -> traced):")
    for name, plain, traced in rows:
        print(f"  {name:26s} {plain:10.1f} -> {traced:10.1f} "
              f"({plain / traced - 1.0:+.1%} time)")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "latticerl" / "__init__.py").is_file():
        print(f"error: no latticerl sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
