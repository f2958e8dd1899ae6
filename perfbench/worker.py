"""One workload round in its own process: set up, solve, evaluate.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|round [--trace-out FILE]

`setup` stops after package import and problem and Kernel construction.
`round` then runs `pcsgd.run` and the workload's evaluation calls, three
times when untraced (`eval_s` is their median), once when traced.  The
last line of standard output is one JSON object with the timings, peak
memory and raw outputs; run.py checks them against its oracles, so
nothing here computes a reference value.  With `--trace-out` the public
pcsgd calls are wrapped (see spans.py) and the per-layer figures are added.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

from workloads import CDF_GRID, N_EVAL, WORKLOADS, seeds  # noqa: E402

# Plain rounds repeat the evaluation calls and report the median time; the
# calls take 1-3 s, short enough for the host's second-scale noise to show.
EVAL_REPEATS = 3
EVAL_ROOTS = (
    "evaluation.estimate_energy",
    "evaluation.pointwise_l2_error",
    "evaluation.empirical_cdf",
)


def blas_threads() -> list[dict]:
    """Thread count and build of every OpenBLAS the process has loaded."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    found = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            try:
                threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            found.append({"lib": os.path.basename(path), "threads": threads(),
                          "config": config().decode()})
            break
    return found


def evaluate(pcsgd, workload, problem, c, s) -> dict:
    import numpy as np

    args = (problem, problem.mesh, problem.basis, c)
    out = {}
    for kind, *params in workload.evals:
        if kind == "energy":
            e = pcsgd.estimate_energy(*args, N_EVAL, s["energy"])
            out["energy"] = {"mean": e.mean, "se": e.standard_error}
        elif kind == "l2":
            e = pcsgd.pointwise_l2_error(*args, params[0], N_EVAL, s["l2"])
            out["l2"] = {"mean": e.mean, "se": e.standard_error}
        elif kind == "cdf":
            grid = np.linspace(*CDF_GRID)
            e = pcsgd.empirical_cdf(*args, [params[0]], [grid], N_EVAL, s["cdf"])
            out["cdf"] = e.probabilities.tolist()
        else:
            raise ValueError(f"unknown evaluation {kind!r}")
    return out


def layer_metrics(tracer, round_record) -> dict:
    from spans import ENERGIES, RUN

    solve_eval = tracer.self_times((RUN,) + EVAL_ROOTS)
    setup = tracer.self_times(("fem1d.tables",))
    counts = tracer.counts
    solves = counts["sgd.block_solves"]
    metrics = {
        "random_field.sample_batch_s": solve_eval.get("random_field.sample_batch", 0.0),
        "random_field.sample_batch_calls": counts["random_field.sample_batch_calls"],
        "random_field.kappa_s": solve_eval.get("random_field.kappa", 0.0),
        "pc_basis.psi_s": solve_eval.get("pc_basis.psi", 0.0),
        "pc_basis.psi_germs": counts["pc_basis.psi_germs"],
        "fem1d.tables_s": setup.get("fem1d.tables", 0.0),
        "estimators.germs_evaluated": counts["estimators.germs_evaluated"],
        "sgd.iterations": counts["sgd.iterations"],
        "sgd.self_s": solve_eval.get(RUN, 0.0),
        "sgd.monitor_s": tracer.inclusive_time(ENERGIES, RUN),
        "sgd.monitor_germs": counts["sgd.monitor_germs"],
        "sgd.precondition_solve_s": solve_eval.get("sgd.precondition_solve", 0.0),
        "sgd.block_solves": solves,
        "sgd.block_fallbacks": counts["sgd.block_fallbacks"],
        "sgd.block_solve_ok_ratio": (solves - counts["sgd.block_fallbacks"]) / solves,
        "evaluation.germs": counts["evaluation.germs"],
    }
    for layer in ("solution_values", "gradient_parts", "cv", "hessian_blocks", "energies"):
        metrics[f"estimators.{layer}_s"] = solve_eval.get(f"estimators.{layer}", 0.0)
    for root in EVAL_ROOTS:
        metrics[f"{root}_s"] = solve_eval.get(root, 0.0)
    round_record["span_self_sum_s"] = sum(solve_eval.values())
    round_record["span_count"] = len(tracer.spans)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "round"))
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    s = seeds(workload, args.seed)

    start = perf_counter()
    sys.path.insert(0, SRC)
    import pcsgd

    if os.path.dirname(os.path.dirname(os.path.abspath(pcsgd.__file__))) != SRC:
        raise ImportError(f"pcsgd imported from {pcsgd.__file__}, not from {SRC}")
    import_s = perf_counter() - start
    tracer = None
    if args.trace_out:
        import spans

        tracer = spans.install(pcsgd)
    problem = getattr(pcsgd, workload.builtin)(**workload.problem_args)
    pcsgd.kernel_for(problem)
    record = {"setup_s": perf_counter() - start, "import_s": import_s}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    repeats = 1 if tracer else EVAL_REPEATS
    eval_calls = len(workload.evals) * repeats
    record["attempted"] = 1 + eval_calls
    record["failed"] = 0
    config = pcsgd.SgdConfig(
        schedule=pcsgd.LearningRateSchedule(*workload.rate), seed=s["sgd"], **workload.sgd
    )
    start = perf_counter()
    try:
        trajectory, c = pcsgd.run(problem, problem.mesh, problem.basis, config)
    except Exception:  # a failed solve is reported, not fatal
        traceback.print_exc()
        record["failed"] = record["attempted"]  # the evaluation calls cannot run
        print(json.dumps(record))
        return 0
    record["solve_s"] = perf_counter() - start

    times = []
    try:
        for _ in range(repeats):
            start = perf_counter()
            record["outputs"] = evaluate(pcsgd, workload, problem, c, s)
            times.append(perf_counter() - start)
    except Exception:
        traceback.print_exc()
        record["failed"] = eval_calls
    record["eval_s"] = statistics.median(times) if times else None
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record["c"] = c.tolist()
    record["trajectory"] = {
        "iterations": trajectory.iterations.tolist(),
        "energy_mean": trajectory.energy_mean.tolist(),
        "energy_se": trajectory.energy_se.tolist(),
    }
    record["blas"] = blas_threads()
    record["pcsgd"] = pcsgd.__version__
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, record)
        tracer.write(args.trace_out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
