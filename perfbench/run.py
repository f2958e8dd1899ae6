"""pcsgd solver benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout.  Every round is one worker process
(worker.py) with BLAS pinned to one thread, started only after the previous
one has ended; rounds repeat until S seconds have passed, and at least one
runs.  Each round's outputs are checked here against the oracles of
oracles.py, which do not use pcsgd.

--trace 0 reports the end-to-end metrics: set-up, solve and evaluation time
and peak memory, as medians over rounds (set-up also over extra set-up-only
processes).  --trace 1 runs each round twice, plain and traced, and reports
the per-layer metrics of the traced process and the difference between the
two as trace.overhead_s.  The last line of standard output is the JSON
result; a record with the environment goes to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np
import scipy

import oracles
import selftest
from workloads import CDF_GRID, N_EVAL, WORKLOADS, seeds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 8
TIME_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

END_TO_END = {"setup_s": "s", "solve_s": "s", "eval_s": "s", "peak_rss_mb": "MiB"}
LAYER_UNITS = {"_s": "s", "_ratio": "ratio"}


class BenchmarkError(RuntimeError):
    pass


class Workers:
    """Starts worker processes one at a time inside the run's time limit."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = perf_counter()
        self.env = dict(os.environ, **{var: "1" for var in THREAD_VARS})

    def __call__(self, mode: str, trace_out: str | None = None) -> dict:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        left = TIME_LIMIT_S - (perf_counter() - self.started)
        if left <= 0:
            raise BenchmarkError("time limit reached before the worker could start")
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                              text=True, timeout=left)
        if proc.returncode != 0:
            raise BenchmarkError(f"worker {mode} exited with code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


# -- oracles and checks --------------------------------------------------------


class Oracle:
    """Exact minimum and per-germ references for one workload and seed."""

    def __init__(self, workload, seed: int):
        self.w = workload
        args = workload.problem_args
        self.germs = oracles.oracle_germs(seed, N_EVAL, workload.germ_dim)
        if workload.name == "semilinear-full":
            self.minimum = oracles.semilinear_full_expected_energy(workload.length)
            self.kappa = oracles.homogeneous_kappa(self.germs)
            self.tolerance = 0.01 * abs(self.minimum)
        elif workload.name == "linear-cv-monitored":
            self.minimum = oracles.linear_expected_energy(
                args["beta"], args["n_pairs"], workload.length)
            self.solution_at_cdf_point = oracles.linear_solution(
                workload.evals[1][1], self.germs, args["beta"], args["n_pairs"],
                workload.length)
            # the optimization and discretization gap, which is never negative
            self.tolerance = 1e-4 * abs(self.minimum)
        else:
            self.minimum = -workload.length  # u = 0 minimizes every germ's energy
            self.tolerance = 1e-3

    def energy_ok(self, mean: float, se: float) -> bool:
        """The final estimate is within the workload's tolerance of the exact minimum.

        Only the linear check allows for Monte Carlo error, 4 standard errors
        on either side; the others are the experiments' own criteria.
        """
        gap = mean - self.minimum
        if self.w.name == "linear-cv-monitored":
            return -4.0 * se <= gap <= 4.0 * se + self.tolerance
        return abs(gap) <= self.tolerance

    def iters_to_tol(self, trajectory: dict) -> int:
        """First recorded iteration within tolerance; iterations + 1 if none.

        The monitor averages 2,000 or 10,000 fixed germs, so 4 of its standard
        errors are added to the tolerance: on `semilinear-full` its last figure
        lies 0.51 above the minimum, outside the 1% (0.45), while the 1e5-germ
        estimate of the same coefficients is inside it.
        """
        for n, mean, se in zip(trajectory["iterations"], trajectory["energy_mean"],
                               trajectory["energy_se"]):
            if abs(mean - self.minimum) <= self.tolerance + 4.0 * se:
                return int(n)
        return int(self.w.sgd["n_iterations"]) + 1

    def check(self, r: dict) -> list[tuple[str, float, str, bool]]:
        """(name, measured value, limit, passed) for every check of one round."""
        w = self.w
        c = np.asarray(r["c"])
        energy = r["outputs"]["energy"]
        checks = [
            ("coefficients finite", float(np.isfinite(c).mean()), "== 1", bool(np.isfinite(c).all())),
            ("energy - exact minimum", energy["mean"] - self.minimum, "workload tolerance",
             self.energy_ok(energy["mean"], energy["se"])),
        ]
        if w.name == "semilinear-full":
            x = w.evals[1][1]
            u_c = oracles.expansion_at(c, x, self.germs, w.length, w.n_interior, w.degree_bound)
            mse = float(np.mean((oracles.semilinear_full_solution(x, self.kappa) - u_c) ** 2))
            checks += [
                ("pcsgd mean-square error at x", r["outputs"]["l2"]["mean"], "<= 5e-4",
                 r["outputs"]["l2"]["mean"] <= 5e-4),
                ("oracle mean-square error at x", mse, "<= 5e-4", mse <= 5e-4),
            ]
        elif w.name == "linear-cv-monitored":
            cdf = np.asarray(r["outputs"]["cdf"])
            ks = oracles.kolmogorov(cdf, self.solution_at_cdf_point, np.linspace(*CDF_GRID))
            checks += [
                ("CDF Kolmogorov distance", ks, "<= 0.07", ks <= 0.07),
                ("CDF non-decreasing", float(np.min(np.diff(cdf))), ">= 0",
                 bool(np.all(np.diff(cdf) >= 0))),
            ]
        else:
            t = r["trajectory"]
            below = [m - self.minimum + se for m, se in
                     zip(t["energy_mean"] + [energy["mean"]], t["energy_se"] + [energy["se"]])]
            checks.append(("least (estimate + se) - minimum", min(below), ">= 0",
                           min(below) >= 0))
        return checks


# -- the run ---------------------------------------------------------------


def environment(rounds: list[dict], s: dict) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "pcsgd")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                digest.update(name.encode() + f.read())
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pcsgd": rounds[0].get("pcsgd"),
        "blas": rounds[0].get("blas"),
        "thread_env": {var: "1" for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "processes_at_once": 1,
        "seeds": s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pcsgd solver benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pcsgd", "__init__.py")):
        print(f"no pcsgd sources under {ROOT}/src", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    s = seeds(workload, args.seed)
    worker = Workers(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setups = [] if args.trace else [worker("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    start = perf_counter()
    while True:
        plain.append(worker("round"))
        if args.trace:
            traced.append(worker("round", os.path.join(OUT, f"{tag}-round{len(traced)}.jsonl")))
        if perf_counter() - start >= args.seconds:
            break

    rounds = plain + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    oracle = Oracle(workload, s["oracle"])
    checks = [(f"oracle self-test: {name}", err, f"<= {tol:g}", err <= tol)
              for name, err, tol in selftest.checks()]
    checks += [chk for r in rounds if not r["failed"] for chk in oracle.check(r)]
    done = [r for r in plain if not r["failed"]]

    if args.trace:
        pairs = [(p, t) for p, t in zip(plain, traced) if not p["failed"] and not t["failed"]]
        for _, t in pairs:
            total = t["solve_s"] + t["eval_s"]
            checks.append(("span self-time sum - (solve_s + eval_s)",
                           t["span_self_sum_s"] - total, "<= 0", t["span_self_sum_s"] <= total))
        values = {name: statistics.median(t["layers"][name] for _, t in pairs)
                  for name in pairs[0][1]["layers"]}
        values["sgd.iters_to_tol"] = statistics.median(
            oracle.iters_to_tol(t["trajectory"]) for _, t in pairs)
        values["trace.overhead_s"] = statistics.median(
            (t["solve_s"] + t["eval_s"]) - (p["solve_s"] + p["eval_s"]) for p, t in pairs)
        metrics = {
            name: {"value": value, "unit": next(
                (u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix)), "count")}
            for name, value in sorted(values.items())
        }
    else:
        values = {name: statistics.median(r[name] for r in done) for name in END_TO_END}
        values["setup_s"] = statistics.median(setups + [r["setup_s"] for r in plain])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    checks = [(name, float(value), limit, bool(ok)) for name, value, limit, ok in checks]
    correct = all(ok for *_, ok in checks)
    env = environment(rounds, s)
    for name, value, limit, ok in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {value:.6g} ({limit})")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"rounds={len(plain)} setup_samples={len(setups) + len(plain)} env={json.dumps(env)}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, f"{tag}.json"), "w") as f:
        json.dump({"result": result, "env": env, "checks": checks,
                   "rounds": [{k: v for k, v in r.items() if k not in ("c", "outputs")}
                              for r in rounds]}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchmarkError, subprocess.TimeoutExpired) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        sys.exit(1)
