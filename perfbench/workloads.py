"""The benchmark's workloads: problem sizes, SGD settings and evaluation calls.

Plain data, importable without pcsgd, so that run.py (which computes the
oracles) and the worker (which runs pcsgd) read the same numbers.  Sizes are
the experiment presets they are named after.
"""

from __future__ import annotations

from dataclasses import dataclass

N_EVAL = 100_000
CDF_GRID = (0.0, 1.0, 801)


@dataclass(frozen=True)
class Workload:
    name: str
    builtin: str          # pcsgd problem constructor
    problem_args: dict    # its keyword arguments
    sgd: dict             # SgdConfig keywords other than schedule and seed
    rate: tuple           # (numerator, offset) of the learning-rate schedule
    evals: tuple          # post-solve calls: ("energy",), ("l2", x) or ("cdf", x)
    solve_seed: int | None = None  # fixed SGD seed; None draws it from the run's seed

    @property
    def length(self) -> float:
        return float(self.problem_args["length"])

    @property
    def n_interior(self) -> int:
        return int(self.problem_args["n_interior"])

    @property
    def degree_bound(self) -> int:
        return int(self.problem_args["degree_bound"])

    @property
    def germ_dim(self) -> int:
        return 2 * self.problem_args["n_pairs"] if "n_pairs" in self.problem_args else 2


WORKLOADS = {
    w.name: w
    for w in (
        # table3 p=3: dense Hessian-block assembly dominates and indefinite
        # blocks trigger fallbacks.  The solve keeps the preset's seed 21: at
        # other seeds the identity fallback can wreck the step and the table3
        # accuracy criterion fails (seeds 7, 12 and 15 of 0..21).  The run's
        # seed draws the evaluation germs.
        Workload(
            name="semilinear-full",
            builtin="builtin_semilinear_homogeneous_field",
            problem_args=dict(length=12.0, n_interior=100, degree_bound=3),
            sgd=dict(
                n_iterations=1000, batch_gradient=100, batch_hessian=100,
                hessian_mode="full", record_stride=100, monitor_samples=10_000,
            ),
            rate=(10.0, 0.0),
            evals=(("energy",), ("l2", 0.5)),
            solve_seed=21,
        ),
        # The solve size with data that is not degenerate: the monitor of
        # 10,000 fixed germs at every iteration is most of the solve.
        Workload(
            name="linear-cv-monitored",
            builtin="builtin_linear_nonhomogeneous",
            problem_args=dict(beta=0.1, n_pairs=2, length=10.0, n_interior=50, degree_bound=3),
            sgd=dict(
                n_iterations=500, batch_gradient=128, batch_hessian=64,
                hessian_mode="linear-only", cv_mode="order1", cv_pilot_size=1000,
                record_stride=1, monitor_samples=10_000,
            ),
            rate=(5.0, 2.0),
            evals=(("energy",), ("cdf", 2.0)),
        ),
        # Staged arm of fig-staged-hessian: the 256-germ gradient batch and
        # 35 block solves dominate; both Hessian stages run in one solve.  The
        # solve keeps the preset's seed 0: at seed 36 the staged arm misses
        # its 1e-3 energy gap (5.9e-3).  The run's seed draws the evaluation germs.
        Workload(
            name="semilinear-staged",
            builtin="builtin_semilinear_nonhomogeneous_field",
            problem_args=dict(beta=0.3, n_pairs=2, length=12.0, n_interior=50, degree_bound=3),
            sgd=dict(
                n_iterations=500, batch_gradient=256, batch_hessian=64,
                hessian_mode="staged", n_switch=100, init="gaussian", init_scale=0.1,
                record_stride=10, monitor_samples=2000,
            ),
            rate=(5.0, 2.0),
            evals=(("energy",),),
            solve_seed=0,
        ),
    )
}


def seeds(workload: Workload, seed: int) -> dict:
    """Every seed a run uses, derived from the one it is given.

    The offsets follow the experiment runners (energy +101, error +202,
    CDF +13); the oracle draws its own germs from a separate stream.
    """
    base = seed % 2**63
    return {
        "sgd": base if workload.solve_seed is None else workload.solve_seed,
        "energy": base + 101,
        "l2": base + 202,
        "cdf": base + 13,
        "oracle": base,
    }
