"""Germ sampling, the chunked Monte Carlo pass and the log-normal diffusivity fields.

Sampling is counter-based: a germ batch is fully determined by
(seed, iteration, purpose), and row `index` of a batch does not depend on
the batch size.  Distinct purposes ("gradient", "hessian", "pilot", ...)
therefore give non-colliding, independently reproducible streams without
any shared mutable state.  A germ batch is an (n, germ_dim) array.
"""

from __future__ import annotations

import ctypes
import os
import signal
import zlib
from dataclasses import dataclass

import numpy as np

# Germs per call in every Monte Carlo pass over more germs than a mini-batch;
# it bounds the (germs, points) temporaries, about 3 MiB each at 801 points.
# Fixed, not derived from the core count, so results are the same on any host.
GERM_CHUNK = 512


def _pin_malloc_thresholds():
    """Fix glibc's mmap and trim thresholds above a chunk's or an SGD iteration's temporaries.

    glibc raises them from 128 KiB only once some larger block is freed;
    until then every GERM_CHUNK pass and every iteration maps, faults in and
    unmaps its temporaries afresh.  Unpinned, one `perfbench/run.py` run on
    `semilinear-full` (2 cores, one BLAS thread) read solve_s 2.149 s against
    0.911 s pinned, and eval_s 0.643 s against 0.432 s.  A no-op where libc has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_pin_malloc_thresholds()


def over_chunks(values, germs: np.ndarray) -> np.ndarray:
    """`values` on GERM_CHUNK-row views of `germs`, results concatenated by row; an array
    with no rows is one empty chunk."""
    chunks = [germs[k : k + GERM_CHUNK] for k in range(0, len(germs) or 1, GERM_CHUNK)]
    return np.concatenate([values(chunk) for chunk in chunks])


def may_fork() -> bool:
    """Two usable cores and one thread (Linux lists them in /proc): a fork copies only the
    calling thread, so a lock that another held (BLAS's, malloc's) would stay held."""
    try:
        threads, cores = len(os.listdir("/proc/self/task")), len(os.sched_getaffinity(0))
    except (OSError, AttributeError):  # not Linux
        return False
    return threads == 1 and cores > 1 and hasattr(os, "fork")


def fork(child) -> int:
    """Fork a process that runs `child()`, SIGINT ignored as its parent ends it, and leaves by
    os._exit: 0, or 1 with the traceback on stderr where `child` raises.  Returns the pid."""
    pid = os.fork()
    if pid == 0:
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            child()
        except BaseException:
            import traceback

            os.write(2, traceback.format_exc().encode())
            os._exit(1)
        finally:
            os._exit(0)
    return pid


def _purpose_code(purpose: str) -> int:
    return zlib.crc32(purpose.encode("utf-8"))


@dataclass(eq=False)
class GermSampler:
    """Reproducible standard-normal germ streams keyed by (seed, iteration, purpose)."""

    seed: int
    dim: int

    def _rng(self, iteration: int, purpose: str) -> np.random.Generator:
        key = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(iteration, _purpose_code(purpose))
        )
        return np.random.default_rng(key)

    def sample_batch(self, iteration: int, size: int, purpose: str) -> np.ndarray:
        """Standard-normal germs of shape (size, dim); rows are batch-size invariant."""
        return self._rng(iteration, purpose).standard_normal((size, self.dim))

    def chunks(self, iteration: int, size: int, purpose: str):
        """The rows of `sample_batch(iteration, size, purpose)`, drawn GERM_CHUNK at a time;
        no rows are one empty chunk, as in `over_chunks`."""
        rng = self._rng(iteration, purpose)  # one stream, continued across draws
        for k in range(0, size or 1, GERM_CHUNK):
            yield rng.standard_normal((min(GERM_CHUNK, size - k), self.dim))


class LogNormalField:
    """kappa(x, Y) = exp(amplitude * Y @ rows(x)), a log-normal diffusivity.

    The exponent is linear in the standard-normal germ Y, so kappa is 1 at
    the germ mean.  A subclass sets `amplitude` and `germ_dim` and supplies
    `rows`.
    """

    amplitude: float
    germ_dim: int
    _grid: tuple = (None, None)  # the last grid `values` saw, as bytes, and its rows

    def rows(self, x: np.ndarray) -> np.ndarray:
        """Exponent rows r(x) at points x (n_pts,), shape (germ_dim, n_pts)."""
        raise NotImplementedError

    def values(self, x: np.ndarray, germs: np.ndarray) -> np.ndarray:
        """Field at points x (n_pts,) for germs (n, germ_dim) -> (n, n_pts); rows once per grid."""
        key = np.asarray(x, dtype=float).tobytes()
        if self._grid[0] != key:
            self._grid = key, self.rows(x)
        e = germs @ self._grid[1]
        e *= self.amplitude
        return np.exp(e, out=e)

    def scalar_values(self, germs: np.ndarray) -> np.ndarray | None:
        """Per-germ value (n,) of a field constant in x; None for a field varying in x."""
        return None

    def gradient_at_mean(self, x: np.ndarray) -> np.ndarray:
        """Germ-gradient of the field at the germ mean, shape (germ_dim, n_pts)."""
        # d/dy_k exp(a * y @ r) at y = 0 is a * r_k
        return self.amplitude * self.rows(x)


class TrigLogNormalField(LogNormalField):
    """kappa = exp(beta * V) with V a finite random Fourier series.

    V(x, Y) = (1/sqrt(n_pairs)) * sum_k A_k cos(2 pi k x / period)
                                      + B_k sin(2 pi k x / period)
    with germ layout (A_1..A_n, B_1..B_n).  V has zero mean and stationary
    covariance (1/n_pairs) sum_k cos(2 pi k (x2-x1) / period).
    """

    def __init__(self, amplitude: float, n_pairs: int, period: float):
        if n_pairs < 1:
            raise ValueError("need at least one harmonic pair")
        self.amplitude = amplitude
        self.n_pairs = n_pairs
        self.period = period
        self.germ_dim = 2 * n_pairs

    def rows(self, x):
        """Scaled cos/sin rows; V = germ @ rows."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        k = np.arange(1, self.n_pairs + 1)[:, None]
        angles = 2.0 * np.pi * k * x[None, :] / self.period
        scale = 1.0 / np.sqrt(self.n_pairs)
        return np.concatenate([np.cos(angles), np.sin(angles)]) * scale


class HomogeneousLogNormalField(LogNormalField):
    """Spatially constant kappa = exp(amplitude * (Y_1 + Y_2))."""

    amplitude = 0.2
    germ_dim = 2

    def rows(self, x):
        return np.ones((2, np.size(x)))

    def scalar_values(self, germs):
        """Column 0 of `values`, without the (n, n_pts) array."""
        return np.exp(self.amplitude * (germs[:, 0] + germs[:, 1]))
