"""Chain diagnostics: ESS and acceptance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PrecondError, ZeroVarianceError
from .samplers import Trace

# Shortest series whose effective sample size is computed.
MIN_ESS_POINTS = 100


def ess(series: np.ndarray) -> float:
    """Effective sample size with the initial-monotone-sequence truncation.

    Sums autocorrelations over pairs Gamma_m = rho_{2m} + rho_{2m+1} while
    the pair sums stay positive, enforcing monotone decrease, and returns
    n / (-1 + 2 * sum Gamma).
    """
    column = np.asarray(series, dtype=float)[..., None]
    return float(ess_report(column).per_dimension[0])


@dataclass(frozen=True)
class EssReport:
    per_dimension: np.ndarray
    median: float
    n: int
    # per dimension: Geyer's pair sums were still positive at the last lag
    # summed, min(n/2, 10 000), so the ESS may be overstated
    truncated: np.ndarray

    def __post_init__(self):
        if self.per_dimension.size == 0:
            raise PrecondError("per-dimension ESS is empty")


def ess_report(states: np.ndarray) -> EssReport:
    """Per-dimension ESS of a (n, d) chain with its median; see :func:`ess`.

    A 1-d series is read as one column. The columns run as one batch, each
    bit for bit as on its own. Errors are checked column by column
    (non-finite, too short, zero variance), and the first failing column's
    error is raised.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    if states.ndim != 2:
        raise PrecondError("series must be one-dimensional")
    n, d = states.shape
    if d == 0:
        raise PrecondError("per-dimension ESS is empty")
    # contiguous rows, so each mean sums pairwise as a lone series's does
    x = np.ascontiguousarray(states.T)
    finite = np.isfinite(x).all(axis=1)
    # a constant column, tested as is: its float mean need not be the
    # constant, so the demeaned column need not be zero
    constant = (x == x[:, :1]).all(axis=1)
    bad = ~finite | (n < MIN_ESS_POINTS) | constant
    if bad.any():
        j = int(np.argmax(bad))
        if not finite[j]:
            raise PrecondError("series contains non-finite values")
        if n < MIN_ESS_POINTS:
            raise PrecondError(f"need at least {MIN_ESS_POINTS} points for ESS, got {n}")
        raise ZeroVarianceError("series has zero variance")
    x = x - x.mean(axis=1, keepdims=True)
    k_max = min(n // 2, 10_000)
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft, axis=1)
    power = np.empty_like(f)
    for j, r in enumerate(f):  # row by row: a 2-d product rounds differently
        power[j] = r * np.conj(r)
    acov = np.fft.irfft(power, nfft, axis=1)[:, : k_max + 1]
    rho = acov / acov[:, :1]
    pairs = (k_max - 1) // 2 + 1
    gamma = rho[:, 0 : 2 * pairs : 2] + rho[:, 1 : 2 * pairs : 2]
    kept = np.logical_and.accumulate(gamma > 0.0, axis=1)
    monotone = np.minimum.accumulate(gamma, axis=1)
    # cumsum adds in order, as the scalar recipe does; np.sum would not
    tau = np.cumsum(np.where(kept, monotone, 0.0), axis=1)[:, -1]
    per_dim = n / np.maximum(-1.0 + 2.0 * tau, 1e-12)
    return EssReport(per_dimension=per_dim, median=float(np.median(per_dim)), n=n,
                     truncated=kept[:, -1])


def acceptance_rate(trace: Trace) -> float:
    if trace.accepted.size == 0:
        raise PrecondError("trace is empty")
    return float(trace.accepted.mean())
