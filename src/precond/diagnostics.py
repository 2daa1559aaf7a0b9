"""Chain diagnostics: ESS, autocorrelations, acceptance, gap surrogates."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import PrecondError, ZeroVarianceError
from .samplers import Trace

# Shortest series whose effective sample size is computed.
MIN_ESS_POINTS = 100


def _demean(series: np.ndarray) -> np.ndarray:
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise PrecondError("series must be one-dimensional")
    if not np.isfinite(series).all():
        raise PrecondError("series contains non-finite values")
    return series - series.mean()


def lag_autocorrelation(series: np.ndarray, k: int) -> float:
    """Biased-normalized autocorrelation at lag k."""
    x = _demean(series)
    n = x.shape[0]
    if not 0 <= k < n / 2:
        raise PrecondError(f"lag {k} must satisfy 0 <= k < n/2 = {n / 2}")
    var = float(x @ x)
    if var == 0.0:
        raise ZeroVarianceError("series has zero variance")
    return float(x[: n - k] @ x[k:] / var)


def _autocorr_fft(x: np.ndarray, k_max: int) -> np.ndarray:
    """Autocorrelations for lags 0..k_max via FFT, biased normalization."""
    n = x.shape[0]
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[: k_max + 1]
    return acov / acov[0]


def ess(series: np.ndarray, k_max: int | None = None) -> float:
    """Effective sample size with the initial-monotone-sequence truncation.

    Sums autocorrelations over pairs Gamma_m = rho_{2m} + rho_{2m+1} while
    the pair sums stay positive, enforcing monotone decrease, and returns
    n / (-1 + 2 * sum Gamma).
    """
    x = _demean(series)
    n = x.shape[0]
    if n < MIN_ESS_POINTS:
        raise PrecondError(f"need at least {MIN_ESS_POINTS} points for ESS, got {n}")
    if float(x @ x) == 0.0:
        raise ZeroVarianceError("series has zero variance")
    if k_max is None:
        k_max = min(n // 2, 10_000)
    rho = _autocorr_fft(x, k_max)
    tau = 0.0
    prev = math.inf
    for m in range(0, (k_max - 1) // 2 + 1):
        gamma = rho[2 * m] + rho[2 * m + 1]
        if gamma <= 0.0:
            break
        gamma = min(gamma, prev)  # enforce monotone decrease
        prev = gamma
        tau += gamma
    iat = max(-1.0 + 2.0 * tau, 1e-12)
    return float(n / iat)


@dataclass(frozen=True)
class EssReport:
    per_dimension: np.ndarray
    median: float
    n: int

    def __post_init__(self):
        if self.per_dimension.size == 0:
            raise PrecondError("per-dimension ESS is empty")


def ess_report(states: np.ndarray) -> EssReport:
    """Per-dimension ESS of a (n, d) chain with its median."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    per_dim = np.array([ess(states[:, j]) for j in range(states.shape[1])])
    return EssReport(
        per_dimension=per_dim,
        median=float(np.median(per_dim)),
        n=states.shape[0],
    )


def acceptance_rate(trace: Trace) -> float:
    if trace.accepted.size == 0:
        raise PrecondError("trace is empty")
    return float(trace.accepted.mean())


def empirical_gap_upper(
    trace: Trace, v: np.ndarray, batches: int = 32
) -> tuple[float, float]:
    """Dirichlet-form surrogate 1 - rho_1 of <v, X_t>, with a batch-means SE.

    Converges to E(P, g)/Var(g) for g(x) = <v, x - mean>, a quantity at least
    as large as the spectral gap.
    """
    v = np.asarray(v, dtype=float)
    if np.linalg.norm(v) == 0:
        raise PrecondError("direction v must be nonzero")
    proj = trace.states @ v
    x = _demean(proj)
    n = x.shape[0]
    var = float(x @ x)
    if var == 0.0:
        raise PrecondError("projected series is degenerate")
    estimate = 1.0 - float(x[:-1] @ x[1:] / var)
    # batch-means standard error of the lag-1 estimate
    if batches < 2 or n < 2 * batches:
        raise PrecondError("too few points for batch-means standard error")
    size = n // batches
    vals = []
    for b in range(batches):
        seg = x[b * size : (b + 1) * size]
        seg = seg - seg.mean()
        svar = float(seg @ seg)
        if svar > 0:
            vals.append(1.0 - float(seg[:-1] @ seg[1:] / svar))
    vals = np.asarray(vals)
    se = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else math.inf
    return estimate, se


def ess_rows_csv(
    reports: list[tuple[str, str, int, int, float, EssReport]]
) -> str:
    """Long-format CSV of (run_id, preconditioner, d, n, mu, report) tuples.

    Columns: run_id, preconditioner, d, n, mu, dim, ess, median_flag.
    """
    buf = io.StringIO()
    buf.write("run_id,preconditioner,d,n,mu,dim,ess,median_flag\n")
    for run_id, label, d, n, mu, report in reports:
        med = report.median
        for j, val in enumerate(report.per_dimension):
            flag = int(val == med)
            buf.write(
                f"{run_id},{label},{d},{n},{mu!r},{j + 1},{float(val)!r},{flag}\n"
            )
    return buf.getvalue()
