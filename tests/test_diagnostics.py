import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from precond import diagnostics, preconditioners, samplers, targets
from precond.errors import PrecondError, ZeroVarianceError
from precond.samplers import ChainConfig

import paper_results
from test_fixtures import one_chain


def _ar1(rho, n, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    noise = rng.standard_normal(n) * math.sqrt(1 - rho * rho)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + noise[t]
    return scale * x


def test_ess_iid():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(10000)
    val = diagnostics.ess(x)
    assert 0.9 * 10000 <= val <= 1.1 * 10000


def test_ess_ar1_analytic():
    # ESS of AR(1) is n (1-rho)/(1+rho)
    n = 100000
    x = _ar1(0.5, n, seed=4)
    assert diagnostics.ess(x) == pytest.approx(n / 3, rel=0.1)


def test_ess_constant_series_errors():
    with pytest.raises(PrecondError):
        diagnostics.ess(np.ones(500))


def test_ess_needs_100_points():
    with pytest.raises(PrecondError):
        diagnostics.ess(np.random.default_rng(5).standard_normal(99))


def test_ess_reversal_symmetry():
    x = _ar1(0.6, 5000, seed=6)
    assert diagnostics.ess(x) == pytest.approx(diagnostics.ess(x[::-1]), rel=1e-12)


def test_ess_affine_invariance():
    x = _ar1(0.6, 5000, seed=7)
    assert diagnostics.ess(3.7 * x - 11.0) == pytest.approx(diagnostics.ess(x), rel=1e-10)


def test_ess_report_median_and_shape():
    rng = np.random.default_rng(8)
    states = rng.standard_normal((2000, 3))
    rep = diagnostics.ess_report(states)
    assert rep.per_dimension.shape == (3,)
    assert rep.median == pytest.approx(float(np.median(rep.per_dimension)))
    assert rep.n == 2000


def test_acceptance_rate():
    t = targets.gaussian_target(np.zeros(1), np.eye(1))
    cfg = ChainConfig(
        kind="RWM", step_size=1e-9,
        preconditioner=preconditioners.identity_preconditioner(1),
        n_steps=200, seed=9,
    )
    trace = one_chain(t, cfg)
    assert diagnostics.acceptance_rate(trace) > 0.99


def test_empirical_gap_iid_near_one():
    rng = np.random.default_rng(10)
    t = targets.gaussian_target(np.zeros(2), np.eye(2))
    cfg = ChainConfig(
        kind="RWM", step_size=1.0,
        preconditioner=preconditioners.identity_preconditioner(2),
        n_steps=20000, seed=10,
    )
    trace = one_chain(t, cfg)
    # replace states by iid draws to model the independence-sampler limit
    iid_trace = samplers.Trace(
        states=rng.standard_normal((20000, 2)),
        accepted=trace.accepted,
        config=cfg,
        x0=trace.x0,
        final_step_size=trace.final_step_size,
    )
    est, se = paper_results.empirical_gap_upper(iid_trace, np.array([1.0, 0.0]))
    assert est == pytest.approx(1.0, abs=0.05)
    assert se < 0.05


def test_empirical_gap_sticky_chain_near_zero():
    t = targets.gaussian_target(np.zeros(1), np.eye(1))
    cfg = ChainConfig(
        kind="RWM", step_size=1e-3,
        preconditioner=preconditioners.identity_preconditioner(1),
        n_steps=20000, seed=11,
    )
    trace = one_chain(t, cfg, x0=np.array([1.0]))
    est, _ = paper_results.empirical_gap_upper(trace, np.array([1.0]))
    assert est < 0.01


def test_empirical_gap_respects_theorem_ceiling():
    # Gaussian envelope (m, M): the Dirichlet surrogate along v_max stays
    # below (1 + tol) xi / (2 kappa d) at proposal variance xi/(M d)
    sigma = np.diag([4.0, 1.0])
    m, big_m = 0.25, 1.0
    kappa = big_m / m
    d, xi = 2, 0.5
    t = targets.gaussian_target(np.zeros(2), sigma)
    cfg = ChainConfig(
        kind="RWM", step_size=math.sqrt(xi / (big_m * d)),
        preconditioner=preconditioners.identity_preconditioner(2),
        n_steps=400000, seed=12,
    )
    trace = one_chain(t, cfg)
    est, se = paper_results.empirical_gap_upper(trace, np.array([1.0, 0.0]))
    assert est <= xi / (2 * kappa * d) + 4 * se


def test_empirical_gap_validation():
    t = targets.gaussian_target(np.zeros(1), np.eye(1))
    cfg = ChainConfig(
        kind="RWM", step_size=1.0,
        preconditioner=preconditioners.identity_preconditioner(1),
        n_steps=200, seed=13,
    )
    trace = one_chain(t, cfg)
    with pytest.raises(PrecondError):
        paper_results.empirical_gap_upper(trace, np.zeros(1))
    with pytest.raises(PrecondError):
        paper_results.empirical_gap_upper(trace, np.array([1.0]), batches=150)


def _reference_ess(series):
    """The per-series ESS recipe with Geyer's pair loop, kept as a reference."""
    x = series - series.mean()
    n = x.shape[0]
    k_max = min(n // 2, 10_000)
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[: k_max + 1]
    rho = acov / acov[0]
    tau, prev = 0.0, math.inf
    for m in range((k_max - 1) // 2 + 1):
        gamma = rho[2 * m] + rho[2 * m + 1]
        if gamma <= 0.0:
            break
        gamma = min(gamma, prev)
        prev = gamma
        tau += gamma
    return float(n / max(-1.0 + 2.0 * tau, 1e-12))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["white", "ar1", "walk"]),
    n=st.integers(100, 3000),
    d=st.integers(1, 6),
    rho=st.floats(-0.9, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_ess_report_matches_per_series_reference_exactly(kind, n, d, rho, seed):
    noise = np.random.default_rng(seed).standard_normal((n, d))
    if kind == "ar1":
        states = lfilter([1.0], [1.0, -rho], noise, axis=0)
    elif kind == "walk":
        states = np.cumsum(noise, axis=0)
    else:
        states = noise
    report = diagnostics.ess_report(states)
    reference = [_reference_ess(states[:, j]) for j in range(d)]
    assert report.per_dimension.tolist() == reference
    assert diagnostics.ess(states[:, 0]) == reference[0]


def test_ess_report_first_failing_column_wins():
    good = np.random.default_rng(14).standard_normal(500)
    flat = np.ones(500)
    bad = good.copy()
    bad[3] = np.nan
    with pytest.raises(ZeroVarianceError):
        diagnostics.ess_report(np.column_stack([good, flat, bad]))
    with pytest.raises(PrecondError, match="non-finite") as err:
        diagnostics.ess_report(np.column_stack([good, bad, flat]))
    assert not isinstance(err.value, ZeroVarianceError)
    short = np.column_stack([good, bad])[:99]
    with pytest.raises(PrecondError, match="at least 100"):
        diagnostics.ess_report(short)
    with pytest.raises(PrecondError, match="non-finite"):
        diagnostics.ess_report(short[:, ::-1])


def test_ess_rejects_non_series():
    with pytest.raises(PrecondError, match="one-dimensional"):
        diagnostics.ess(np.zeros((200, 2)))
    with pytest.raises(PrecondError, match="empty"):
        diagnostics.ess_report(np.zeros((200, 0)))


def test_ess_report_reads_a_series_as_one_column():
    with pytest.raises(ZeroVarianceError, match="zero variance"):
        diagnostics.ess_report(np.full(1000, 0.1))
    series = _ar1(0.6, 2000, seed=15)
    assert diagnostics.ess_report(series).per_dimension.tolist() == [diagnostics.ess(series)]


def test_ess_report_flags_pair_sums_still_positive_at_the_lag_cap():
    # an AR(1) with rho = 0.9999 stays correlated past the 10 000 lags summed
    slow = diagnostics.ess_report(_ar1(0.9999, 100_000, seed=0))
    assert slow.truncated.tolist() == [True]
    iid = diagnostics.ess_report(np.random.default_rng(17).standard_normal((1000, 2)))
    assert iid.truncated.tolist() == [False, False]


def test_ess_report_of_an_empty_chain_raises_without_a_warning():
    # pytest turns RuntimeWarning into errors, as a mean of no values would raise
    with pytest.raises(PrecondError, match="at least 100 points for ESS, got 0"):
        diagnostics.ess_report(np.zeros((0, 2)))
