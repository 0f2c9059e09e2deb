"""Expression error E_e(i,j) = E|lambda_bar_ij - lambda_ij| (paper §III-B).

With ``lambda_ij ~ Poisson(alpha)`` and the rest of the MGrid
``lambda_{i,!=j} ~ Poisson(beta)`` independent (``beta = sum_{g!=j}
alpha_ig``), the error of uniform spreading is

    E_e = E| (m-1)*lambda_ij - lambda_{i,!=j} | / m
        = sum_{k_h, k_m} |(m-1)k_h - k_m| / m * P(alpha,k_h) * P(beta,k_m)

(paper Eq. 7). This module provides:

* :func:`expression_error_direct` — Eq. 7 truncated, the test reference;
* :func:`expression_error_alg1` — the paper's Algorithm 1, O(m*K^2);
* :func:`expression_error_alg2` — the paper's Algorithm 2, O(m*K),
  using the incremental e1'/e2' updates of Eq. 17-19;
* :func:`expression_error_fast` — a vectorised, log-space-stable,
  windowed kernel (same math as Algorithm 2, safe for large beta);
* :func:`total_expression_error_local` — the sum over every HGrid of one
  slot, run on the driver over the dense alphas of
  :meth:`repro.core.counts.GridCounts.alphas` (derived from one Spark
  aggregation per fine lattice). It is the only production path: the search evaluator and the
  error-curve harness both call it.

Sign convention: the paper's indicator uses I(0) = +1 (Eq. 18 includes the
boundary term in the doubled sum); the Delta = 0 terms cancel between e1
and e2, so all implementations here agree exactly.

Note on Algorithm 1's printed pseudocode: the outer loop as typeset starts
at k_h = 1, which would drop the non-zero k_h = 0 terms of Eq. 7; we start
at 0, which the direct-sum and Monte-Carlo tests confirm.
"""
import math

import numpy as np

#: width of the Poisson window, in standard deviations, kept by the fast
#: kernel. 14 sigma bounds the discarded tail mass below ~1e-40.
_WINDOW_SIGMA = 14.0


# ---------------------------------------------------------------------------
# reference + literal paper algorithms (scalar, for tests and cost benches)
# ---------------------------------------------------------------------------

def _pois_pmf_scalar(lam: float, k_max: int) -> np.ndarray:
    """Poisson pmf 0..k_max via the multiplicative recurrence (stable for
    the small lambdas the literal algorithms are exercised with)."""
    p = np.empty(k_max + 1)
    p[0] = math.exp(-lam)
    for k in range(1, k_max + 1):
        p[k] = p[k - 1] * lam / k
    return p


def expression_error_direct(alpha: float, beta: float, m: int, K: int) -> float:
    """Eq. 7 truncated at (K, (m-1)K) by brute force — O(m*K^2) memory-light
    reference used to validate the optimised implementations."""
    if m == 1:
        return 0.0
    ph = _pois_pmf_scalar(alpha, K)
    pm = _pois_pmf_scalar(beta, (m - 1) * K)
    kh = np.arange(K + 1)[:, None]
    km = np.arange((m - 1) * K + 1)[None, :]
    w = np.abs((m - 1) * kh - km) / m
    return float((w * ph[:, None] * pm[None, :]).sum())


def expression_error_alg1(alpha: float, beta: float, m: int, K: int) -> float:
    """Paper Algorithm 1: double loop with the Eq. 14 recurrence, O(m*K^2)."""
    if m == 1:
        return 0.0
    e = 0.0
    p1 = math.exp(-alpha)
    for k_h in range(0, K + 1):
        p2 = math.exp(-beta)
        for k_m in range(0, (m - 1) * K + 1):
            e += abs((m - 1) * k_h - k_m) / m * p1 * p2
            p2 = p2 * beta / (k_m + 1)
        p1 = p1 * alpha / (k_h + 1)
    return e


def expression_error_alg2(alpha: float, beta: float, m: int, K: int) -> float:
    """Paper Algorithm 2: O(m*K) via incremental e1'(k_h)/e2'(k_h) updates.

    e1'(k_h) = 2*C_beta((m-1)k_h) - C_beta((m-1)K) and
    e2'(k_h) = 2*D_beta((m-1)k_h) - D_beta((m-1)K), maintained by adding the
    newly-covered (m-1) pmf terms per k_h step (Eq. 19); here C/D are the
    Poisson(beta) cdf and partial mean. E_e = ((m-1)*e1 - e2)/m.
    """
    if m == 1:
        return 0.0
    k_top = (m - 1) * K
    # initialise e1' and e2' at k_h = 0: 2*C(0) - C(k_top), 2*D(0) - D(k_top)
    p2 = math.exp(-beta)
    c_full = 0.0
    d_full = 0.0
    pmf = p2
    for k_m in range(0, k_top + 1):
        c_full += pmf
        d_full += k_m * pmf
        pmf = pmf * beta / (k_m + 1)
    e1p = 2.0 * p2 - c_full  # C(0) = pmf(0)
    e2p = 0.0 - d_full  # D(0) = 0
    e1 = 0.0  # the k_h = 0 term of e1 has factor k_h = 0
    p1 = math.exp(-alpha)
    e2 = p1 * e2p  # k_h = 0 term of e2
    # running pmf(beta, k) cursor positioned at k = 1
    cursor = p2 * beta  # pmf(beta, 1)
    cursor_k = 1
    for k_h in range(1, K + 1):
        # extend the doubled prefix from (m-1)(k_h-1) to (m-1)k_h
        for k_m in range(cursor_k, (m - 1) * k_h + 1):
            e1p += 2.0 * cursor
            e2p += 2.0 * k_m * cursor
            cursor = cursor * beta / (k_m + 1)
        cursor_k = (m - 1) * k_h + 1
        p1 = p1 * alpha / k_h
        e1 += k_h * p1 * e1p
        e2 += p1 * e2p
    return ((m - 1) * e1 - e2) / m


# ---------------------------------------------------------------------------
# fast vectorised kernel (the production path)
# ---------------------------------------------------------------------------

def _log_pois_window(lam: float, k_max: int) -> tuple[int, np.ndarray]:
    """(lo, pmf[lo..hi]) — Poisson(lam) pmf on a +-_WINDOW_SIGMA*sqrt window,
    computed in log space so it is stable for arbitrarily large lam."""
    if lam <= 0.0:
        return 0, np.ones(1)
    half = _WINDOW_SIGMA * math.sqrt(lam) + 10.0
    lo = max(0, int(lam - half))
    hi = min(k_max, int(lam + half) + 1)
    k = np.arange(lo, hi + 1, dtype=np.float64)
    # log k! via cumsum of logs within the window: log(lo!) + cumsum(log k)
    log_fact_lo = math.lgamma(lo + 1)
    log_fact = log_fact_lo + np.concatenate(
        ([0.0], np.cumsum(np.log(np.arange(lo + 1, hi + 1))))
    )
    return lo, np.exp(k * math.log(lam) - lam - log_fact)


def _auto_K(alpha: float) -> int:
    """Smallest K covering Poisson(alpha)'s mass with a wide safety margin."""
    return int(alpha + _WINDOW_SIGMA * math.sqrt(alpha)) + 12


def expression_error_fast(
    alphas: np.ndarray, m: int, K: int | None = None
) -> np.ndarray:
    """Vectorised E_e for every HGrid of one MGrid.

    ``alphas`` holds the m per-HGrid means (zeros included). For HGrid j,
    beta_j = sum(alphas) - alphas[j]. Equal alphas share one evaluation.
    ``K = None`` picks the per-HGrid auto-K (Theorem III.2 guarantees
    convergence in K; auto-K covers the Poisson mass, so the truncation
    error is negligible).
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    if alphas.ndim != 1:
        raise ValueError("alphas must be 1-D (the m HGrids of one MGrid)")
    if m != alphas.size:
        raise ValueError(f"m={m} but got {alphas.size} alphas")
    if m == 1:
        return np.zeros(1)
    total = float(alphas.sum())
    out = np.empty(m)
    uniq, inv = np.unique(alphas, return_inverse=True)
    uniq_ee = np.array(
        [_fast_one(float(a), total - float(a), m, K) for a in uniq]
    )
    out[:] = uniq_ee[inv]
    return out


def _fast_one(alpha: float, beta: float, m: int, K: int | None) -> float:
    if K is None:
        # k_h must cover alpha's mass AND (m-1)*K must cover beta's mass
        k_cap = max(_auto_K(alpha), -(-_auto_K(beta) // (m - 1)))
    else:
        k_cap = K
    k_top = (m - 1) * k_cap
    lo_a, pmf_a = _log_pois_window(alpha, k_cap)
    kh = np.arange(lo_a, lo_a + pmf_a.size, dtype=np.float64)
    lo_b, pmf_b = _log_pois_window(beta, k_top)
    cdf_b = np.cumsum(pmf_b)
    mean_b = np.cumsum(np.arange(lo_b, lo_b + pmf_b.size) * pmf_b)
    w_total, d_total = cdf_b[-1], mean_b[-1]

    def _at(cum: np.ndarray, q: np.ndarray, below: float, above: np.ndarray) -> np.ndarray:
        """cum evaluated at integer points q with window clipping."""
        idx = q - lo_b
        res = np.where(idx < 0, below, above)
        inside = (idx >= 0) & (idx < cum.size)
        res[inside] = cum[idx[inside].astype(np.int64)]
        return res

    q = ((m - 1) * kh).astype(np.int64)
    c_q = _at(cdf_b, q, 0.0, np.full(q.size, w_total))
    d_q = _at(mean_b, q, 0.0, np.full(q.size, d_total))
    e1 = float(np.sum(kh * pmf_a * (2.0 * c_q - w_total)))
    e2 = float(np.sum(pmf_a * (2.0 * d_q - d_total)))
    return ((m - 1) * e1 - e2) / m


def total_expression_error_local(
    alphas: np.ndarray, mgrid_of_cell: np.ndarray, m: int, K: int | None = None
) -> float:
    """sum_ij E_e(i,j) over all HGrids (the quantity Algorithm 3 adds up).

    ``alphas`` holds one value per HGrid and ``mgrid_of_cell`` its MGrid id
    (``GridSpec.mgrid_of_hgrid``). The O(mK) kernel runs per MGrid on the
    driver — ~0.1 ms each, far below a Spark job round trip. Tests pin the
    total to the literal Algorithm 2 summed per HGrid."""
    order = np.argsort(mgrid_of_cell, kind="stable")
    sorted_mg = mgrid_of_cell[order]
    sorted_a = alphas[order]
    bounds = np.flatnonzero(np.diff(sorted_mg)) + 1
    total = 0.0
    for group in np.split(sorted_a, bounds):
        total += float(expression_error_fast(group, group.size, K).sum())
    return total
