"""Complete elliptic integrals and the axisymmetric ring kernel profile.

The single-layer kernel for the axisymmetric stream-function operator reduces
to a one-variable profile

    F(s) = ((2+s)/sqrt(4+s)) K(k) - sqrt(4+s) E(k),   k^2 = 4/(4+s),

where s is the squared chordal distance scaled by the geometric mean of the
radial coordinates.  F has a log singularity at s = 0; in w = s/(4+s) = k'^2

    F(s) = p(w) + q(w) log w,    p(0) = log 4 - 2,  q(0) = -1/2,

with p, q analytic near 0.  ``f_split`` evaluates that decomposition, which is
what the quadrature scheme needs, as two power series in w for
0 <= s <= SPLIT_S_MAX, summed by Horner's rule and truncated where the
largest w of the call makes the next term negligible (a handful of terms
in the thin regime), and on request their w-derivatives from the same
loop; ``f_elliptic`` evaluates F itself, and on request F'(s), for any
s > 0 through the arithmetic-geometric mean, run on whole arrays at once.
The derivatives serve the double layer of the core problem.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "f_elliptic",
    "f_split",
]

# Guard radius of the truncated series in f_split: at s = 1 the series
# argument w = s/(4+s) stays below 1/5 and 26 of the _N_TERMS terms reach
# the truncation bound.
SPLIT_S_MAX = 1.0

# Series table of the log split, built once at import; see f_split.  The
# coefficients come from the expansion of K about k' = 0 (DLMF 19.12),
#     K = sum_m c_m w^m (L/2 + d_m),   w = k'^2,  L = -log w,
#     c_m = (C(2m,m)/4^m)^2,  d_0 = log 4,  d_m = d_{m-1} + 1/m - 2/(2m-1).
_N_TERMS = 44


def _split_table(n: int) -> np.ndarray:
    # rows P, -Q and the coefficients of (1-w) S' - S/2 for S = sum P_m w^m
    # and S = -sum Q_m w^m, (m+1) S_{m+1} - (m + 1/2) S_m, so that
    # d/dw (sqrt(1-w) S) = ((1-w) S' - S/2) / sqrt(1-w):
    # Q_m = c_m (2m + 1/2),  P_m = c_m ((4m+1) d_m - 2)
    c = np.empty(n + 1)
    d = np.empty(n + 1)
    c[0] = 1.0
    d[0] = np.log(4.0)
    for m in range(1, n + 1):
        # c_m = c_{m-1} * ((2m-1)/(2m))^2
        c[m] = c[m - 1] * ((2 * m - 1) / (2 * m)) ** 2
        d[m] = d[m - 1] + 1.0 / m - 2.0 / (2 * m - 1)
    m = np.arange(n + 1)
    pq = np.array([c * ((4 * m + 1) * d - 2.0), -c * (2 * m + 0.5)])
    slopes = pq[:, 1:] * m[1:] - pq[:, :-1] * (m[:-1] + 0.5)
    return np.vstack([pq[:, :-1], slopes])


_SERIES = _split_table(_N_TERMS)
_SERIES.setflags(write=False)
# Largest coefficient of each order, the bound f_split truncates against.
# From order 1 the maxima are the Q_m and lie between 0.62 and 0.64, so
# for w <= 1/5 the omitted terms sum to less than 1.3 times the first of them.
_PQ_ROW_MAX = np.max(np.abs(_SERIES[:2]), axis=0)
_TRUNCATION = 1e-18


def _agm_ke(k2, kp2):
    # AGM on arrays of both squared moduli; callers that know k'^2 exactly
    # (e.g. k'^2 = s/(4+s)) avoid the 1-k^2 cancellation near k = 1.  An
    # element that has met the stopping test has a == b, so the extra
    # sweeps the slower elements need leave it unchanged.
    a = np.ones_like(kp2)
    b = np.sqrt(kp2)
    # E via the companion sum: E = K (1 - sum 2^{n-1} c_n^2), c_0 = k.
    csum = 0.5 * k2
    pow2 = 0.5
    for _ in range(64):
        c = 0.5 * (a - b)
        if np.all(np.abs(c) <= 1e-17 * a):
            break
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        pow2 *= 2.0
        csum = csum + pow2 * c * c
    bigk = np.pi / (2.0 * a)
    return bigk, bigk * (1.0 - csum)


def f_elliptic(s, derivative: bool = False):
    """Ring kernel profile F(s) through AGM elliptic integrals.

    Accepts a float or ndarray, 0 < s < inf; any other s, NaN included,
    raises ValueError.  F is strictly decreasing, blows up like
    log(8/sqrt(s)) - 2 as s -> 0+ and decays like O(s^{-3/2}) at infinity.
    With derivative=True returns (F, F'), where
    F'(s) = (s K - (2+s) E) / (2 s sqrt(4+s)) follows from the derivatives
    of K and E in the modulus (DLMF 19.4.1).
    """
    scalar = np.isscalar(s)
    sa = np.atleast_1d(np.asarray(s, dtype=float))
    if not np.all((sa > 0.0) & (sa < np.inf)):
        raise ValueError("s must be positive and finite")
    # Both squared moduli exactly from s: k^2 = 4/(4+s), k'^2 = s/(4+s);
    # forming k and squaring back would lose ~1e-9 near s = 0.
    bigk, bige = _agm_ke(4.0 / (4.0 + sa), sa / (4.0 + sa))
    root = np.sqrt(4.0 + sa)
    out = (2.0 + sa) / root * bigk - root * bige
    if derivative:
        slope = (sa * bigk - (2.0 + sa) * bige) / (2.0 * sa * root)
        return (float(out[0]), float(slope[0])) if scalar else (out, slope)
    return float(out[0]) if scalar else out


def f_split(s, derivative: bool = False):
    """Log split of the ring kernel profile: F(s) = p + q log w, w = s/(4+s).

    With w = k'^2 the split is two power series in w,

        q = -sqrt(1-w) sum_m Q_m w^m,
        p =  sqrt(1-w) sum_m P_m w^m,

    obtained by inserting the log expansions of K and E about k' = 0
    (DLMF 19.12; E = w K - 2 w (1-w) dK/dw) into F.  The prefactors of F
    are (2+s)/sqrt(4+s) = (1+w)/sqrt(1-w) and sqrt(4+s) = 2/sqrt(1-w).

    Both sums are evaluated by Horner's rule and truncated at the first
    order whose term, bounded at the largest w of the call, is below 1e-18,
    so a value does not depend on the batch it is evaluated in beyond
    roundoff.

    Parameters
    ----------
    s : float or ndarray
        Evaluation points, 0 <= s <= SPLIT_S_MAX.  s = 0 is allowed and
        returns the analytic limits p(0) = log 4 - 2, q(0) = -1/2.

    derivative : bool
        Also return dp/dw and dq/dw, summed in the same Horner loop.  Then
        F'(s) = (dp/dw + dq/dw log w + q / w) dw/ds, dw/ds = 4/(4+s)^2.

    Returns
    -------
    (p, q), or (p, q, dp/dw, dq/dw) : floats or ndarrays

    Raises
    ------
    ValueError
        If any s is negative, NaN or above SPLIT_S_MAX; callers needing larger s
        must use ``f_elliptic`` directly (no log split is needed away
        from the diagonal).
    """
    scalar = np.isscalar(s)
    sa = np.atleast_1d(np.asarray(s, dtype=float))
    if not np.all(sa >= 0.0):
        raise ValueError("s must be nonnegative")
    if not np.all(sa <= SPLIT_S_MAX):
        raise ValueError(
            f"s exceeds split range s_max={SPLIT_S_MAX}; use f_elliptic")
    w = sa / (4.0 + sa)
    root = np.sqrt(1.0 - w)
    # k terms: at most 7 for eps <= 0.04 (s below about 1e-2), 26 at
    # s = SPLIT_S_MAX
    bound = _PQ_ROW_MAX * np.max(w, initial=0.0) ** np.arange(_N_TERMS)
    small = np.flatnonzero(bound <= _TRUNCATION)
    k = small[0] if small.size else _N_TERMS
    # Horner's rule on the table's rows, one pass per order for all rows
    rows = 4 if derivative else 2
    flat = w.ravel()
    sums = np.empty((rows, flat.size))
    sums[...] = _SERIES[:rows, k - 1, None]
    for coeffs in _SERIES[:rows, :k - 1].T[::-1]:
        sums *= flat
        sums += coeffs[:, None]
    sums = sums.reshape((rows,) + w.shape)
    p, q = sums[:2] * root
    if not derivative:
        return (float(p[0]), float(q[0])) if scalar else (p, q)
    dp, dq = sums[2:] / root
    if scalar:
        return float(p[0]), float(q[0]), float(dp[0]), float(dq[0])
    return p, q, dp, dq
