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
in the thin regime); ``f_elliptic`` evaluates F itself for any s > 0
through the arithmetic-geometric mean, run on whole arrays at once.
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
    # columns [P | Q]: Q_m = c_m (2m + 1/2),  P_m = c_m ((4m+1) d_m - 2)
    c = np.empty(n)
    d = np.empty(n)
    c[0] = 1.0
    d[0] = np.log(4.0)
    for m in range(1, n):
        # c_m = c_{m-1} * ((2m-1)/(2m))^2
        c[m] = c[m - 1] * ((2 * m - 1) / (2 * m)) ** 2
        d[m] = d[m - 1] + 1.0 / m - 2.0 / (2 * m - 1)
    m = np.arange(n)
    q = c * (2 * m + 0.5)
    p = c * ((4 * m + 1) * d - 2.0)
    return np.column_stack([p, q])


_PQ = _split_table(_N_TERMS)
# Largest coefficient of each order, the bound f_split truncates against.
# From order 1 the row maxima are the Q_m and lie between 0.62 and 0.64, so
# for w <= 1/5 the omitted terms sum to less than 1.3 times the first of them.
_PQ_ROW_MAX = np.max(np.abs(_PQ), axis=1)
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


def f_elliptic(s):
    """Ring kernel profile F(s) through AGM elliptic integrals.

    Accepts a float or ndarray, 0 < s < inf; any other s, NaN included,
    raises ValueError.  F is strictly decreasing, blows up like
    log(8/sqrt(s)) - 2 as s -> 0+ and decays like O(s^{-3/2}) at infinity.
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
    return float(out[0]) if scalar else out


def f_split(s):
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

    Returns
    -------
    (p, q) : pair of floats or ndarrays

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
    sum_p = np.full_like(w, _PQ[k - 1, 0])
    sum_q = np.full_like(w, _PQ[k - 1, 1])
    for coeff_p, coeff_q in _PQ[:k - 1][::-1]:
        sum_p *= w
        sum_p += coeff_p
        sum_q *= w
        sum_q += coeff_q
    q = -root * sum_q
    p = root * sum_p
    if scalar:
        return float(p[0]), float(q[0])
    return p, q
