"""Complete elliptic integrals and the axisymmetric ring kernel profile.

The single-layer kernel for the axisymmetric stream-function operator reduces
to a one-variable profile

    F(s) = ((2+s)/sqrt(4+s)) K(k) - sqrt(4+s) E(k),   k^2 = 4/(4+s),

where s is the squared chordal distance scaled by the geometric mean of the
radial coordinates.  F has a log singularity at s = 0:

    F(s) = p(s) + q(s) log s,    p(0) = log 8 - 2,  q(0) = -1/2,

with p, q analytic near 0.  ``f_split`` evaluates that decomposition, which is
what the quadrature scheme needs; ``f_elliptic`` evaluates F itself through
the arithmetic-geometric mean.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "elliptic_ke",
    "f_elliptic",
    "f_split",
]

# Guard radius of the truncated series in f_split: at s = 1 the series
# argument w = s/(4+s) stays below 1/5 and the truncation error is far
# below 1e-14.
SPLIT_S_MAX = 1.0

# Series data for K and E about k' = 0, built once at import.  With
# w = k'^2 and L = -log w,
#     K = a_K(w) + b_K(w) L,   E = a_E(w) + b_E(w) L,
# where the coefficients follow from the classical expansion
#     K = sum_m c_m w^m (L/2 + d_m),  c_m = (C(2m,m)/4^m)^2,
#     d_0 = log 4,  d_m = d_{m-1} + 1/m - 2/(2m-1),
# and E = w K - 2 w (1-w) dK/dw (an exact identity).
_N_TERMS = 44


def _series_data(n: int) -> tuple[np.ndarray, np.ndarray]:
    c = np.empty(n)
    d = np.empty(n)
    c[0] = 1.0
    d[0] = np.log(4.0)
    for m in range(1, n):
        # c_m = c_{m-1} * ((2m-1)/(2m))^2
        c[m] = c[m - 1] * ((2 * m - 1) / (2 * m)) ** 2
        d[m] = d[m - 1] + 1.0 / m - 2.0 / (2 * m - 1)
    return c, d


_C_M, _D_M = _series_data(_N_TERMS)
_M_IDX = np.arange(_N_TERMS)


def _agm_ke(k2: float, kp2: float) -> tuple[float, float]:
    # AGM core taking both squared moduli; callers that know k'^2 exactly
    # (e.g. k'^2 = s/(4+s)) avoid the 1-k^2 cancellation near k = 1.
    a = 1.0
    b = np.sqrt(kp2)
    # E via the companion sum: E = K (1 - sum 2^{n-1} c_n^2), c_0 = k.
    csum = 0.5 * k2
    pow2 = 0.5
    for _ in range(64):
        c = 0.5 * (a - b)
        if abs(c) <= 1e-17 * a:
            break
        ab = a * b
        a, b = 0.5 * (a + b), np.sqrt(ab)
        pow2 *= 2.0
        csum += pow2 * c * c
    bigk = np.pi / (2.0 * a)
    bige = bigk * (1.0 - csum)
    return float(bigk), float(bige)


def elliptic_ke(k: float) -> tuple[float, float]:
    """Complete elliptic integrals (K(k), E(k)) by the arithmetic-geometric mean.

    Parameters
    ----------
    k : float
        Modulus, 0 <= k < 1.

    Returns
    -------
    (K, E) : tuple of float
        First and second complete elliptic integrals, relative error
        at the 1e-14 level away from the logarithmic blow-up of K.
    """
    if not 0.0 <= k < 1.0:
        raise ValueError(f"modulus must satisfy 0 <= k < 1, got {k}")
    return _agm_ke(k * k, (1.0 - k) * (1.0 + k))


def f_elliptic(s):
    """Ring kernel profile F(s) through AGM elliptic integrals.

    Accepts a float or ndarray, s > 0.  F is strictly decreasing, blows up
    like log(8/sqrt(s)) - 2 as s -> 0+ and decays like O(s^{-3/2}) at
    infinity.
    """
    scalar = np.isscalar(s)
    sa = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(sa <= 0.0):
        raise ValueError("s must be positive")
    out = np.empty_like(sa)
    for i, si in enumerate(sa):
        # Both squared moduli exactly from s: k^2 = 4/(4+s), k'^2 = s/(4+s);
        # forming k and squaring back would lose ~1e-9 near s = 0.
        bigk, bige = _agm_ke(4.0 / (4.0 + si), si / (4.0 + si))
        root = np.sqrt(4.0 + si)
        out[i] = (2.0 + si) / root * bigk - root * bige
    return float(out[0]) if scalar else out


def f_split(s):
    """Log split of the ring kernel profile: F(s) = p(s) + q(s) log s.

    Parameters
    ----------
    s : float or ndarray
        Evaluation points, 0 <= s <= SPLIT_S_MAX.  s = 0 is allowed and
        returns the analytic limits p(0) = log 8 - 2, q(0) = -1/2.

    Returns
    -------
    (p, q) : pair of floats or ndarrays

    Raises
    ------
    ValueError
        If any s is negative or exceeds SPLIT_S_MAX; callers needing larger s
        must use ``f_elliptic`` directly (no log split is needed away
        from the diagonal).
    """
    scalar = np.isscalar(s)
    sa = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(sa < 0.0):
        raise ValueError("s must be nonnegative")
    if np.any(sa > SPLIT_S_MAX):
        raise ValueError(
            f"s exceeds split range s_max={SPLIT_S_MAX}; use f_elliptic")
    w = sa / (4.0 + sa)
    # Vandermonde in w against the precomputed series; w <= 1/5 so 44 terms
    # overshoot machine precision comfortably.
    wp = w[..., None] ** _M_IDX
    sum_c = wp @ _C_M
    sum_cd = wp @ (_C_M * _D_M)
    sum_mc = wp @ (_C_M * _M_IDX)
    sum_mcd = wp @ (_C_M * _D_M * _M_IDX)

    # K = a_K + b_K L with L = -log w:
    a_k = sum_cd
    b_k = 0.5 * sum_c
    # E = w K - 2 w (1-w) dK/dw, with
    # dK/dw = sum c_m [ m w^{m-1} (L/2 + d_m) - w^{m-1}/2 ]:
    #   w dK/dw = (L/2) sum_mc + sum_mcd - sum_c / 2
    a_e = w * a_k - 2.0 * (1.0 - w) * (sum_mcd - 0.5 * sum_c)
    b_e = w * b_k - (1.0 - w) * sum_mc

    pref1 = (2.0 + sa) / np.sqrt(4.0 + sa)
    pref2 = np.sqrt(4.0 + sa)
    # L = log(4+s) - log s; fold the regular piece into p, keep -log s in q.
    bl = pref1 * b_k - pref2 * b_e
    p = pref1 * a_k - pref2 * a_e + bl * np.log(4.0 + sa)
    q = -bl
    if scalar:
        return float(p[0]), float(q[0])
    return p, q
