"""Chebyshev representation helpers for divided-difference chains.

A function of x = cos(theta) sampled on the Lobatto grid theta_j = j pi / N
is converted to Chebyshev-T coefficients; the Askey-Wilson divided difference
acts exactly on that basis,

    D_q T_n = kappa_n U_{n-1},
    kappa_n = (q^{n/2} - q^{-n/2}) / (q^{1/2} - q^{-1/2}),

so repeated applications never leave the polynomial space and consume no
annulus.  Validity is monitored through coefficient decay: evaluating a
divided-difference chain of an analytic function is legitimate exactly when
the sampled coefficients fall below the tail tolerance before the q^{-n/2}
amplification of D_q eats them.  Samples may carry a trailing axis of
stacked functions, one column of coefficients each.
"""

from __future__ import annotations

import numpy as np

from .errors import NonConvergent

__all__ = ["cheb_coeffs", "cheb_fit_adaptive", "cheb_eval", "cheb_apply_dq"]


def cheb_coeffs(values: np.ndarray) -> np.ndarray:
    """Chebyshev-T coefficients from samples at theta_j = j pi / N, j=0..N.

    Plain DCT-I evaluated as a matrix product (grids stay small; determinism
    matters more than FFT speed here).
    """
    n = values.shape[0] - 1
    j = np.arange(n + 1)
    cosmat = np.cos(np.outer(j, j) * (np.pi / n))
    w = np.ones(n + 1)
    w[0] = w[-1] = 0.5
    coeffs = (2.0 / n) * (cosmat @ (values * w.reshape((-1,) + (1,) * (values.ndim - 1))))
    coeffs[0] *= 0.5
    coeffs[-1] *= 0.5
    return coeffs


def cheb_fit_adaptive(fn_theta):
    """Fit fn(theta_j) on Lobatto grids of N = 32, 64, ..., 512 until the
    coefficient tail (last eighth) drops below 1e-13 relative to the largest
    coefficient, in every column of stacked values."""
    n = 32
    while True:
        thetas = np.arange(n + 1) * (np.pi / n)
        vals = np.asarray(fn_theta(thetas), dtype=np.complex128)
        coeffs = cheb_coeffs(vals)
        top = np.max(np.abs(coeffs), axis=0)
        tail = np.max(np.abs(coeffs[-max(2, n // 8):]), axis=0)
        if np.all(tail <= 1e-13 * np.maximum(top, 1e-300)):
            return coeffs
        if n >= 512:
            raise NonConvergent(
                f"Chebyshev coefficients still {np.max(tail):.2e} at degree {n}"
            )
        n *= 2


def cheb_eval(coeffs: np.ndarray, x):
    """Clenshaw evaluation of sum c_n T_n(x); x may be complex."""
    xv = np.asarray(x, dtype=np.complex128)
    b1 = np.zeros_like(xv)
    b2 = np.zeros_like(xv)
    for c in coeffs[:0:-1]:
        b1, b2 = 2.0 * xv * b1 - b2 + c, b1
    out = xv * b1 - b2 + coeffs[0]
    return out if np.ndim(x) else complex(out)


def cheb_apply_dq(coeffs: np.ndarray, q: float) -> np.ndarray:
    """Coefficients of D_q applied to a Chebyshev-T expansion.

    Uses U_m = 2(T_m + T_{m-2} + ...) with the trailing T_0 counted once.
    """
    n = coeffs.shape[0] - 1
    denom = np.sqrt(q) - 1.0 / np.sqrt(q)
    out = np.zeros(max(n, 1), dtype=np.complex128)
    for m in range(1, n + 1):
        kappa = (q ** (m / 2.0) - q ** (-m / 2.0)) / denom
        w = coeffs[m] * kappa
        for j in range(m - 1, -1, -2):
            out[j] += w if j == 0 else 2.0 * w
    return out
