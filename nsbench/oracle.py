"""Scalar Kalman filter and posterior-variance recursion.

This module is the benchmark's independent reference.  It imports numpy only,
never ``neurosmc``, and works from textbook formulas, so agreement between it
and the package is evidence rather than a tautology.

The model is the linear-Gaussian random walk with drift

    v_k = a v_{k-1} + b + w_k,   w_k ~ N(0, q)
    y_k = v_k + e_k,             e_k ~ N(0, r)
    v_0 ~ N(m0, p0)

which is what the membrane voltage reduces to once the calcium and potassium
channels are switched off and the leak disturbance is zero.
"""

import math

import numpy as np


def leak_reduction(c_m, g_leak, e_rev, i_o, t_s, sigma_i_app):
    """Coefficients ``(a, b, q)`` of the Euler-stepped passive membrane.

    One Euler step of c_m dv/dt = -g_leak (v - e_rev) + i_o + noise gives
    v' = (1 - t_s g_leak / c_m) v + (t_s / c_m)(g_leak e_rev + i_o), with the
    applied-current disturbance entering as (t_s / c_m) * sigma_i_app.
    """
    h = t_s / c_m
    return 1.0 - h * g_leak, h * (g_leak * e_rev + i_o), (h * sigma_i_app) ** 2


def simulate(rng, a, b, q, r, m0, p0, n_steps):
    """Draw ``(v, y)`` of length ``n_steps`` from the model above."""
    v = np.empty(n_steps)
    x = m0 + math.sqrt(p0) * rng.standard_normal()
    w = math.sqrt(q) * rng.standard_normal(n_steps)
    for k in range(n_steps):
        x = a * x + b + w[k]
        v[k] = x
    return v, v + math.sqrt(r) * rng.standard_normal(n_steps)


def kalman(y, a, b, q, r, m0, p0):
    """Filter ``y``; returns ``(means, variances, loglik)``.

    ``means[k]`` and ``variances[k]`` are the posterior moments of v_{k+1}
    given y_1..y_{k+1}; ``loglik`` is the exact log marginal likelihood.
    """
    means = np.empty(len(y))
    variances = np.empty(len(y))
    m, p = float(m0), float(p0)
    loglik = 0.0
    for k, yk in enumerate(np.asarray(y, dtype=float)):
        m_pred = a * m + b
        p_pred = a * a * p + q
        s = p_pred + r
        loglik -= 0.5 * (math.log(2.0 * math.pi * s) + (yk - m_pred) ** 2 / s)
        gain = p_pred / s
        m = m_pred + gain * (yk - m_pred)
        p = (1.0 - gain) * p_pred
        means[k] = m
        variances[k] = p
    return means, variances, loglik


def posterior_variance(a, q, r, p0, n_steps):
    """Posterior variances of the filter above; they do not depend on data."""
    out = np.empty(n_steps)
    p = float(p0)
    for k in range(n_steps):
        p_pred = a * a * p + q
        p = p_pred * r / (p_pred + r)
        out[k] = p
    return out


def steady_state_variance(a, q, r):
    """Closed-form fixed point of :func:`posterior_variance`.

    The predicted variance P solves P^2 + (r(1 - a^2) - q) P - q r = 0; the
    filtered variance is P r / (P + r).
    """
    c = r * (1.0 - a * a) - q
    p_pred = 0.5 * (-c + math.sqrt(c * c + 4.0 * q * r))
    return p_pred * r / (p_pred + r)
