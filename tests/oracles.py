"""Independent references for the tests: values computed without the
package's solvers or recursions."""

import math

import numpy as np


def classical_oracle(sigma, q, t, phi, quad_nodes):
    """Gauss-Hermite value of E[phi(sigma*sqrt(t)*Z + q*t)], Z standard normal."""
    z, w = np.polynomial.hermite.hermgauss(quad_nodes)
    pts = sigma * math.sqrt(t) * math.sqrt(2.0) * z + q * t
    return float(np.dot(w, phi(pts)) / math.sqrt(math.pi))


def binomial_value(phi, sigma, mu, n):
    """E[phi(mu + sigma * (2K - n) / sqrt(n))] for K ~ Binomial(n, 1/2): the
    value of phi(S_n/sqrt(n) + T_n/n) when every X_i is a fair +/- sigma coin
    and every Y_i equals mu."""
    k = np.arange(n + 1)
    values = phi(mu + sigma * (2 * k - n) / math.sqrt(n))
    return math.fsum(math.comb(n, int(j)) / 2**n * float(v) for j, v in zip(k, values))
