"""The angle-independence check and Fincke-Pohst enumeration in their plain form.

Kept as the reference the package's kernels must reproduce bit for bit:
``reference_angle_independence`` enumerates every shell, however far its
reduced basis puts the nonzero lattice vectors, and takes its margin and
thresholds in Fraction arithmetic; ``reference_short_vectors`` carries the
remaining squared radius as a Fraction.
"""

import math
from fractions import Fraction

from spectral_cascade.errors import IndependenceFailure
from spectral_cascade.linalg import lll_reduce
from spectral_cascade.scenario import MAX_COEFF


def reference_short_vectors(d: list, lam: list, radius2: int):
    """Every integer x with ||sum_i x_i b_i||^2 <= radius2, from lll_reduce's data."""
    n = len(d) - 1
    x = [0] * n

    def level(i, rest):
        if i < 0:
            yield list(x)
            return
        s = sum(lam[j][i] * x[j] for j in range(i + 1, n))
        m = math.isqrt(math.floor(rest * d[i] * d[i + 1]))  # |N_i| <= m
        for x[i] in range(-((m + s) // d[i + 1]), (m - s) // d[i + 1] + 1):
            N = d[i + 1] * x[i] + s
            yield from level(i - 1, rest - Fraction(N * N, d[i] * d[i + 1]))
        x[i] = 0

    yield from level(n - 1, Fraction(radius2))


def _coeff_threshold(max_abs_coeff: int, n_angles: int) -> Fraction:
    return Fraction(1, 1000 * (1 + max_abs_coeff) ** (n_angles + 1))


def reference_angle_independence(thetas) -> float:
    """scenario.check_angle_independence, enumerating every shell."""
    thetas = [Fraction(float(th)) for th in thetas]
    t = len(thetas)
    D = math.lcm(*(th.denominator for th in thetas))
    a = [th.numerator * (D // th.denominator) % D for th in thetas]
    basis = [[D * (i == j) for j in range(t)] + [a[i]] for i in range(t)] + [[0] * t + [D]]
    K, margin, P = 1, math.inf, 1
    while P <= MAX_COEFF:
        K_shell = int(2 * P / _coeff_threshold(P, t))
        for row in basis:  # the last coordinate is K times an integer
            row[t] = row[t] // K * K_shell
        K = K_shell
        d, lam = lll_reduce(basis)
        radius2 = D * D * (t + 1) * (2 * P) ** 2
        shortest = min(Fraction(d[i + 1], d[i]) for i in range(t + 1))
        margin = min(margin, math.sqrt(shortest / radius2))
        for x in reference_short_vectors(d, lam, radius2):
            p = [sum(xi * row[j] for xi, row in zip(x, basis)) // D for j in range(t)]
            r = sum(pi * ai for pi, ai in zip(p, a)) % D
            dist, top = Fraction(min(r, D - r), D), max(map(abs, p), default=0)
            if 0 < top <= MAX_COEFF and dist < _coeff_threshold(top, t):
                raise IndependenceFailure(
                    f"relation with coefficients {p} ~ integer (distance {float(dist):.3g})"
                )
        P *= 2
    return margin
