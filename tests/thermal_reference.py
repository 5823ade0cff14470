"""Dense-matrix reference for the layer-column thermal model (test-only numpy).

Deliberately independent of the production solver: it assembles the full
conductance matrix G and the diagonal capacitance matrix C straight from a
`StackDescription`, one conductance stamp per interface as in nodal
analysis, and solves G T = P (steady state) and (C/dt + G) T' = P + (C/dt) T
(backward Euler) by Gaussian elimination in exact rational arithmetic. The
stamps are exact sums of the float conductances, so the reference rounds
only those conductances and its final result. Only the physics is shared:
each layer's half-thickness slabs in series between neighbours, and the top
layer's half slab in series with the boundary heat-transfer coefficient.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def half_slab_conductances(stack) -> list[float]:
    """W/K of each layer's half-thickness slab over the chip area."""
    area = stack.chip_area_m2
    return [layer.conductivity_w_mk * area / (layer.thickness_m / 2)
            for layer in stack.layers]


def exact_matrices(stack) -> tuple[list[list[Fraction]], list[Fraction]]:
    """(G, C) of the column, stamped exactly: G (W/K) as rows of fractions,
    and the diagonal of C (J/K)."""
    area = stack.chip_area_m2
    half = half_slab_conductances(stack)
    n = len(stack.layers)
    G = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n - 1):
        g = Fraction(1.0 / (1.0 / half[i] + 1.0 / half[i + 1]))
        G[i][i] += g
        G[i + 1][i + 1] += g
        G[i][i + 1] -= g
        G[i + 1][i] -= g
    G[-1][-1] += Fraction(1.0 / (1.0 / half[-1] + 1.0 / (stack.htc_w_m2k * area)))
    C = [Fraction(layer.vol_heat_capacity_j_m3k * area * layer.thickness_m)
         for layer in stack.layers]
    return G, C


def dense_matrices(stack) -> tuple[np.ndarray, np.ndarray]:
    """(G, C): the exact stamps as float matrices, each entry rounded once."""
    G, C = exact_matrices(stack)
    return np.array(G, dtype=float), np.diag(np.array(C, dtype=float))


def _solve(A, b) -> np.ndarray:
    """x of A x = b, eliminated in exact arithmetic and rounded at the end.

    A is symmetric positive definite (G, or G plus a positive diagonal), so
    every pivot is positive and no row exchange is needed.
    """
    n = len(b)
    rows = [[*row, rhs] for row, rhs in zip(A, b)]
    for i in range(n):
        for r in range(i + 1, n):
            f = rows[r][i] / rows[i][i]
            if f:
                rows[r] = [a - f * p for a, p in zip(rows[r], rows[i])]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (rows[i][n] - sum(rows[i][j] * x[j] for j in range(i + 1, n))) / rows[i][i]
    return np.array(x, dtype=float)


def reference_steady_state(stack, P) -> np.ndarray:
    G, _ = exact_matrices(stack)
    return _solve(G, [Fraction(p) for p in P])


def reference_step(stack, T, P, dt: float) -> np.ndarray:
    G, C = exact_matrices(stack)
    c_dt = [c / Fraction(dt) for c in C]
    A = [[g + c_dt[i] if i == j else g for j, g in enumerate(row)]
         for i, row in enumerate(G)]
    return _solve(A, [Fraction(p) + c * Fraction(t) for p, c, t in zip(P, c_dt, T)])


def stiffness(stack) -> float:
    """How much the production backward-Euler sweep's rounding error can
    exceed machine epsilon.

    Eliminating a layer adds the interface conductance below it into a
    diagonal that the sweep later cancels down to the next conductance
    above it, so at long steps the sweep's relative error is about eps times
    the largest ratio of the conductances below an interface (summed) to
    that interface's own, with the escape conductance as the top interface.
    """
    area = stack.chip_area_m2
    half = half_slab_conductances(stack)
    g = [1.0 / (1.0 / a + 1.0 / b) for a, b in zip(half, half[1:])]
    g.append(1.0 / (1.0 / half[-1] + 1.0 / (stack.htc_w_m2k * area)))
    return max(sum(g[:i]) / g[i] for i in range(1, len(g)))


def relative_error(got, expected) -> float:
    """max |got - expected| over max |expected| (0 when both are 0)."""
    got = np.asarray(got, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = np.abs(expected).max()
    diff = np.abs(got - expected).max()
    return float(diff / scale) if scale else float(diff)
