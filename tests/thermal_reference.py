"""Dense-matrix reference for the layer-column thermal model (test-only numpy).

Deliberately independent of the production solver: it assembles the full
conductance matrix G straight from a layer list (bottom first, each with a
`thickness_m` and a `conductivity_w_mk`) and the cooling of a
`StackDescription`, one conductance stamp per interface as in nodal analysis, and solves G T = P (steady state)
by Gaussian elimination in exact rational arithmetic. The stamps are exact
sums of the float conductances, so the reference rounds only those
conductances and its final result. Only the physics is shared: each layer's
half-thickness slabs in series between neighbours, and the top layer's half
slab in series with the boundary heat-transfer coefficient.

The production model has no transient. To check that its steady state is
enough, `reference_step` takes one dense backward-Euler step
(C/dt + G) T' = P + (C/dt) T in numpy floats, with heat capacities C that
only the tests declare (`heat_capacities`).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Volumetric heat capacities (J/m^3K) of generic silicon and bonding layers.
SILICON_J_M3K = 1.6e6
BOND_J_M3K = 1.8e6


def half_slab_conductances(layers, stack) -> list[float]:
    """W/K of each layer's half-thickness slab over the chip area."""
    area = stack.chip_area_m2
    return [layer.conductivity_w_mk * area / (layer.thickness_m / 2)
            for layer in layers]


def exact_conductance(layers, stack) -> list[list[Fraction]]:
    """G (W/K) of the column, stamped exactly, as rows of fractions."""
    area = stack.chip_area_m2
    half = half_slab_conductances(layers, stack)
    n = len(layers)
    G = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n - 1):
        g = Fraction(1.0 / (1.0 / half[i] + 1.0 / half[i + 1]))
        G[i][i] += g
        G[i + 1][i + 1] += g
        G[i][i + 1] -= g
        G[i + 1][i] -= g
    G[-1][-1] += Fraction(1.0 / (1.0 / half[-1] + 1.0 / (stack.htc_w_m2k * area)))
    return G


def dense_conductance(layers, stack) -> np.ndarray:
    """G: the exact stamps as a float matrix, each entry rounded once."""
    return np.array(exact_conductance(layers, stack), dtype=float)


def _solve(A, b) -> np.ndarray:
    """x of A x = b, eliminated in exact arithmetic and rounded at the end.

    A is G, symmetric positive definite, so every pivot is positive and no
    row exchange is needed.
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


def reference_steady_state(layers, stack, P) -> np.ndarray:
    return _solve(exact_conductance(layers, stack), [Fraction(p) for p in P])


def heat_capacities(layers, stack) -> np.ndarray:
    """C (J/K) of each layer of a logic, (bond, DRAM) x R column: the bonds,
    at the odd positions, at `BOND_J_M3K`, every other layer at
    `SILICON_J_M3K`."""
    return np.array([(BOND_J_M3K if i % 2 else SILICON_J_M3K)
                     * stack.chip_area_m2 * layer.thickness_m
                     for i, layer in enumerate(layers)])


def reference_step(G, C, T, P, dt: float) -> np.ndarray:
    """T' after one backward-Euler step of length dt (seconds) from T under
    power P, for conductance matrix G and heat capacities C."""
    c_dt = np.asarray(C) / dt
    return np.linalg.solve(G + np.diag(c_dt), np.asarray(P) + c_dt * np.asarray(T))


def relative_error(got, expected) -> float:
    """max |got - expected| over max |expected| (0 when both are 0)."""
    got = np.asarray(got, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = np.abs(expected).max()
    diff = np.abs(got - expected).max()
    return float(diff / scale) if scale else float(diff)
