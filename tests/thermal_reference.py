"""Dense-matrix reference for the layer-column thermal model (test-only numpy).

Deliberately independent of the production solver: it assembles the full
conductance matrix G and the diagonal capacitance matrix C straight from a
`StackDescription`, one conductance stamp per interface as in nodal
analysis, and solves G T = P (steady state) and (C/dt + G) T' = P + (C/dt) T
(backward Euler) with `np.linalg.solve`. Only the physics is shared: each
layer's half-thickness slabs in series between neighbours, and the top
layer's half slab in series with the boundary heat-transfer coefficient.
"""

from __future__ import annotations

import numpy as np


def half_slab_conductances(stack) -> list[float]:
    """W/K of each layer's half-thickness slab over the chip area."""
    area = stack.chip_area_m2
    return [layer.conductivity_w_mk * area / (layer.thickness_m / 2)
            for layer in stack.layers]


def dense_matrices(stack) -> tuple[np.ndarray, np.ndarray]:
    """(G, C): conductance (W/K) and capacitance (J/K) matrices of the column."""
    area = stack.chip_area_m2
    half = half_slab_conductances(stack)
    n = len(stack.layers)
    G = np.zeros((n, n))
    for i in range(n - 1):
        g = 1.0 / (1.0 / half[i] + 1.0 / half[i + 1])
        G[np.ix_([i, i + 1], [i, i + 1])] += g * np.array([[1.0, -1.0], [-1.0, 1.0]])
    G[-1, -1] += 1.0 / (1.0 / half[-1] + 1.0 / (stack.htc_w_m2k * area))
    C = np.diag([layer.vol_heat_capacity_j_m3k * area * layer.thickness_m
                 for layer in stack.layers])
    return G, C


def reference_steady_state(stack, P) -> np.ndarray:
    G, _ = dense_matrices(stack)
    return np.linalg.solve(G, np.asarray(P, dtype=float))


def reference_step(stack, T, P, dt: float) -> np.ndarray:
    G, C = dense_matrices(stack)
    rhs = np.asarray(P, dtype=float) + C.dot(np.asarray(T, dtype=float)) / dt
    return np.linalg.solve(C / dt + G, rhs)


def stiffness(stack) -> float:
    """How much the dense solve's own rounding error exceeds machine epsilon.

    Assembling G adds each interface conductance into a diagonal that the LU
    elimination later cancels down to the next conductance above it, so the
    reference's relative error is about eps times the largest ratio of the
    conductances below an interface (summed) to that interface's own, with
    the escape conductance as the top interface.
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
