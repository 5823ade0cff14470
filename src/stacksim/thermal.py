"""Layer-column transient thermal solver for the die stack plus frequency regulation.

Every layer spans the whole chip, power spreads evenly within each layer,
heat leaves evenly through the top surface and the sides are adiabatic, so
the temperature is uniform within each layer and one node per layer is exact
(the layer column of HotSpot's compact model). Adjacent layers couple through
the series conductance of their half-thickness slabs; the top layer reaches
ambient through its half slab in series with the boundary heat-transfer
coefficient. Temperatures are solved relative to ambient, so the governing
systems are G T = P (steady state) and (C/dt + G) T' = P + (C/dt) T
(backward Euler transient step).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arch import ArchConfig, StackDescription

RETENTION_LIMIT_C = 85.0
FREQ_STEP_GHZ = 0.05
FREQ_FLOOR_GHZ = 0.1


class ThermalError(ValueError):
    pass


@dataclass
class ThermalGrid:
    stack: StackDescription
    C: np.ndarray  # capacitance (diagonal, J/K per layer)
    G: np.ndarray  # conductance (W/K), boundary term on the top diagonal

    @property
    def nodes(self) -> int:
        return len(self.stack.layers)

    def steady_state(self, P: np.ndarray) -> np.ndarray:
        """Temperature rise over ambient for constant power P (W per layer)."""
        return np.linalg.solve(self.G, np.asarray(P, dtype=float))

    def step(self, T: np.ndarray, P: np.ndarray, dt: float) -> np.ndarray:
        """One backward-Euler step of length dt (seconds)."""
        if dt <= 0:
            raise ThermalError(f"dt must be positive (got {dt})")
        rhs = np.asarray(P, dtype=float) + self.C.dot(np.asarray(T, dtype=float)) / dt
        return np.linalg.solve(self.C / dt + self.G, rhs)


def build_matrices(stack: StackDescription) -> ThermalGrid:
    """Assemble the per-layer capacitance and conductance matrices."""
    if len(stack.layers) < 2:
        raise ThermalError("stack needs at least 2 layers")
    area = stack.chip_area_m2
    n = len(stack.layers)
    C = np.diag([layer.vol_heat_capacity_j_m3k * area * layer.thickness_m
                 for layer in stack.layers])
    # Conductance of each layer's half-thickness slab over the chip area.
    half = [layer.conductivity_w_mk * area / (layer.thickness_m / 2)
            for layer in stack.layers]
    G = np.zeros((n, n))
    for li in range(n - 1):
        g_v = 1.0 / (1.0 / half[li] + 1.0 / half[li + 1])
        G[li, li + 1] = G[li + 1, li] = -g_v
        G[li, li] += g_v
        G[li + 1, li + 1] += g_v
    # Boundary: top layer to ambient through half-slab conduction + HTC.
    G[-1, -1] += 1.0 / (1.0 / half[-1] + 1.0 / (stack.htc_w_m2k * area))
    return ThermalGrid(stack, C, G)


def power_map(grid: ThermalGrid, compute_w: float, dram_w: float) -> np.ndarray:
    """Spread compute power over the power-carrying logic layers and DRAM
    power over the power-carrying DRAM dies (evenly within each group)."""
    P = np.zeros(grid.nodes)
    logic_layers = [i for i, l in enumerate(grid.stack.layers)
                    if l.power_layer and l.name.startswith("logic")]
    dram_layers = [i for i, l in enumerate(grid.stack.layers)
                   if l.power_layer and not l.name.startswith("logic")]
    if not logic_layers:
        logic_layers = [0]
    if not dram_layers:
        dram_layers = [len(grid.stack.layers) - 1]
    for li in logic_layers:
        P[li] += compute_w / len(logic_layers)
    for li in dram_layers:
        P[li] += dram_w / len(dram_layers)
    return P


@dataclass(frozen=True)
class RegulationResult:
    frequency_ghz: float
    peak_temperature_c: float
    feasible: bool
    trace: tuple[tuple[float, float], ...]  # (frequency, peak T) pairs tried


def regulate(cfg: ArchConfig, power_model,
             limit_c: float = RETENTION_LIMIT_C) -> RegulationResult:
    """Lower the clock in 0.05 GHz steps until steady-state peak T meets the cap.

    The candidates are the nominal clock, then 0.05 GHz steps down, then the
    0.1 GHz floor if the steps miss it; none is above nominal.
    `power_model(frequency_ghz) -> (compute_w, dram_w)` must be non-decreasing
    in frequency. Returns the first feasible candidate, or the last one tried
    with the infeasibility flag set.
    """
    freqs = [cfg.core.frequency_ghz]
    while (freq := round(freqs[-1] - FREQ_STEP_GHZ, 10)) >= FREQ_FLOOR_GHZ:
        freqs.append(freq)
    if freqs[-1] - FREQ_FLOOR_GHZ > 1e-12:
        freqs.append(FREQ_FLOOR_GHZ)
    grid = build_matrices(cfg.thermal_stack)
    ambient = cfg.thermal_stack.ambient_c
    trace = []
    for freq in freqs:
        P = power_map(grid, *power_model(freq))
        peak = float(grid.steady_state(P).max()) + ambient
        trace.append((freq, peak))
        if peak <= limit_c:
            return RegulationResult(freq, peak, True, tuple(trace))
    return RegulationResult(freq, peak, False, tuple(trace))
