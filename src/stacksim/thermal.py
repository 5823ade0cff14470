"""Steady-state thermal model of the die stack plus frequency regulation.

The stack is one column of layers, bottom first: the logic die, then one
bond and one DRAM die per stacked die of `lb.R` (`layer_column`); the three
materials and the cooling come from `ArchConfig.thermal_stack`. Every layer
spans the whole chip, power spreads evenly within each layer, heat leaves
evenly through the top surface and the sides are adiabatic, so the
temperature is uniform within each layer and one node per layer is exact
(the layer column of HotSpot's compact model). Adjacent layers couple through
the series conductance of their half-thickness slabs; the top layer reaches
ambient through its half slab in series with the boundary heat-transfer
coefficient. Temperatures are solved relative to ambient. The solver
(`build_matrices`, `ThermalGrid.steady_state`) takes any column.

Layer 0 is the bottom of the stack and heat leaves only through the top, so
in steady state the interface above layer i carries all the power of layers
0..i: the steady state is that cumulative flux through series conductances,
with no solve. There is no transient: over a decoding step's per-operator
power, the stack's peak temperature stays within hundredths of a kelvin of
the steady state of the step's average power, far below one regulation step.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from .arch import ArchConfig, StackDescription

RETENTION_LIMIT_C = 85.0
FREQ_STEP_GHZ = 0.05
FREQ_FLOOR_GHZ = 0.1


class ThermalError(ValueError):
    pass


class Layer(NamedTuple):
    thickness_m: float
    conductivity_w_mk: float


def layer_column(cfg: ArchConfig) -> tuple[Layer, ...]:
    """The stack's layers, bottom first: the logic die, then `lb.R` times a
    bond and a DRAM die."""
    s = cfg.thermal_stack
    logic = Layer(s.logic_thickness_m, s.logic_conductivity_w_mk)
    bond = Layer(s.bond_thickness_m, s.bond_conductivity_w_mk)
    dram = Layer(s.dram_thickness_m, s.dram_conductivity_w_mk)
    return (logic,) + (bond, dram) * cfg.lb.R


@dataclass(frozen=True)
class ThermalGrid:
    conductance: tuple[float, ...]  # W/K between layer i and i+1, bottom to top
    top_conductance: float  # W/K from the top layer to ambient

    @property
    def nodes(self) -> int:
        return len(self.conductance) + 1

    def steady_state(self, P) -> list[float]:
        """Temperature rise over ambient for constant power P (W per layer)."""
        if len(P) != self.nodes:
            raise ThermalError(f"power has {len(P)} entries, "
                               f"stack has {self.nodes} layers")
        flux = list(accumulate(P))  # W through the interface above each layer
        T = [0.0] * self.nodes
        T[-1] = flux[-1] / self.top_conductance
        for i in range(self.nodes - 2, -1, -1):
            T[i] = T[i + 1] + flux[i] / self.conductance[i]
        return T


def build_matrices(layers, stack: StackDescription) -> ThermalGrid:
    """Assemble the column `layers` (bottom first) under the cooling of
    `stack`: the series conductances between adjacent layers and from the
    top layer to ambient."""
    if len(layers) < 2:
        raise ThermalError("stack needs at least 2 layers")
    area = stack.chip_area_m2
    # Conductance of each layer's half-thickness slab over the chip area.
    half = [layer.conductivity_w_mk * area / (layer.thickness_m / 2)
            for layer in layers]
    conductance = tuple(1.0 / (1.0 / lower + 1.0 / upper)
                        for lower, upper in zip(half, half[1:]))
    # Boundary: top layer to ambient through half-slab conduction + HTC.
    top = 1.0 / (1.0 / half[-1] + 1.0 / (stack.htc_w_m2k * area))
    return ThermalGrid(conductance, top)


def power_map(grid: ThermalGrid, compute_w: float, dram_w: float) -> list[float]:
    """Power per layer of a `layer_column` grid: compute power on the logic
    die (layer 0), DRAM power split evenly over the DRAM dies (layers 2, 4,
    ..., the top)."""
    dies = grid.nodes // 2
    P = [0.0] * grid.nodes
    P[0] = compute_w
    P[2::2] = [dram_w / dies] * dies
    return P


@dataclass(frozen=True)
class RegulationResult:
    frequency_ghz: float
    peak_temperature_c: float
    feasible: bool
    trace: tuple[tuple[float, float], ...]  # (frequency, peak T) pairs tried


def regulate(cfg: ArchConfig, power_model) -> RegulationResult:
    """Lower the clock in 0.05 GHz steps until steady-state peak T is at most
    `RETENTION_LIMIT_C`.

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
    grid = build_matrices(layer_column(cfg), cfg.thermal_stack)
    ambient = cfg.thermal_stack.ambient_c
    trace = []
    for freq in freqs:
        P = power_map(grid, *power_model(freq))
        peak = max(grid.steady_state(P)) + ambient
        trace.append((freq, peak))
        if peak <= RETENTION_LIMIT_C:
            return RegulationResult(freq, peak, True, tuple(trace))
    return RegulationResult(freq, peak, False, tuple(trace))
