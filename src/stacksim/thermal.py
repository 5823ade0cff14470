"""Steady-state thermal model of the die stack plus frequency regulation.

Every layer spans the whole chip, power spreads evenly within each layer,
heat leaves evenly through the top surface and the sides are adiabatic, so
the temperature is uniform within each layer and one node per layer is exact
(the layer column of HotSpot's compact model). Adjacent layers couple through
the series conductance of their half-thickness slabs; the top layer reaches
ambient through its half slab in series with the boundary heat-transfer
coefficient. Temperatures are solved relative to ambient.

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

from .arch import ArchConfig, StackDescription

RETENTION_LIMIT_C = 85.0
FREQ_STEP_GHZ = 0.05
FREQ_FLOOR_GHZ = 0.1


class ThermalError(ValueError):
    pass


@dataclass(frozen=True)
class ThermalGrid:
    stack: StackDescription
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


def build_matrices(stack: StackDescription) -> ThermalGrid:
    """Assemble the layer column: the series conductances between adjacent
    layers and from the top layer to ambient."""
    if len(stack.layers) < 2:
        raise ThermalError("stack needs at least 2 layers")
    area = stack.chip_area_m2
    # Conductance of each layer's half-thickness slab over the chip area.
    half = [layer.conductivity_w_mk * area / (layer.thickness_m / 2)
            for layer in stack.layers]
    conductance = tuple(1.0 / (1.0 / lower + 1.0 / upper)
                        for lower, upper in zip(half, half[1:]))
    # Boundary: top layer to ambient through half-slab conduction + HTC.
    top = 1.0 / (1.0 / half[-1] + 1.0 / (stack.htc_w_m2k * area))
    return ThermalGrid(stack, conductance, top)


def power_map(grid: ThermalGrid, compute_w: float, dram_w: float) -> list[float]:
    """Spread compute power over the power-carrying logic layers and DRAM
    power over the power-carrying DRAM dies (evenly within each group)."""
    P = [0.0] * grid.nodes
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
    grid = build_matrices(cfg.thermal_stack)
    ambient = cfg.thermal_stack.ambient_c
    trace = []
    for freq in freqs:
        P = power_map(grid, *power_model(freq))
        peak = max(grid.steady_state(P)) + ambient
        trace.append((freq, peak))
        if peak <= RETENTION_LIMIT_C:
            return RegulationResult(freq, peak, True, tuple(trace))
    return RegulationResult(freq, peak, False, tuple(trace))
