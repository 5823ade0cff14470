"""Grid-based transient thermal solver for the die stack plus frequency regulation.

Finite-volume discretization: every layer is an res x res grid of cells with
lateral conductances inside the layer and series-combined vertical
conductances between layers. Heat leaves through the top surface via the
boundary heat-transfer coefficient. Temperatures are solved relative to
ambient, so the governing systems are G T = P (steady state) and
(C/dt + G) T' = P + (C/dt) T (backward Euler transient step).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .arch import ArchConfig, StackDescription

DEFAULT_RESOLUTION = 128
RETENTION_LIMIT_C = 85.0
FREQ_STEP_GHZ = 0.05
FREQ_FLOOR_GHZ = 0.1


class ThermalError(ValueError):
    pass


@dataclass
class ThermalGrid:
    stack: StackDescription
    resolution: int
    C: sp.csr_matrix  # capacitance (diagonal, J/K per cell)
    G: sp.csr_matrix  # conductance (W/K), boundary terms on the diagonal
    _G_solve: object = None
    _step_cache: tuple | None = None

    @property
    def nodes(self) -> int:
        return len(self.stack.layers) * self.resolution * self.resolution

    def steady_state(self, P: np.ndarray) -> np.ndarray:
        """Temperature rise over ambient for constant power P (W per cell)."""
        if self._G_solve is None:
            self._G_solve = spla.factorized(self.G.tocsc())
        return self._G_solve(np.asarray(P, dtype=float).ravel())

    def step(self, T: np.ndarray, P: np.ndarray, dt: float) -> np.ndarray:
        """One backward-Euler step of length dt (seconds)."""
        if dt <= 0:
            raise ThermalError(f"dt must be positive (got {dt})")
        if self._step_cache is None or self._step_cache[0] != dt:
            A = (self.C / dt + self.G).tocsc()
            self._step_cache = (dt, spla.factorized(A))
        solve = self._step_cache[1]
        T = np.asarray(T, dtype=float).ravel()
        rhs = np.asarray(P, dtype=float).ravel() + self.C.dot(T) / dt
        return solve(rhs)


def build_matrices(stack: StackDescription, resolution: int = DEFAULT_RESOLUTION) -> ThermalGrid:
    """Assemble the finite-volume capacitance and conductance matrices."""
    if len(stack.layers) < 2:
        raise ThermalError("stack needs at least 2 layers")
    res = resolution
    n_layers = len(stack.layers)
    n = n_layers * res * res
    side = np.sqrt(stack.chip_area_m2)
    dx = side / res  # square cells
    cell_area = dx * dx

    cap = np.empty(n)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    diag = np.zeros(n)

    def node(layer, i, j):
        return (layer * res + i) * res + j

    def couple(a, b, g):
        rows.extend((a, b))
        cols.extend((b, a))
        vals.extend((-g, -g))
        diag[a] += g
        diag[b] += g

    for li, layer in enumerate(stack.layers):
        t = layer.thickness_m
        k = layer.conductivity_w_mk
        cap[node(li, 0, 0):node(li, res - 1, res - 1) + 1] = \
            layer.vol_heat_capacity_j_m3k * cell_area * t
        # Lateral conductance between adjacent cells: k * (t * dx) / dx = k * t.
        g_lat = k * t
        for i in range(res):
            for j in range(res):
                a = node(li, i, j)
                if j + 1 < res:
                    couple(a, node(li, i, j + 1), g_lat)
                if i + 1 < res:
                    couple(a, node(li, i + 1, j), g_lat)

    # Vertical coupling: series combination of the two half-thickness slabs.
    for li in range(n_layers - 1):
        lo, hi = stack.layers[li], stack.layers[li + 1]
        g_lo = lo.conductivity_w_mk * cell_area / (lo.thickness_m / 2)
        g_hi = hi.conductivity_w_mk * cell_area / (hi.thickness_m / 2)
        g_v = 1.0 / (1.0 / g_lo + 1.0 / g_hi)
        for i in range(res):
            for j in range(res):
                couple(node(li, i, j), node(li + 1, i, j), g_v)

    # Boundary: top layer to ambient through half-slab conduction + HTC.
    top = stack.layers[-1]
    g_half = top.conductivity_w_mk * cell_area / (top.thickness_m / 2)
    g_htc = stack.htc_w_m2k * cell_area
    g_b = 1.0 / (1.0 / g_half + 1.0 / g_htc)
    for i in range(res):
        for j in range(res):
            diag[node(n_layers - 1, i, j)] += g_b

    rows.extend(range(n))
    cols.extend(range(n))
    vals.extend(diag)
    G = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    C = sp.diags(cap, format="csr")
    return ThermalGrid(stack, res, C, G)


def power_map(grid: ThermalGrid, compute_w: float, dram_w: float) -> np.ndarray:
    """Spread compute power over power-carrying logic cells and DRAM power
    over power-carrying DRAM-die cells (uniform within each group)."""
    res = grid.resolution
    P = np.zeros(grid.nodes)
    logic_layers = [i for i, l in enumerate(grid.stack.layers)
                    if l.power_layer and l.name.startswith("logic")]
    dram_layers = [i for i, l in enumerate(grid.stack.layers)
                   if l.power_layer and not l.name.startswith("logic")]
    if not logic_layers:
        logic_layers = [0]
    if not dram_layers:
        dram_layers = [len(grid.stack.layers) - 1]
    cells = res * res
    for li in logic_layers:
        base = li * cells
        P[base:base + cells] += compute_w / (len(logic_layers) * cells)
    for li in dram_layers:
        base = li * cells
        P[base:base + cells] += dram_w / (len(dram_layers) * cells)
    return P


@dataclass(frozen=True)
class RegulationResult:
    frequency_ghz: float
    peak_temperature_c: float
    feasible: bool
    trace: tuple[tuple[float, float], ...]  # (frequency, peak T) pairs tried


def regulate(cfg: ArchConfig, power_model, resolution: int = 32,
             limit_c: float = RETENTION_LIMIT_C) -> RegulationResult:
    """Lower the clock in 0.05 GHz steps until steady-state peak T meets the cap.

    `power_model(frequency_ghz) -> (compute_w, dram_w)` must be non-increasing
    in frequency. Returns the first feasible frequency, or the 0.1 GHz floor
    with the infeasibility flag set.
    """
    grid = build_matrices(cfg.thermal_stack, resolution)
    ambient = cfg.thermal_stack.ambient_c
    freq = cfg.core.frequency_ghz
    trace = []
    while True:
        compute_w, dram_w = power_model(freq)
        P = power_map(grid, compute_w, dram_w)
        peak = float(grid.steady_state(P).max()) + ambient
        trace.append((freq, peak))
        if peak <= limit_c:
            return RegulationResult(freq, peak, True, tuple(trace))
        next_freq = round(freq - FREQ_STEP_GHZ, 10)
        if next_freq < FREQ_FLOOR_GHZ:
            if abs(freq - FREQ_FLOOR_GHZ) > 1e-12:
                compute_w, dram_w = power_model(FREQ_FLOOR_GHZ)
                P = power_map(grid, compute_w, dram_w)
                peak = float(grid.steady_state(P).max()) + ambient
                trace.append((FREQ_FLOOR_GHZ, peak))
                if peak <= limit_c:
                    return RegulationResult(FREQ_FLOOR_GHZ, peak, True, tuple(trace))
            return RegulationResult(FREQ_FLOOR_GHZ, peak, False, tuple(trace))
        freq = next_freq


def temperature_field_csv(grid: ThermalGrid, T: np.ndarray, ambient_c: float) -> str:
    """Dump a per-layer temperature grid as CSV for inspection."""
    res = grid.resolution
    out = []
    field = np.asarray(T).reshape(len(grid.stack.layers), res, res) + ambient_c
    for li, layer in enumerate(grid.stack.layers):
        out.append(f"# layer {li} {layer.name}")
        for i in range(res):
            out.append(",".join(f"{v:.4f}" for v in field[li, i]))
    return "\n".join(out) + "\n"
