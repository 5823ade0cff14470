import dataclasses
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

from stacksim.arch import ArchConfig, LogicalBankSpec, StackDescription, load_arch
from stacksim.sweep import apply_dimension, default_power_model
from stacksim.thermal import (
    FREQ_FLOOR_GHZ, FREQ_STEP_GHZ, Layer, ThermalError, build_matrices,
    layer_column, power_map, regulate,
)
from thermal_reference import (
    dense_conductance, heat_capacities, reference_step, reference_steady_state,
    relative_error,
)

AREA = 1e-4  # 100 mm^2
REL_TOL = 1e-12  # closed form vs the exact solve


def two_layer_column(t1=100e-6, t2=50e-6, k1=120.0, k2=120.0, htc=10000.0):
    """(layers, stack) of a two-layer column under the given cooling."""
    return ((Layer(t1, k1), Layer(t2, k2)),
            StackDescription(htc_w_m2k=htc, chip_area_m2=AREA))


def _default_column():
    cfg = ArchConfig()
    return layer_column(cfg), cfg.thermal_stack


def test_two_cell_conductances_by_hand():
    layers, stack = two_layer_column()
    grid = build_matrices(layers, stack)
    g_v = 1.0 / (50e-6 / (120.0 * AREA) + 25e-6 / (120.0 * AREA))
    g_b = 1.0 / (25e-6 / (120.0 * AREA) + 1.0 / (10000.0 * AREA))
    assert grid.conductance == (pytest.approx(g_v),)
    assert grid.top_conductance == pytest.approx(g_b)
    G = dense_conductance(layers, stack)
    assert G[0, 1] == pytest.approx(-g_v)
    assert G[0, 0] == pytest.approx(g_v)
    assert G[1, 1] == pytest.approx(g_v + g_b)
    # Steady state with 10 W in the logic cell: T1 = P/g_b, T0 = T1 + P/g_v.
    T = grid.steady_state([10.0, 0.0])
    assert T[1] == pytest.approx(10.0 / g_b)
    assert T[0] == pytest.approx(10.0 / g_b + 10.0 / g_v)


def test_matrices_are_symmetric_and_conductances_positive():
    layers, stack = _default_column()
    grid = build_matrices(layers, stack)
    G = dense_conductance(layers, stack)
    # The grid's conductances are the reference's off-diagonal couplings,
    # and each row of G sums to the heat that leaves the stack from it.
    assert abs(G - G.T).max() < 1e-12
    n = grid.nodes
    assert [-G[i, i + 1] for i in range(n - 1)] == pytest.approx(list(grid.conductance))
    assert G.sum(axis=1)[:-1] == pytest.approx([0.0] * (n - 1), abs=1e-9)
    assert G.sum(axis=1)[-1] == pytest.approx(grid.top_conductance)
    assert all(g > 0 for g in (*grid.conductance, grid.top_conductance))


def test_halving_top_thickness_raises_escape_conductance():
    thick = build_matrices(*two_layer_column(t2=50e-6)).top_conductance
    thin = build_matrices(*two_layer_column(t2=25e-6)).top_conductance
    # The escape path is the top half-slab in series with the HTC: it
    # conducts more as the half-slab shrinks.
    assert thin > thick
    assert thin == pytest.approx(1.0 / (12.5e-6 / (120.0 * AREA) + 1.0 / (10000.0 * AREA)))


def test_steady_state_is_step_fixed_point():
    # A backward-Euler step of the reference transient leaves the
    # production steady state where it is.
    layers, stack = _default_column()
    grid = build_matrices(layers, stack)
    P = power_map(grid, 200.0, 50.0)
    T = grid.steady_state(P)
    T2 = reference_step(dense_conductance(layers, stack), heat_capacities(layers, stack),
                        T, P, dt=1e-3)
    assert list(T2) == pytest.approx(T, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("name", ["default", "edge"])
def test_shipped_stacks_match_dense_reference(name):
    cfg = _shipped(name)
    layers = layer_column(cfg)
    grid = build_matrices(layers, cfg.thermal_stack)
    P = power_map(grid, 250.0, 60.0)
    T = grid.steady_state(P)
    assert relative_error(T, reference_steady_state(layers, cfg.thermal_stack, P)) <= REL_TOL


_layer = st.builds(Layer, thickness_m=st.floats(5e-6, 5e-4),
                   conductivity_w_mk=st.floats(1.0, 400.0))
_value = st.one_of(st.just(0.0), st.floats(1e-3, 500.0))


@st.composite
def _column(draw):
    layers = tuple(draw(st.lists(_layer, min_size=2, max_size=12)))
    stack = StackDescription(htc_w_m2k=draw(st.floats(500.0, 1e5)),
                             chip_area_m2=draw(st.floats(1e-5, 1e-3)))
    n = len(layers)
    return layers, stack, draw(st.lists(_value, min_size=n, max_size=n))


# A column on which a float LU solve of the reference was off by a relative
# 3.2e-12 in the steady state, while the closed form was right.
_LU_OFF_BY_3E_12 = (
    tuple(Layer(t, k) for t, k in (
        (5e-5, 1.0), (5e-6, 400.0), (5e-5, 1.0), (5e-4, 400.0), (5e-6, 400.0),
        (5e-4, 1.0), (5e-4, 1.0), (5e-5, 400.0), (5e-5, 400.0), (5e-5, 400.0),
        (5e-6, 1.0))),
    StackDescription(htc_w_m2k=33217.0, chip_area_m2=1e-5))


@settings(max_examples=200, deadline=None)
@given(_column())
@example((*_LU_OFF_BY_3E_12, [0.0] * 10 + [1.0]))
def test_random_columns_match_dense_reference(column):
    layers, stack, P = column
    grid = build_matrices(layers, stack)
    assert relative_error(grid.steady_state(P),
                          reference_steady_state(layers, stack, P)) <= REL_TOL


def test_transient_converges_to_steady_state():
    # The reference transient from ambient ends at the production steady
    # state.
    layers, stack = _default_column()
    grid = build_matrices(layers, stack)
    P = power_map(grid, 300.0, 80.0)
    target = grid.steady_state(P)
    G, C = dense_conductance(layers, stack), heat_capacities(layers, stack)
    T = [0.0] * grid.nodes
    for _ in range(400):
        T = reference_step(G, C, T, P, dt=5e-3)
    assert relative_error(T, target) <= 1e-6


def test_nonnegative_power_keeps_grid_above_ambient():
    grid = build_matrices(*_default_column())
    T = grid.steady_state(power_map(grid, 150.0, 30.0))
    assert all(t > 0 for t in T)


def test_power_map_conserves_power():
    grid = build_matrices(*_default_column())
    P = power_map(grid, 123.0, 45.0)
    assert sum(P) == pytest.approx(168.0)


@pytest.mark.parametrize("dies", [1, 4, 8])
def test_layer_column_follows_the_die_count(dies):
    # Logic, then a bond and a DRAM die per stacked die; compute power sits
    # on the logic die and DRAM power is split evenly over the DRAM dies.
    cfg = ArchConfig(lb=LogicalBankSpec(R=dies))
    s = cfg.thermal_stack
    assert layer_column(cfg) == (
        (Layer(s.logic_thickness_m, s.logic_conductivity_w_mk),)
        + (Layer(s.bond_thickness_m, s.bond_conductivity_w_mk),
           Layer(s.dram_thickness_m, s.dram_conductivity_w_mk)) * dies)
    grid = build_matrices(layer_column(cfg), s)
    assert grid.nodes == 1 + 2 * dies
    P = power_map(grid, 100.0, 8.0)
    assert P == [100.0] + [0.0, 8.0 / dies] * dies


def test_solver_rejects_a_power_map_of_the_wrong_length():
    grid = build_matrices(*two_layer_column())
    with pytest.raises(ThermalError):
        grid.steady_state([1.0])


def test_build_needs_two_layers():
    with pytest.raises(ThermalError):
        build_matrices((Layer(1e-4, 120.0),), StackDescription())


def small_cfg():
    """A one-die stack (logic, bond, DRAM die) on 100 mm^2."""
    cfg = ArchConfig(lb=LogicalBankSpec(R=1))
    return dataclasses.replace(
        cfg, thermal_stack=dataclasses.replace(cfg.thermal_stack, chip_area_m2=AREA))


def test_regulate_steps_down_to_threshold():
    cfg = small_cfg()

    # Roughly 1.03 K/W from the logic die to ambient in this stack: 70 W at
    # the nominal clock is over the cap; the regulator settles three steps
    # down at 0.8 GHz.
    def power(freq):
        return 70.0 * freq, 0.0

    res = regulate(cfg, power)
    assert res.feasible
    assert res.frequency_ghz == pytest.approx(0.8)
    assert FREQ_FLOOR_GHZ <= res.frequency_ghz < cfg.core.frequency_ghz
    steps = round((cfg.core.frequency_ghz - res.frequency_ghz) / FREQ_STEP_GHZ)
    assert res.frequency_ghz == pytest.approx(
        cfg.core.frequency_ghz - steps * FREQ_STEP_GHZ)
    assert res.peak_temperature_c <= 85.0
    # All rejected frequencies were over the limit; the trace cools monotonically.
    freqs = [f for f, _ in res.trace]
    peaks = [t for _, t in res.trace]
    assert freqs == sorted(freqs, reverse=True)
    assert all(t > 85.0 for t in peaks[:-1])
    assert peaks[-1] == res.peak_temperature_c
    # One step faster would have violated the cap.
    assert peaks[-2] > 85.0


def test_regulate_cool_chip_keeps_nominal_frequency():
    cfg = small_cfg()
    res = regulate(cfg, lambda f: (1.0, 0.5))
    assert res.feasible and res.frequency_ghz == cfg.core.frequency_ghz
    assert len(res.trace) == 1


def test_regulate_infeasible_at_floor():
    cfg = small_cfg()
    res = regulate(cfg, lambda f: (1e6, 0.0))
    assert not res.feasible
    assert res.frequency_ghz == FREQ_FLOOR_GHZ
    assert res.peak_temperature_c > 85.0


def test_regulate_never_raises_the_clock_above_nominal():
    # A nominal clock below the floor is the only candidate: stepping up to
    # the floor would run the chip faster than it was designed for.
    cfg = ArchConfig()
    cfg = dataclasses.replace(cfg, core=dataclasses.replace(cfg.core, frequency_ghz=0.07))
    res = regulate(cfg, lambda f: (10000.0 * f, 0.0))
    assert not res.feasible
    assert res.frequency_ghz == 0.07
    assert [f for f, _ in res.trace] == [0.07]
    assert res.peak_temperature_c == res.trace[0][1] > 85.0


def _shipped(name):
    return load_arch(str(resources.files("stacksim").joinpath(f"configs/{name}.yaml")))


# Regulation of the shipped configs under the default power model,
# computed with the 16x16-cells-per-layer grid that the layer column
# replaced; (frequency GHz, peak C rounded to 6 decimals) per step.
BW8192_TRACE = [
    (1.0, 158.957589), (0.95, 157.537269), (0.9, 156.116949),
    (0.85, 154.696629), (0.8, 153.276309), (0.75, 151.855989),
    (0.7, 150.435669), (0.65, 149.015349), (0.6, 147.595029),
    (0.55, 146.174709), (0.5, 144.754389), (0.45, 143.334069),
    (0.4, 141.913749), (0.35, 140.493429), (0.3, 139.073109),
    (0.25, 137.652789), (0.2, 136.232469), (0.15, 134.812149),
    (0.1, 133.391829),
]
EDGE_TRACE = [
    (1.0, 221.020455), (0.95, 214.38058), (0.9, 207.740705),
    (0.85, 201.10083), (0.8, 194.460955), (0.75, 187.82108),
    (0.7, 181.181205), (0.65, 174.54133), (0.6, 167.901455),
    (0.55, 161.26158), (0.5, 154.621705), (0.45, 147.98183),
    (0.4, 141.341955), (0.35, 134.70208), (0.3, 128.062205),
    (0.25, 121.42233), (0.2, 114.782455), (0.15, 108.14258),
    (0.1, 101.502705),
]


def _bandwidth_8192():
    cfg = _shipped("default")
    return dataclasses.replace(cfg, channel=dataclasses.replace(cfg.channel, io_pins=8192))


@pytest.mark.parametrize("make_cfg, feasible, trace", [
    (lambda: _shipped("default"), True, [(1.0, 66.600299)]),
    (_bandwidth_8192, False, BW8192_TRACE),
    (lambda: _shipped("edge"), False, EDGE_TRACE),
], ids=["default", "default-bw8192", "edge"])
def test_regulation_of_shipped_configs_pinned(make_cfg, feasible, trace):
    cfg = make_cfg()
    res = regulate(cfg, default_power_model(cfg))
    assert res.feasible is feasible
    assert res.frequency_ghz == trace[-1][0]
    assert [(f, round(t, 6)) for f, t in res.trace] == trace


def test_channel_sweep_regulates_against_its_die_count():
    # Eight channels hold the default's capacity with R = 8 dies, so the
    # stack is logic + 8 x (bond, DRAM): 17 layers, written out here from
    # the default materials rather than read from `layer_column`.
    cfg = apply_dimension(_shipped("default"), "channels", 8)
    assert cfg.lb.R == 8
    layers = [Layer(100e-6, 120.0)] + [Layer(5e-6, 2.0), Layer(50e-6, 120.0)] * 8
    assert build_matrices(layer_column(cfg), cfg.thermal_stack).nodes == len(layers) == 17
    res = regulate(cfg, default_power_model(cfg))
    compute_w, dram_w = default_power_model(cfg)(res.frequency_ghz)
    P = [compute_w] + [0.0, dram_w / 8] * 8
    peak = max(reference_steady_state(layers, cfg.thermal_stack, P)) + cfg.thermal_stack.ambient_c
    assert res.peak_temperature_c == pytest.approx(peak, rel=REL_TOL)
