import dataclasses
import math
from importlib import resources

import pytest
from hypothesis import given, strategies as st

from stacksim.arch import (
    ArchConfig, ArchError, ChannelSpec, CoreSpec, LogicalBankSpec,
    NocSpec, PhysicalBankSpec, _leaves, derived_metrics,
    matrix_flops_per_cycle, parse_arch, serialize, validate,
    vector_flops_per_cycle,
)
from stacksim.cli import main
from stacksim.sweep import default_power_model
from stacksim.thermal import regulate

TABLE4_YAML = """
schema_version: 1
dram:
  physical_bank: {row_size_bytes: 2048, row_count: 1280}
  logical_bank: {R: 4, C: 32}
  channel: {io_pins: 1024, pin_rate_gbps: 0.5, interleave_log2: 5}
core:
  channels: 16
  matrix_tflops: 15.36
  vector_tflops: 0.48
  sram_mb: 4
  frequency_ghz: 1.0
noc: {rows: 4, cols: 4, link_bytes_per_cycle: 128}
"""


def test_flagship_config_parses_to_expected_core():
    cfg = parse_arch(TABLE4_YAML)
    assert cfg.core.channels == 16
    assert cfg.core.matrix_tflops == 15.36
    assert cfg.core.vector_tflops == 0.48
    assert cfg.core.sram_bytes == 4 * 1024 * 1024
    assert cfg.noc.rows == cfg.noc.cols == 4
    assert cfg.noc.link_bytes_per_cycle == 128


def test_flagship_derived_metrics():
    cfg = parse_arch(TABLE4_YAML)
    d = derived_metrics(cfg)
    assert d.channel_gbps == 64.0
    assert d.core_gbps == 1024.0  # 1 TB/s per core
    assert cfg.pb.capacity_bytes == 2048 * 1280  # 2.5 MB physical bank
    assert cfg.channel_capacity_bytes == 4 * 32 * 2048 * 1280  # 320 MB
    assert d.core_capacity_bytes == 16 * cfg.channel_capacity_bytes  # 5 GB
    assert d.chip_capacity_bytes == 16 * d.core_capacity_bytes
    assert cfg.logical_row_bytes == 64 * 1024
    assert cfg.channel.burst_bytes == 128
    assert cfg.channel.interleave_bytes == 32 * 128
    assert matrix_flops_per_cycle(cfg.core) == pytest.approx(15360.0)
    assert vector_flops_per_cycle(cfg.core) == pytest.approx(480.0)


def test_one_pin_eight_gbps_is_one_gbps():
    cfg = ArchConfig(channel=ChannelSpec(io_pins=1, pin_rate_gbps=8.0))
    assert derived_metrics(cfg).channel_gbps == 1.0


def test_empty_text_is_missing_field_error():
    with pytest.raises(ArchError, match="missing mandatory section"):
        parse_arch("")


def test_logical_row_size_from_c_and_row_size():
    cfg = parse_arch(TABLE4_YAML)
    assert cfg.logical_row_bytes == 32 * 2048


def test_unknown_field_rejected(tmp_path, capsys):
    # flit_bytes is a field of older configs: a flit is now one link width.
    for field in ("bogus_field", "flit_bytes"):
        bad = TABLE4_YAML.replace("link_bytes_per_cycle: 128}",
                                  f"link_bytes_per_cycle: 128, {field}: 32}}")
        with pytest.raises(ArchError, match=f"unknown field.*{field}"):
            parse_arch(bad)
    path = tmp_path / "old.yaml"
    path.write_text(bad)  # the config with flit_bytes
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "flit_bytes" in err


def test_an_old_config_with_thermal_layers_is_refused(tmp_path, capsys):
    # The stack's layers follow from the die count `lb.R`; a config that
    # still lists them gets the unknown-field error.
    path = tmp_path / "old.yaml"
    path.write_text(TABLE4_YAML + "thermal:\n  layers:\n"
                    "    - {name: logic, thickness_um: 100, conductivity_w_mk: 120.0, "
                    "power_layer: true}\n"
                    "    - {name: dram0, thickness_um: 50, conductivity_w_mk: 120.0}\n")
    assert main(["validate", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: unknown field(s) in thermal: ['layers']\n"
    assert captured.out == ""


def test_a_die_count_past_its_range_is_refused(tmp_path, capsys):
    # Each die adds two thermal layers, so the count is bounded.
    path = tmp_path / "tall.yaml"
    path.write_text(TABLE4_YAML.replace("R: 4,", "R: 1000000,"))
    assert main(["validate", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: lb.R must be in [1, 1024] (got 1000000)\n"
    assert captured.out == ""


def test_a_material_thickness_is_read_in_microns():
    cfg = parse_arch(TABLE4_YAML + "thermal: {bond_thickness_um: 10, dram_conductivity_w_mk: 150}\n")
    assert cfg.thermal_stack.bond_thickness_m == 10 * 1e-6
    assert cfg.thermal_stack.dram_conductivity_w_mk == 150


def test_schema_version_mismatch():
    with pytest.raises(ArchError, match="schema_version"):
        parse_arch(TABLE4_YAML.replace("schema_version: 1", "schema_version: 99"))


def test_validate_flags_bad_r():
    cfg = ArchConfig(lb=LogicalBankSpec(R=0, C=32))
    assert any("R" in v for v in validate(cfg))


def test_validate_flags_non_power_of_two_row():
    cfg = ArchConfig(pb=PhysicalBankSpec(row_size_bytes=3000))
    assert any("power of two" in v for v in validate(cfg))


def test_validate_default_config_clean():
    assert validate(parse_arch(TABLE4_YAML)) == []


def test_parse_rejects_invalid_quantities():
    bad = TABLE4_YAML.replace("channels: 16", "channels: -1")
    with pytest.raises(ArchError, match="positive"):
        parse_arch(bad)


def test_round_trip_identity():
    cfg = parse_arch(TABLE4_YAML)
    assert parse_arch(serialize(cfg)) == cfg


@given(pins=st.integers(1, 4096), rate=st.floats(0.01, 16.0))
def test_channel_bandwidth_formula(pins, rate):
    cfg = ArchConfig(channel=ChannelSpec(io_pins=pins, pin_rate_gbps=rate))
    assert derived_metrics(cfg).channel_gbps == pins * rate / 8.0


@given(r=st.integers(1, 8), c=st.integers(1, 64),
       rows=st.integers(1, 4096), log2_size=st.integers(5, 12))
def test_logical_bank_capacity_formula(r, c, rows, log2_size):
    size = 1 << log2_size
    cfg = ArchConfig(pb=PhysicalBankSpec(size, rows), lb=LogicalBankSpec(r, c))
    assert cfg.channel_capacity_bytes == r * c * rows * size


def test_round_trip_random_config():
    cfg = ArchConfig(
        pb=PhysicalBankSpec(4096, 640),
        lb=LogicalBankSpec(2, 16),
        channel=ChannelSpec(512, 1.0, 3),
        core=CoreSpec(8, 4.0, 0.25, 1 << 21, 4096, 0.8),
        noc=NocSpec(2, 2, 64, 3, 2, 4),
    )
    assert parse_arch(serialize(cfg)) == cfg


def _shipped_text(name: str) -> str:
    return resources.files("stacksim").joinpath(f"configs/{name}.yaml").read_text()


@pytest.mark.parametrize("field, old, new", [
    # With no credit on any link, a simulate would never return.
    ("noc.input_queue_flits", "  link_bytes_per_cycle: 128\n",
     "  link_bytes_per_cycle: 128\n  input_queue_flits: 0\n"),
    # A simulate would divide by zero.
    ("core.frequency_ghz", "frequency_ghz: 1.0", "frequency_ghz: .inf"),
    # `validate` would report nan GB/s.
    ("channel.pin_rate_gbps", "pin_rate_gbps: 0.5", "pin_rate_gbps: .nan"),
    # Scaling a unit form to bytes would overflow `int()`.
    ("core.sram_mb", "sram_mb: 4", "sram_mb: .inf"),
    ("core.sram_gb", "sram_mb: 4", "sram_gb: 1.0e+300"),
], ids=["queue-0", "frequency-inf", "pin-rate-nan", "sram-mb-inf", "sram-gb-huge"])
@pytest.mark.parametrize("command", [
    ["validate"], ["simulate", "--model", "llama3.2-1b", "--layers", "1"],
], ids=["validate", "simulate"])
def test_cli_refuses_a_zero_or_non_finite_field(tmp_path, capsys, field, old, new, command):
    default = _shipped_text("default")
    assert default.count(old) == 1
    path = tmp_path / "bad.yaml"
    path.write_text(default.replace(old, new))
    assert main([*command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {field} must be ")
    assert "Traceback" not in captured.err and captured.out == ""


def _numeric_paths(obj, prefix=""):
    """Path of every int/float field under the dataclass `obj`."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _numeric_paths(value, f"{prefix}{f.name}.")
        elif type(value) in (int, float):
            yield prefix + f.name


def _set(obj, path: str, value):
    """`obj` with the field at `path` (as `_numeric_paths` spells it) set."""
    head, _, rest = path.partition(".")
    if not rest:
        return dataclasses.replace(obj, **{head: value})
    return dataclasses.replace(obj, **{head: _set(getattr(obj, head), rest, value)})


@pytest.mark.parametrize("field", ["router_delay_cycles", "link_delay_cycles"])
@pytest.mark.parametrize("command", [
    ["validate"], ["simulate", "--model", "llama3.2-1b", "--layers", "1"],
], ids=["validate", "simulate"])
def test_cli_refuses_a_noc_delay_over_its_bound(tmp_path, capsys, field, command):
    # At a million cycles a one-layer step would tick the mesh for minutes.
    default = _shipped_text("default")
    old = "  link_bytes_per_cycle: 128\n"
    assert default.count(old) == 1
    path = tmp_path / "slow.yaml"
    path.write_text(default.replace(old, f"{old}  {field}: 1000000\n"))
    assert main([*command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: noc.{field} must be in [1, 500] (got 1000000)\n"
    assert captured.out == ""


# (field, value) pairs a shipped config may take; every other zero, negative
# or non-finite value of any numeric field is refused.
ALLOWED = {
    ("channel.interleave_log2", 0),
    ("inter.link_latency_s", 0),
    ("energy.dram_pj_per_bit", 0),
    ("energy.flop_pj", 0),
    ("energy.noc_pj_per_byte_hop", 0),
    ("thermal_stack.ambient_c", 0),
    ("thermal_stack.ambient_c", -1),
}


@pytest.mark.parametrize("name", ["default", "edge"])
def test_validate_names_every_out_of_range_field(name):
    cfg = parse_arch(_shipped_text(name))
    paths = list(_numeric_paths(cfg))
    assert {"noc.input_queue_flits", "thermal_stack.ambient_c",
            "thermal_stack.dram_thickness_m"} <= set(paths)
    for path in paths:
        for value in (0, -1, math.inf, math.nan):
            problems = validate(_set(cfg, path, value))
            if (path, value) in ALLOWED:
                assert problems == [], (path, value)
            else:
                assert any(p.startswith(f"{path} must be ") for p in problems), (path, value)
    # The NoC delays are bounded above too, so a step's mesh ticks stay short.
    for path in ("noc.router_delay_cycles", "noc.link_delay_cycles"):
        assert validate(_set(cfg, path, 500)) == []
        assert validate(_set(cfg, path, 501)) == [f"{path} must be in [1, 500] (got 501)"]


def _regulation(cfg: ArchConfig) -> tuple[float, float]:
    res = regulate(cfg, default_power_model(cfg))
    return res.frequency_ghz, res.peak_temperature_c


def _knob_variants(cfg: ArchConfig, prefix: str):
    """(path, factor, config) for every int/float leaf whose path starts
    with `prefix`, doubled and halved, where `validate` accepts the result."""
    for path, value, _ in _leaves(cfg, ""):
        if path.startswith(prefix):
            for factor in (2, 0.5):
                changed = _set(cfg, path, type(value)(value * factor))
                if not validate(changed):
                    yield path, factor, changed


@pytest.mark.parametrize("name", ["default", "edge"])
def test_every_thermal_leaf_moves_regulation(name):
    # The thermal slice of a knob-influence test: every thermal field a
    # config can set, and the die count `lb.R`, which sets the stack's
    # height, moves the regulated frequency or the peak temperature.
    cfg = parse_arch(_shipped_text(name))
    before = _regulation(cfg)
    moved = set()
    for prefix in ("thermal_stack.", "lb.R"):
        for path, factor, changed in _knob_variants(cfg, prefix):
            assert _regulation(changed) != before, (path, factor)
            moved.add((path, factor))
    leaves = {path for path, _, _ in _leaves(cfg, "") if path.startswith("thermal_stack.")}
    assert len(leaves) == 9
    assert moved == {(path, factor) for path in (*leaves, "lb.R") for factor in (2, 0.5)}
