"""`typecheck` is the one rule for what fits a core.

It is checked here against the rules it replaced, kept as references:

- the trace-derived SRAM need: every alloc, plus one more copy of each
  buffer that a `DramAccess` load among `expand`'s events fills (the load in flight
  while the pipeline computes on the first copy);
- the padded placement: the tensors, each rounded up to whole logical rows,
  packed one after another, end within the core's DRAM.

The decoding graph's FC tiling is the first that `typecheck` accepts; the
hand-derived footprint formula it replaced is kept as a reference too.
"""

import dataclasses
from importlib import resources

import pytest

from stacksim import workloads
from stacksim.arch import ArchConfig, load_arch
from stacksim.kerneldsl import DramAccess, TypecheckError, expand, typecheck
from stacksim.tiler import ComputeOp
from stacksim.workloads import (
    DecodingScenario, WorkloadError, build_decoding_graph, load_kernel, load_model,
)

from expand_reference import shipped_bindings


def _shipped_config(name: str) -> ArchConfig:
    return load_arch(str(resources.files("stacksim").joinpath(f"configs/{name}.yaml")))


def _configs() -> dict:
    default = _shipped_config("default")
    return {
        "default": default,
        "edge": _shipped_config("edge"),
        "sram64k": dataclasses.replace(
            default, core=dataclasses.replace(default.core, sram_bytes=64 * 1024)),
        # One 64 KB logical row per bank row and 16 channels: 1 MB of DRAM.
        "dram1m": dataclasses.replace(
            default, pb=dataclasses.replace(default.pb, row_count=1),
            lb=dataclasses.replace(default.lb, R=1)),
    }


def _roomy(cfg: ArchConfig) -> ArchConfig:
    """`cfg` with SRAM and DRAM too large to refuse anything; the logical
    row, which the padding depends on, is unchanged."""
    return dataclasses.replace(
        cfg, core=dataclasses.replace(cfg.core, sram_bytes=1 << 62),
        lb=dataclasses.replace(cfg.lb, R=1 << 40))


def reference_sram_need(checked) -> int:
    symbols = checked.symbols
    loaded = {e.buffer for e in expand(checked).events
              if type(e) is DramAccess and e.kind == "R"}
    return sum(s.size_bytes for s in symbols.values() if s.kind == "alloc") \
        + sum(symbols[b].size_bytes for b in loaded)


def reference_placement_end(checked, cfg: ArchConfig) -> int:
    row = cfg.logical_row_bytes
    end = 0
    for info in checked.symbols.values():
        if info.kind == "tensor":
            end += -(-info.size_bytes // row) * row
    return end


def _cases():
    for name in ("matmul", "matmul_rowblock", "fused_attention"):
        for bind in shipped_bindings(name):
            yield name, bind
            # The same tiling 64 times larger overflows the small configs.
            yield name, {k: 64 * v for k, v in bind.items()}


@pytest.mark.parametrize("config", ["default", "edge", "sram64k", "dram1m"])
def test_typecheck_accepts_exactly_what_both_references_fit(config):
    cfg = _configs()[config]
    accepted = refused = 0
    for name, bind in _cases():
        prog = load_kernel(name)
        checked = typecheck(prog, _roomy(cfg), bind)
        fits = (reference_sram_need(checked) <= cfg.core.sram_bytes
                and reference_placement_end(checked, cfg)
                <= cfg.channel_capacity_bytes * cfg.core.channels)
        try:
            typecheck(prog, cfg, bind)
        except TypecheckError as e:
            assert not fits, (name, bind, str(e))
            refused += 1
        else:
            assert fits, (name, bind)
            accepted += 1
    assert accepted
    if config in ("sram64k", "dram1m"):
        assert refused


def reference_fc_tiling(m: int, k: int, n: int, cfg: ArchConfig) -> dict[str, int]:
    """The footprint formula FC tiling used before: the row block, one B
    tile, the accumulator, and a second copy of the row block and B tile."""
    dt = 2
    tm, tn, tk = min(m, 64), min(n, 256), min(k, 256)
    while tm >= 1:
        need = 2 * (tm * k * dt) + 2 * (tk * tn * dt) + tm * tn * dt
        if need <= cfg.core.sram_bytes:
            return {"tM": tm, "tN": tn, "tK": tk}
        if tn > 64:
            tn //= 2
        elif tk > 64:
            tk //= 2
        else:
            tm //= 2
    raise AssertionError(f"no reference tiling for ({m},{k})x({k},{n})")


def _shipped_models() -> list[str]:
    return sorted(p.name[:-len(".yaml")]
                  for p in resources.files("stacksim").joinpath("models").iterdir()
                  if p.name.endswith(".yaml"))


@pytest.mark.parametrize("config", ["default", "edge"])
def test_fc_first_fit_matches_the_footprint_formula(config, monkeypatch):
    # Whether a tiling fits is `typecheck`'s answer alone, so the graph's
    # operators are typechecked only: pipelining the large FC shards would
    # take most of the test's time and decide nothing.
    monkeypatch.setattr(workloads, "build_op", lambda name, prog, cfg, bind: ComputeOp(
        name, typecheck(prog, cfg, bind), None, {}))
    cfg = _configs()[config]
    shapes = set()
    for model in _shipped_models():
        for batch in (1, 16, 64, 256):
            ops = build_decoding_graph(load_model(model), DecodingScenario(batch=batch),
                                       cfg, layers=1)
            for op in ops:
                checked = getattr(op, "checked", None)
                if checked is None or checked.program.name != "matmul_rowblock":
                    continue
                b = checked.bindings
                tiling = {t: b[t] for t in ("tM", "tN", "tK")}
                assert tiling == reference_fc_tiling(b["M"], b["K"], b["N"], cfg), op.name
                shapes.add((b["M"], b["K"], b["N"]))
    assert len(shapes) > 20


def test_fc_with_no_fitting_tiling_names_the_shape():
    tiny = dataclasses.replace(
        ArchConfig(), core=dataclasses.replace(ArchConfig().core, sram_bytes=64))
    with pytest.raises(WorkloadError, match=r"no tiling of matmul_rowblock fits "
                       r"\(16,512\)x\(512,768\): SRAM over capacity: allocs and load "
                       r"double buffers need 18560 bytes, core has 64"):
        build_decoding_graph(load_model("llama3.2-1b"), DecodingScenario(), tiny, layers=1)
