"""Model descriptions, decoding operator graphs, and DRAM microbenchmarks."""

from __future__ import annotations

import dataclasses
import functools
import random
from dataclasses import dataclass
from importlib import resources
from itertools import chain, islice

import yaml

from .arch import ArchConfig, derived_metrics
from .dramsim import DramSystem, Request, stats as dram_stats
from .kerneldsl.ast import DTYPE_BYTES, KernelProgram
from .kerneldsl.checker import TypecheckError, typecheck
from .kerneldsl.parser import parse_kernel
from .kerneldsl.trace import DramRead, DramWrite, expand
from .orchestrator import CollectiveOp, InterAccelOp, dram_request
from .partition import CoreArray, build_collective
from .tiler import ComputeOp, build_op, infer_placement


class WorkloadError(ValueError):
    pass


@functools.cache
def load_kernel(name: str) -> KernelProgram:
    """Load a kernel shipped with the package by bare name, parsed once per
    process (the kernels are package files and the program is frozen)."""
    text = resources.files("stacksim").joinpath(f"kernels/{name}.kl").read_text()
    return parse_kernel(text)


@dataclass(frozen=True)
class ModelSpec:
    name: str
    layers: int
    hidden: int
    heads: int
    kv_heads: int
    head_dim: int
    ffn_type: str  # "mlp" | "glu" | "moe"
    intermediate: int
    experts: int = 0
    top_k: int = 0
    dtype: str = "fp16"

    def validate(self) -> list[str]:
        v = []
        if self.layers < 1:
            v.append("layers >= 1")
        if self.hidden != self.heads * self.head_dim:
            v.append(f"hidden ({self.hidden}) != heads*head_dim "
                     f"({self.heads}*{self.head_dim})")
        if self.kv_heads < 1 or self.heads % self.kv_heads:
            v.append(f"kv_heads ({self.kv_heads}) must divide heads ({self.heads})")
        if self.ffn_type not in ("mlp", "glu", "moe"):
            v.append(f"unknown ffn_type {self.ffn_type!r}")
        if self.ffn_type == "moe" and (self.experts < 2 or not 1 <= self.top_k <= self.experts):
            v.append("moe needs experts >= 2 and 1 <= top_k <= experts")
        if self.dtype not in DTYPE_BYTES:
            v.append(f"unknown dtype {self.dtype!r}")
        return v

    @property
    def dtype_bytes(self) -> int:
        return DTYPE_BYTES[self.dtype]

    @property
    def kv_hidden(self) -> int:
        return self.kv_heads * self.head_dim

    def fc_shapes(self) -> list[tuple[str, int, int]]:
        """(name, K, N) of every per-layer FC operator (batch dim excluded)."""
        shapes = [("qkv_fc", self.hidden, self.hidden + 2 * self.kv_hidden),
                  ("out_fc", self.hidden, self.hidden)]
        if self.ffn_type == "mlp":
            shapes += [("ffn_up", self.hidden, self.intermediate),
                       ("ffn_down", self.intermediate, self.hidden)]
        elif self.ffn_type == "glu":
            shapes += [("ffn_gate", self.hidden, self.intermediate),
                       ("ffn_up", self.hidden, self.intermediate),
                       ("ffn_down", self.intermediate, self.hidden)]
        else:
            shapes += [("expert_up", self.hidden, self.intermediate),
                       ("expert_down", self.intermediate, self.hidden)]
        return shapes

    def params_per_layer(self) -> int:
        ffn_mult = self.experts if self.ffn_type == "moe" else 1
        total = 0
        for name, k, n in self.fc_shapes():
            total += k * n * (ffn_mult if name.startswith(("ffn", "expert")) else 1)
        return total

    def kv_bytes_per_token(self) -> int:
        return 2 * self.layers * self.kv_hidden * self.dtype_bytes


def load_model(name: str) -> ModelSpec:
    text = resources.files("stacksim").joinpath(f"models/{name}.yaml").read_text()
    return model_from_yaml(text)


def model_from_yaml(text: str) -> ModelSpec:
    doc = yaml.safe_load(text)
    spec = ModelSpec(**doc)
    problems = spec.validate()
    if problems:
        raise WorkloadError(f"model {spec.name}: " + "; ".join(problems))
    return spec


@dataclass(frozen=True)
class DecodingScenario:
    batch: int = 16
    context: int = 1024
    tp: int = 1
    ep: int = 1

    def validate(self, model: ModelSpec) -> list[str]:
        v = []
        for f in ("batch", "context", "tp", "ep"):
            if getattr(self, f) < 1:
                v.append(f"{f} >= 1")
        if self.ep > 1 and model.ffn_type != "moe":
            v.append("expert parallelism requires a MoE model")
        return v


@dataclass(frozen=True)
class PagedKvLayout:
    blocks_per_core: int
    slots_per_block: int
    kv_vector_bytes: int = 256

    def validate(self, context: int) -> list[str]:
        v = []
        if min(self.blocks_per_core, self.slots_per_block, self.kv_vector_bytes) < 1:
            v.append("all layout fields must be positive")
        if self.blocks_per_core * self.slots_per_block < context:
            v.append(f"{self.blocks_per_core} blocks x {self.slots_per_block} slots "
                     f"cannot cover context {context}")
        return v

    def block_sequence(self, context: int, rng: random.Random) -> list[int]:
        """Randomly permuted block ids covering `context` slots."""
        need = -(-context // self.slots_per_block)
        ids = list(range(self.blocks_per_core))
        rng.shuffle(ids)
        return ids[:need]


def _fit_fc(name: str, kernel: str, m: int, k: int, n: int, cfg: ArchConfig) -> ComputeOp:
    """The operator of the first FC tiling that `typecheck` accepts, shrinking
    from (tM, tN, tK) = (64, 256, 256), each capped at its extent: tN
    halves down to 64, then tK down to 64, then tM down to 1."""
    tm, tn, tk = min(m, 64), min(n, 256), min(k, 256)
    refusal = None
    while tm >= 1:
        try:
            return build_op(name, load_kernel(kernel), cfg,
                            {"M": m, "K": k, "N": n, "tM": tm, "tN": tn, "tK": tk})
        except TypecheckError as e:
            refusal = e
        if tn > 64:
            tn //= 2
        elif tk > 64:
            tk //= 2
        else:
            tm //= 2
    raise WorkloadError(f"no tiling of {kernel} fits ({m},{k})x({k},{n}): {refusal}")


def build_decoding_graph(model: ModelSpec, scen: DecodingScenario,
                         cfg: ArchConfig, layers: int | None = None) -> list:
    """Per-decoding-step operator graph for one accelerator.

    Every core runs the same kernels on equal shards (SPMD): FC weights are
    sharded over the 2D core array along (K, N), so per-core FC problems are
    (batch, K/rows) x (K/rows, N/cols), followed by a 1D all-reduce of the
    partial sums. Attention splits the context evenly over all cores and is
    followed by a 2D all-reduce. The batch dimension is never partitioned.
    MoE routing uses the uniform expectation: each expert sees
    batch * top_k / experts tokens (at least one).

    Operators that run the same kernel with the same bindings are renamed
    copies of one prototype `ComputeOp`, so they share its execution
    description, and collectives of the same kind and size share one
    `CommPlan`: each is built once per call. An FC's tiling is the first
    that its kernel fits (`_fit_fc`), found once per (kernel, M, K, N).
    """
    problems = model.validate() + scen.validate(model)
    if layers is not None and layers < 1:
        problems.append("layers >= 1")
    if problems:
        raise WorkloadError("; ".join(problems))
    rows, cols = cfg.noc.rows, cfg.noc.cols
    cores = rows * cols
    arr = CoreArray((rows, cols), (rows, cols))
    dt = model.dtype_bytes
    n_layers = layers if layers is not None else model.layers
    batch = scen.batch
    ar_bytes = max(1, batch * model.hidden * dt // cores)
    protos: dict = {}  # (kernel, sorted bindings) or (kernel, M, K, N) -> ComputeOp
    plans: dict = {}  # (kind, bytes) -> CommPlan

    def compute(name: str, kernel: str, bindings: dict[str, int]) -> ComputeOp:
        key = (kernel, tuple(sorted(bindings.items())))
        if key not in protos:
            protos[key] = build_op(name, load_kernel(kernel), cfg, bindings)
        return dataclasses.replace(protos[key], name=name)

    def fc(name: str, m: int, k: int, n: int) -> ComputeOp:
        key = ("matmul_rowblock", m, k, n)
        if key not in protos:
            protos[key] = _fit_fc(name, *key, cfg)
        return dataclasses.replace(protos[key], name=name)

    def collective(name: str, kind: str) -> CollectiveOp:
        key = (kind, ar_bytes)
        if key not in plans:
            plans[key] = build_collective(arr, kind, ar_bytes)
        return CollectiveOp(name, plans[key], arr)

    ops: list = []
    for layer in range(n_layers):
        pre = f"layer{layer}."
        for fc_name, k, n in model.fc_shapes():
            shard_k = max(1, k // rows)
            shard_n = max(1, n // cols)
            if fc_name.startswith("expert"):
                routed = max(1, batch * model.top_k // model.experts)
                experts_here = max(1, model.experts // scen.ep)
                for e in range(experts_here):
                    ops.append(fc(f"{pre}{fc_name}{e}", routed, shard_k, shard_n))
                ops.append(collective(f"{pre}{fc_name}.all_reduce", "all_reduce_1d"))
                continue
            ops.append(fc(pre + fc_name, batch, shard_k, shard_n))
            ops.append(collective(f"{pre}{fc_name}.all_reduce", "all_reduce_1d"))
            if fc_name == "qkv_fc":
                ctx = max(1, scen.context // cores)
                ops.append(compute(pre + "attention", "fused_attention",
                                   {"B": batch, "D": model.head_dim, "L": ctx,
                                    "tL": min(ctx, 512)}))
                ops.append(collective(f"{pre}attention.all_reduce", "all_reduce_2d"))
        if scen.tp > 1:
            nbytes = int(2 * (scen.tp - 1) / scen.tp * batch * model.hidden * dt)
            ops.append(InterAccelOp(pre + "tp_all_reduce", nbytes))
        if scen.ep > 1:
            nbytes = int((scen.ep - 1) / scen.ep * batch * model.hidden * dt)
            ops.append(InterAccelOp(pre + "ep_all_to_all", nbytes))
    return ops


def graph_totals(ops: list) -> dict:
    """Aggregate FLOPs and DRAM bytes of a graph (compute operators only)."""
    totals = [op.desc.totals for op in ops if isinstance(op, ComputeOp)]
    return {"matrix_flops": sum(t[0] for t in totals),
            "dram_bytes": sum(t[2] for t in totals)}


# --- DRAM microbenchmarks -------------------------------------------------
#
# A trace is a list of `Request`s, each a strided run: the GEMM trace is one
# request per DRAM event of the tile trace, holding the event's shifted
# offset `range`, and a paged-KV trace is one request holding every slot
# address. So a trace holds no object per byte run; `DramSystem.drain`
# walks the addresses as it queues them.

def gen_gemm_benchmark(cfg: ArchConfig, M: int = 64, K: int = 8192, N: int = 8192,
                       tiling: dict[str, int] | None = None) -> list[Request]:
    """Tile-ordered GEMM access trace: A/C row-major, B column-major."""
    prog = load_kernel("matmul")
    bindings = {"M": M, "K": K, "N": N}
    bindings.update(tiling or {"tM": min(M, 64), "tN": 256, "tK": 256})
    checked = typecheck(prog, cfg, bindings)
    bases = infer_placement(checked, cfg)
    return [dram_request(e, bases[e.tensor], 0) for e in expand(checked).events
            if isinstance(e, (DramRead, DramWrite))]


def gen_paged_attention_benchmark(cfg: ArchConfig, layout: PagedKvLayout,
                                  context: int, seed: int = 0,
                                  runs: int = 10) -> list[list[Request]]:
    """Paged-KV gather traces: `runs` independent random block sequences,
    each one request of `context` slot reads."""
    # 8 bytes per address, not a list's 36; imported here, so the verbs that
    # build no paged trace do not load the module.
    from array import array
    problems = layout.validate(context)
    if context < 1:
        problems.append(f"context must be >= 1, got {context}")
    if runs < 1:
        problems.append(f"runs must be >= 1, got {runs}")
    if problems:
        raise WorkloadError("; ".join(problems))
    rng = random.Random(seed)
    vector = layout.kv_vector_bytes
    block_bytes = layout.slots_per_block * vector
    traces = []
    for _ in range(runs):
        # Blocks in shuffled order, each block's slots in order, cut at
        # `context`.
        addrs = chain.from_iterable(
            range(block * block_bytes, (block + 1) * block_bytes, vector)
            for block in layout.block_sequence(context, rng))
        traces.append([Request(0, "R", array("q", islice(addrs, context)), vector)])
    return traces


def dram_datasheet(cfg: ArchConfig, stream_bytes: int = 16 * 2**20,
                   gemm: tuple = (64, 8192, 8192),
                   paged: tuple = (PagedKvLayout(64, 16, 256), 1024, 10)) -> list[dict]:
    """The DRAM rates `cfg` delivers, one row per microbenchmark: a
    `stream_bytes` streaming read in `interleave_bytes` byte runs, the same
    stream as writes, the GEMM tile trace at (M, K, N) = `gemm`, and the
    paged-KV traces of (layout, context, runs) = `paged` at seed 0.

    A row is the mean over the benchmark's traces, each on a fresh
    `DramSystem`, of `dramsim.stats`, plus its `benchmark` name, the
    `advertised_gbps` of `derived_metrics` and the `ratio` of
    `achieved_gbps` to it. A benchmark that `cfg` refuses, such as a GEMM
    whose tensors overflow the core, is a row of its `benchmark` name and
    the `refusal` message instead, and the other rows are still measured.
    """
    advertised = derived_metrics(cfg).core_gbps
    ib = cfg.channel.interleave_bytes
    layout, context, runs = paged

    def row(name: str, build) -> dict:
        try:
            stats = []
            for reqs in build():
                system = DramSystem(cfg)
                system.run(reqs)
                stats.append(dram_stats(system))
        except ValueError as e:  # every stacksim refusal is a ValueError
            return {"benchmark": name, "refusal": str(e)}
        mean = {key: sum(s[key] for s in stats) / len(stats) for key in stats[0]}
        return {**mean, "benchmark": name, "advertised_gbps": advertised,
                "ratio": mean["achieved_gbps"] / advertised}

    return [*(row(f"stream {name}", lambda kind=kind: [
                  [Request(0, kind, range(0, stream_bytes, ib), ib)]])
              for name, kind in (("read", "R"), ("write", "W"))),
            row("gemm tile", lambda: [gen_gemm_benchmark(cfg, *gemm)]),
            row("paged kv", lambda: gen_paged_attention_benchmark(cfg, layout, context,
                                                                 runs=runs))]
