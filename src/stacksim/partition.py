"""Multi-core operator partitioning and point-to-point communication plans.

Cores are addressed through an N-dimensional logical array laid over the
physical 2D mesh. GEMM dimensions and attention token slots are sharded over
logical axes; collectives are expressed as explicit per-step send/recv plans
that the NoC simulator replays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod


class PartitionError(ValueError):
    pass


@dataclass(frozen=True)
class CoreArray:
    shape: tuple[int, ...]
    physical: tuple[int, int]  # (X rows, Y cols) of the mesh

    def __post_init__(self):
        if prod(self.shape) != self.physical[0] * self.physical[1]:
            raise PartitionError(
                f"core array {self.shape} does not cover the "
                f"{self.physical[0]}x{self.physical[1]} mesh")

    def coords(self):
        # Row-major: the last axis varies fastest, in linearized order.
        return itertools.product(*map(range, self.shape))

    def linearize(self, coord: tuple[int, ...]) -> int:
        # Row-major mixed-radix linearization: the last axis varies fastest.
        if len(coord) != len(self.shape):
            raise PartitionError(f"coordinate {coord} has wrong rank for {self.shape}")
        c = 0
        for x, extent in zip(coord, self.shape):
            if not 0 <= x < extent:
                raise PartitionError(f"coordinate {coord} out of range for {self.shape}")
            c = c * extent + x
        return c


def logical_to_physical(arr: CoreArray, coord: tuple[int, ...]) -> tuple[int, int]:
    """Logical coordinate -> mesh (m, n), bijective over the whole array."""
    c = arr.linearize(coord)
    y = arr.physical[1]
    return c // y, c % y


def _shard_ranges(extent: int, parts: int) -> list[tuple[int, int]]:
    """Contiguous split into `parts` ranges; the last part takes the remainder."""
    base = extent // parts
    ranges = []
    start = 0
    for i in range(parts):
        size = base if i < parts - 1 else extent - base * (parts - 1)
        ranges.append((start, start + size))
        start += size
    return ranges


@dataclass(frozen=True)
class CoreShard:
    a_shard: tuple[tuple[int, int], tuple[int, int]]  # ((row lo, hi), (col lo, hi))
    b_shard: tuple[tuple[int, int], tuple[int, int]]
    out_shard: tuple[tuple[int, int], tuple[int, int]]
    replication_group: tuple[tuple[int, ...], ...]
    reduction_group: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class GemmPartition:
    M: int
    K: int
    N: int
    core_dim_mapping: dict  # {"M": axes, "K": axes, "N": axes}
    shards: dict  # logical coord -> CoreShard


def split_gemm(arr: CoreArray, M: int, K: int, N: int,
               core_dim_mapping: dict[str, list[int]]) -> GemmPartition:
    """Shard a (M,K)x(K,N) GEMM over the logical core array.

    Each problem dimension may list the logical axes that partition it;
    shards are assigned contiguously with the last listed axis varying
    fastest. M-partitioning shards the (M,K) matrix with (K,N) replicated;
    K/N-partitioning shards (K,N) with (M,K) replicated along the same K
    split. Output partial-sum placement follows from the input placement:
    cores differing only along K axes form one reduction group.
    """
    mapping = {dim: list(core_dim_mapping.get(dim, [])) for dim in ("M", "K", "N")}
    used = [ax for axes in mapping.values() for ax in axes]
    if len(used) != len(set(used)):
        raise PartitionError(f"core-array axis reused across dimensions: {core_dim_mapping}")
    for ax in used:
        if not 0 <= ax < len(arr.shape):
            raise PartitionError(f"axis {ax} out of range for array {arr.shape}")

    extents = {"M": M, "K": K, "N": N}
    splits = {}
    for dim, axes in mapping.items():
        parts = prod(arr.shape[ax] for ax in axes) if axes else 1
        splits[dim] = _shard_ranges(extents[dim], parts)

    def shard_index(coord, axes):
        idx = 0
        for ax in axes:
            idx = idx * arr.shape[ax] + coord[ax]
        return idx

    coords = list(arr.coords())
    shards = {}
    for coord in coords:
        m_rng = splits["M"][shard_index(coord, mapping["M"])]
        k_rng = splits["K"][shard_index(coord, mapping["K"])]
        n_rng = splits["N"][shard_index(coord, mapping["N"])]
        a_shard = (m_rng, k_rng)
        b_shard = (k_rng, n_rng)
        out_shard = (m_rng, n_rng)
        k_axes = set(mapping["K"])
        n_axes = set(mapping["N"])

        def same_except(other, free_axes):
            return all(o == s for ax, (o, s) in enumerate(zip(other, coord))
                       if ax not in free_axes)

        # A is replicated across cores that only differ along N axes.
        replication = tuple(o for o in coords if same_except(o, n_axes))
        # Partial sums of one output shard live on cores that only differ
        # along K axes.
        reduction = tuple(o for o in coords if same_except(o, k_axes))
        shards[coord] = CoreShard(a_shard, b_shard, out_shard, replication, reduction)
    return GemmPartition(M, K, N, mapping, shards)


@dataclass(frozen=True)
class CommStep:
    step: int
    src: tuple[int, ...]
    dst: tuple[int, ...]
    bytes: int


@dataclass(frozen=True)
class CommPlan:
    steps: tuple[CommStep, ...]

    def bytes_sent(self, coord) -> int:
        return sum(s.bytes for s in self.steps if s.src == coord)


def _ring_pass(ring: list[tuple[int, ...]], nbytes: int, step0: int,
               shift: int) -> list[CommStep]:
    """p - 1 ring steps: at step s core i sends chunk (i + shift - s) mod p
    to its successor. Shift 0 is a reduce-scatter, shift 1 an all-gather."""
    p = len(ring)
    chunks = [hi - lo for lo, hi in _shard_ranges(nbytes, p)]
    return [CommStep(step0 + s, src, ring[(i + 1) % p], chunks[(i + shift - s) % p])
            for s in range(p - 1) for i, src in enumerate(ring)]


def _ring_all_reduce(rings: list[list[tuple[int, ...]]], nbytes: int,
                     step0: int = 0) -> list[CommStep]:
    """Reduce-scatter then all-gather around each ring, all rings starting
    at `step0`; a one-core ring sends nothing."""
    steps: list[CommStep] = []
    for ring in rings:
        if len(ring) > 1:
            steps += _ring_pass(ring, nbytes, step0, 0)
            steps += _ring_pass(ring, nbytes, step0 + len(ring) - 1, 1)
    return steps


def build_collective(arr: CoreArray, kind: str, bytes_per_core: int) -> CommPlan:
    """Build a communication plan for a collective over the whole array.

    Ring variants order cores by their linearized logical index. The 2D
    all-reduce runs the 1D all-reduce schedule along rows of the first axis,
    then along columns, each phase on the full payload.
    """
    coords = list(arr.coords())  # in linearized order
    p = len(coords)
    if kind in ("ring_reduce_scatter", "ring_all_gather", "all_reduce_1d"):
        if p <= 1:
            return CommPlan(())
        if kind == "all_reduce_1d":
            return CommPlan(tuple(_ring_all_reduce([coords], bytes_per_core)))
        shift = 0 if kind == "ring_reduce_scatter" else 1
        return CommPlan(tuple(_ring_pass(coords, bytes_per_core, 0, shift)))
    if kind == "all_reduce_2d":
        if len(arr.shape) < 2:
            raise PartitionError("all_reduce_2d needs a >= 2D core array")
        # Phase 1 runs along axis 1 within each row of axis 0, phase 2
        # along axis 0 within each column.
        rows: dict[tuple, list] = {}
        cols: dict[tuple, list] = {}
        for coord in coords:
            rows.setdefault(coord[:1] + coord[2:], []).append(coord)
            cols.setdefault(coord[1:], []).append(coord)
        steps = _ring_all_reduce(list(rows.values()), bytes_per_core)
        step0 = max((s.step for s in steps), default=-1) + 1
        steps += _ring_all_reduce(list(cols.values()), bytes_per_core, step0)
        return CommPlan(tuple(steps))
    raise PartitionError(f"unsupported collective kind: {kind}")
