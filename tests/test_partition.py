import pytest
from hypothesis import given, strategies as st

from stacksim.partition import (
    CommPlan, CoreArray, PartitionError, build_collective, logical_to_physical,
    split_gemm,
)

MESH44 = (4, 4)


def step_count(plan: CommPlan) -> int:
    return max((s.step for s in plan.steps), default=-1) + 1


def total_bytes(plan: CommPlan) -> int:
    return sum(s.bytes for s in plan.steps)


def test_logical_to_physical_examples():
    arr = CoreArray((2, 4), (2, 4))
    assert logical_to_physical(arr, (0, 0)) == (0, 0)
    assert logical_to_physical(arr, (1, 2)) == (1, 2)
    flat = CoreArray((16,), MESH44)
    assert logical_to_physical(flat, (13,)) == (3, 1)


def test_logical_to_physical_bijective():
    for shape in [(16,), (2, 8), (4, 4), (2, 2, 4), (2, 2, 2, 2)]:
        arr = CoreArray(shape, MESH44)
        images = {logical_to_physical(arr, c) for c in arr.coords()}
        assert images == {(m, n) for m in range(4) for n in range(4)}


def test_core_array_must_cover_mesh():
    with pytest.raises(PartitionError):
        CoreArray((3, 4), MESH44)
    with pytest.raises(PartitionError):
        CoreArray((4, 4), (2, 4))


def test_coordinate_validation():
    arr = CoreArray((4, 4), MESH44)
    with pytest.raises(PartitionError):
        arr.linearize((4, 0))
    with pytest.raises(PartitionError):
        arr.linearize((0,))


def test_split_gemm_k_and_n_partition():
    # (2, 4) array: K split over axis 0, N over axis 1 -> 8 B-shards,
    # 2-core reduction groups, A replicated across each row of 4.
    arr = CoreArray((2, 4), (2, 4))
    part = split_gemm(arr, M=64, K=512, N=1024, core_dim_mapping={"K": [0], "N": [1]})
    b_shards = {s.b_shard for s in part.shards.values()}
    assert len(b_shards) == 8
    for coord, shard in part.shards.items():
        assert shard.a_shard == ((0, 64), (256 * coord[0], 256 * (coord[0] + 1)))
        assert shard.b_shard == ((256 * coord[0], 256 * (coord[0] + 1)),
                                 (256 * coord[1], 256 * (coord[1] + 1)))
        assert len(shard.reduction_group) == 2
        assert len(shard.replication_group) == 4
        assert all(o[1] == coord[1] for o in shard.reduction_group)
        assert all(o[0] == coord[0] for o in shard.replication_group)


def test_split_gemm_m_partition_replicates_b():
    arr = CoreArray((4,), (2, 2))
    part = split_gemm(arr, M=64, K=32, N=32, core_dim_mapping={"M": [0]})
    for coord, shard in part.shards.items():
        assert shard.a_shard == ((16 * coord[0], 16 * (coord[0] + 1)), (0, 32))
        assert shard.b_shard == ((0, 32), (0, 32))
        assert shard.reduction_group == (coord,)  # no K split: nothing to reduce


def test_split_gemm_output_tiles_cover_exactly():
    arr = CoreArray((2, 4), (2, 4))
    part = split_gemm(arr, M=60, K=100, N=70, core_dim_mapping={"M": [0], "N": [1]})
    cover = [[0] * 70 for _ in range(60)]
    for shard in part.shards.values():
        (mlo, mhi), (nlo, nhi) = shard.out_shard
        for i in range(mlo, mhi):
            for j in range(nlo, nhi):
                cover[i][j] += 1
    assert all(v == 1 for row in cover for v in row)


def test_split_gemm_rejects_reused_axis():
    arr = CoreArray((2, 4), (2, 4))
    with pytest.raises(PartitionError):
        split_gemm(arr, 8, 8, 8, {"K": [0], "N": [0]})
    with pytest.raises(PartitionError):
        split_gemm(arr, 8, 8, 8, {"K": [5]})


MB = 1024 * 1024


def test_reduce_scatter_volume():
    arr = CoreArray((4,), (2, 2))
    plan = build_collective(arr, "ring_reduce_scatter", 4 * MB)
    # (p-1)/p of the payload leaves each core: 3 MB.
    for c in arr.coords():
        assert plan.bytes_sent(c) == 3 * MB
    assert step_count(plan) == 3
    assert total_bytes(plan) == 12 * MB


def test_all_gather_volume_and_all_reduce_sum():
    arr = CoreArray((4,), (2, 2))
    ag = build_collective(arr, "ring_all_gather", 4 * MB)
    ar = build_collective(arr, "all_reduce_1d", 4 * MB)
    for c in arr.coords():
        assert ag.bytes_sent(c) == 3 * MB
        assert ar.bytes_sent(c) == 6 * MB  # reduce-scatter + all-gather
    assert step_count(ar) == 6


def test_ring_sends_only_to_successor():
    arr = CoreArray((8,), (2, 4))
    plan = build_collective(arr, "ring_reduce_scatter", 8 * MB)
    for s in plan.steps:
        assert s.dst == ((s.src[0] + 1) % 8,)


def test_every_recv_has_matching_send():
    arr = CoreArray((4, 4), MESH44)
    plan = build_collective(arr, "all_reduce_2d", 2 * MB)
    # Per step, each destination core receives exactly one message.
    for step in range(step_count(plan)):
        msgs = [s for s in plan.steps if s.step == step]
        dsts = [s.dst for s in msgs]
        assert len(dsts) == len(set(dsts))


def test_2d_all_reduce_phases_and_volume():
    arr = CoreArray((4, 4), MESH44)
    plan = build_collective(arr, "all_reduce_2d", 4 * MB)
    # Row phase then column phase, 2(p-1) steps each for p=4.
    assert step_count(plan) == 12
    for c in arr.coords():
        assert plan.bytes_sent(c) == 12 * MB  # 6 MB per phase
    row_phase = [s for s in plan.steps if s.step < 6]
    assert all(s.src[0] == s.dst[0] for s in row_phase)
    assert all(s.src[1] == s.dst[1] for s in plan.steps if s.step >= 6)


def test_single_core_collective_is_empty():
    arr = CoreArray((1,), (1, 1))
    plan = build_collective(arr, "all_reduce_1d", 4 * MB)
    assert plan.steps == () and step_count(plan) == 0


def test_unsupported_collective():
    arr = CoreArray((4,), (2, 2))
    with pytest.raises(PartitionError):
        build_collective(arr, "all_to_all", MB)


@given(p=st.sampled_from([2, 4, 8, 16]), size=st.integers(1, 1 << 22))
def test_collective_volume_formula(p, size):
    mesh = {2: (1, 2), 4: (2, 2), 8: (2, 4), 16: (4, 4)}[p]
    arr = CoreArray((p,), mesh)
    nbytes = size - size % p + p  # keep chunks equal
    plan = build_collective(arr, "ring_reduce_scatter", nbytes)
    assert total_bytes(plan) == (p - 1) * nbytes
