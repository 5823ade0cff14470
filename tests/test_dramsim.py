import dataclasses
import random
from collections import Counter

import pytest

from stacksim.arch import (
    ArchConfig, ChannelSpec, CoreSpec, DramTiming, LogicalBankSpec,
    PhysicalBankSpec, peak_dram_bytes_per_cycle,
)
from stacksim.dramsim import (
    AddressError, DramSystem, Request, schedule_tile, split_range, stats,
)
from dram_reference import (
    _byte_location, per_address, reference_run, reference_schedule, reference_trace,
)

T = DramTiming()  # tRCD=18 tRP=18 tRAS=42 tCCD=4 tBURST=4 tRTW=8 tWTR=8


def small_cfg(channels=2, timing=T):
    # 64B x 4-row physical banks, 2 banks per logical row (128B rows),
    # 32B bursts, 64B interleave runs; 512B per channel.
    return ArchConfig(
        pb=PhysicalBankSpec(row_size_bytes=64, row_count=4),
        lb=LogicalBankSpec(R=1, C=2),
        channel=ChannelSpec(io_pins=256, pin_rate_gbps=1.0, interleave_log2=1),
        dram_timing=timing,
        core=CoreSpec(channels=channels),
    )


def strided_cfg(channels, C=8, interleave_log2=2):
    # 128B x 512-row physical banks and 32B bursts; by default 1 KiB logical
    # rows of eight 128B interleave runs and 512 KiB per channel.
    return ArchConfig(
        pb=PhysicalBankSpec(row_size_bytes=128, row_count=512),
        lb=LogicalBankSpec(R=1, C=C),
        channel=ChannelSpec(io_pins=256, pin_rate_gbps=1.0,
                            interleave_log2=interleave_log2),
        dram_timing=T,
        core=CoreSpec(channels=channels),
    )


def test_split_range_examples():
    cfg = small_cfg()
    assert split_range(0, 1, cfg) == [(0, 0, 1, 1)]
    assert split_range(64, 1, cfg) == [(1, 0, 1, 1)]     # next interleave run
    assert split_range(128, 1, cfg) == [(0, 0, 1, 1)]    # back to ch0, same row
    assert split_range(256, 1, cfg) == [(0, 1, 1, 1)]    # ch0 row rolls over


def test_split_range_locates_every_byte_exhaustive():
    cfg = small_cfg()
    capacity = cfg.channel_capacity_bytes * cfg.core.channels
    rows = cfg.lb.R * cfg.pb.row_count  # logical rows per channel
    per_row = Counter()
    for addr in range(capacity):
        chunks = split_range(addr, 1, cfg)
        assert chunks == [(*_byte_location(addr, cfg), 1, 1)]
        channel, row, _, _ = chunks[0]
        assert 0 <= row < rows
        per_row[channel, row] += 1
    assert len(per_row) == cfg.core.channels * rows
    assert set(per_row.values()) == {cfg.logical_row_bytes}


def test_map_address_out_of_range():
    # The first byte past the core and the byte before address 0 are each
    # rejected as one-byte requests.
    cfg = small_cfg()
    capacity = cfg.channel_capacity_bytes * cfg.core.channels
    with pytest.raises(AddressError):
        DramSystem(cfg).run([Request(0, "R", (capacity,), 1)])
    with pytest.raises(AddressError):
        DramSystem(cfg).run([Request(0, "R", (-1,), 1)])
    assert DramSystem(cfg).run([Request(0, "R", (capacity - 1,), 1)]) > 0


def test_split_range_counts_bursts_and_merges_rows():
    cfg = small_cfg()
    # 128 contiguous bytes: two interleave runs, 2 bursts per channel,
    # both in row 0 of each channel.
    assert split_range(0, 128, cfg) == [(0, 0, 2, 64), (1, 0, 2, 64)]
    # A misaligned 1-byte range still needs one full burst.
    assert split_range(33, 1, cfg) == [(0, 0, 1, 1)]
    # 512 bytes: each channel's two runs per row merge into one chunk,
    # and each channel moves on to row 1 halfway through.
    assert split_range(0, 512, cfg) == [
        (0, 0, 4, 128), (1, 0, 4, 128), (0, 1, 4, 128), (1, 1, 4, 128)]
    # Chunks of separate requests never merge: two 32-byte reads of one
    # row are an activation and a row hit, one 64-byte read is only the
    # activation.
    split = DramSystem(cfg)
    split.run([Request(0, "R", (0,), 32), Request(0, "R", (32,), 32)])
    whole = DramSystem(cfg)
    whole.run([Request(0, "R", (0,), 64)])
    assert (split.channels[0].stats.row_hits, whole.channels[0].stats.row_hits) == (1, 0)
    assert split_range(0, 0, cfg) == split_range(5, -3, cfg) == []


def test_requests_outside_the_core_are_rejected():
    cfg = small_cfg()
    capacity = cfg.channel_capacity_bytes * cfg.core.channels
    for addr, nbytes in [(capacity + 64, 32), (-32, 32), (capacity - 16, 32)]:
        with pytest.raises(AddressError):
            DramSystem(cfg).run([Request(0, "R", (addr,), nbytes)])
    assert DramSystem(cfg).run([Request(0, "R", (capacity - 32,), 32)]) > 0


def test_cold_single_burst_latency():
    sys = DramSystem(small_cfg())
    assert sys.run([Request(0, "R", (0,), 32)]) == T.tRCD + T.tBURST


def test_row_hit_spacing():
    sys = DramSystem(small_cfg())
    done = sys.run([Request(0, "R", (0,), 32), Request(0, "R", (128,), 32)])
    # Second burst starts one bus slot after the first: 18+4 -> done 26.
    assert done == T.tRCD + max(T.tCCD, T.tBURST) + T.tBURST
    s = stats(sys)
    assert s["latency_mean"] == (T.tRCD + T.tBURST + done) / 2
    assert s["latency_max"] == done


def test_row_miss_penalty_without_ras_pressure():
    timing = dataclasses.replace(T, tRAS=T.tRCD)
    sys = DramSystem(small_cfg(timing=timing))
    done = sys.run([Request(0, "R", (0,), 32), Request(0, "R", (256,), 32)])
    # Second chunk: PRE at the first burst's start, then tRP + tRCD + tBURST.
    assert done == T.tRCD + T.tRP + T.tRCD + T.tBURST


def test_row_cycle_floor_binds_with_default_timing():
    sys = DramSystem(small_cfg())
    done = sys.run([Request(0, "R", (0,), 32), Request(0, "R", (256,), 32)])
    # PRE must wait until ACT + tRAS = 42.
    assert done == T.tRAS + T.tRP + T.tRCD + T.tBURST


def test_read_write_turnaround():
    sys = DramSystem(small_cfg())
    done = sys.run([Request(0, "R", (0,), 32), Request(0, "W", (128,), 32)])
    # Write burst waits for read data end (22) + tRTW.
    assert done == (T.tRCD + T.tBURST) + T.tRTW + T.tBURST
    sys2 = DramSystem(small_cfg())
    done2 = sys2.run([Request(0, "W", (0,), 32), Request(0, "R", (128,), 32)])
    assert done2 == (T.tRCD + T.tBURST) + T.tWTR + T.tBURST


def test_saturated_row_hits_full_utilization():
    cfg = small_cfg()
    sys = DramSystem(cfg)
    sys.run([Request(0, "R", (0,), 128)])
    s = stats(sys)
    # Discounting the activation warmup, the bus never idles.
    window = s["elapsed_cycles"] - T.tRCD
    assert s["total_bytes"] / window / peak_dram_bytes_per_cycle(cfg) == 1.0


def test_random_row_utilization_closed_form():
    # Dependent single-burst accesses, each to a fresh row, with the row-cycle
    # floor non-binding (tRAS == tRCD): steady-state utilization is exactly
    # tBURST / (tRP + tRCD + tBURST).
    timing = dataclasses.replace(T, tRAS=T.tRCD)
    cfg = small_cfg(channels=1, timing=timing)
    sys = DramSystem(cfg)
    rows = cfg.lb.R * cfg.pb.row_count
    rng = random.Random(7)
    prev_row, ready = None, 0
    first_done = None
    for _ in range(64):
        row = rng.choice([r for r in range(rows) if r != prev_row])
        ready = sys.run([Request(ready, "R", (row * cfg.logical_row_bytes,), 32)])
        if first_done is None:
            first_done = ready
        prev_row = row
    s = stats(sys)
    expected = T.tBURST / (T.tRP + T.tRCD + T.tBURST)
    # The window starts when the first access completes, so its 32 bytes
    # land before the window.
    window = s["elapsed_cycles"] - first_done
    measured = (s["total_bytes"] - 32) / window / (32 / T.tBURST)
    assert measured == pytest.approx(expected)


def test_stats_row_hit_rate_and_acts():
    sys = DramSystem(small_cfg(channels=1))
    sys.run([Request(0, "R", (0,), 32), Request(0, "R", (32,), 32),
             Request(0, "R", (256,), 32)])
    s = stats(sys)
    assert s["act_count"] == 2
    # Cold activation is neither a hit nor a conflict miss: 1 hit, 1 miss.
    assert s["row_hit_rate"] == pytest.approx(0.5)
    assert s["total_bytes"] == 96
    assert s["latency_max"] >= s["latency_mean"] > 0


def test_schedule_tile_groups_rows_stably():
    cfg = small_cfg(channels=1)
    reqs = [Request(0, "R", (0,), 32), Request(0, "R", (256,), 32),
            Request(0, "R", (32,), 32), Request(0, "R", (288,), 32)]
    out = schedule_tile(reqs, cfg)
    assert [addr for r in out for addr in r.addrs] == [0, 32, 256, 288]
    assert DramSystem(cfg).run(out) < DramSystem(cfg).run(reqs)


def test_schedule_tile_keeps_grouped_tiles_without_simulating():
    cfg = small_cfg(channels=1)
    # Rows 0, 0, 2, 2: the same-row groups are already contiguous, so the
    # input list itself comes back, holding the same requests.
    grouped = [Request(0, "R", (0,), 32), Request(0, "W", (32,), 32),
               Request(0, "R", (256,), 32), Request(0, "R", (300,), 8)]
    out = schedule_tile(grouped, cfg)
    assert out == grouped and out is grouped
    assert all(a is b for a, b in zip(out, grouped))
    # One same-row group: the input list itself comes back.
    one_row = grouped[:2]
    assert schedule_tile(one_row, cfg) is one_row


@pytest.mark.parametrize("channels", [2, 4])
def test_schedule_tile_matches_reference_grouping(channels):
    cfg = small_cfg(channels=channels)
    capacity = cfg.channel_capacity_bytes * cfg.core.channels
    rng = random.Random(11)
    reordered = 0
    for _ in range(60):
        reqs = []
        for _ in range(rng.randint(1, 12)):
            addr = rng.randrange(0, capacity - 64)
            reqs.append(Request(0, rng.choice("RW"), (addr,),
                                rng.randint(1, min(64, capacity - addr))))
        expected = reference_schedule(reqs, cfg)
        out = schedule_tile(reqs, cfg)
        assert per_address(out) == per_address(expected)
        assert (out is reqs) == (per_address(expected) == per_address(reqs))
        assert DramSystem(cfg).run(out) == reference_run(expected, cfg)
        reordered += per_address(expected) != per_address(reqs)
    assert reordered > 0


def test_utilization_never_exceeds_peak():
    cfg = small_cfg()
    capacity = cfg.channel_capacity_bytes * cfg.core.channels
    rng = random.Random(3)
    for _ in range(20):
        sys = DramSystem(cfg)
        reqs, ready = [], 0
        for _ in range(rng.randint(1, 20)):
            addr = rng.randrange(0, capacity - 64)
            nbytes = rng.randint(1, 64)
            reqs.append(Request(ready, rng.choice("RW"), (addr,), nbytes))
            ready += rng.randint(0, 30)
        sys.run(reqs)
        assert 0.0 < stats(sys)["utilization"] <= 1.0


def test_matches_independent_reference_on_random_traces():
    cfg = small_cfg()
    capacity = cfg.channel_capacity_bytes * cfg.core.channels
    rng = random.Random(99)
    for _ in range(60):
        reqs, ready = [], 0
        for _ in range(rng.randint(1, 15)):
            addr = rng.randrange(0, capacity - 64)
            reqs.append(Request(ready, rng.choice("RW"), (addr,),
                                rng.randint(1, min(64, capacity - addr))))
            ready += rng.randint(0, 40)
        assert DramSystem(cfg).run(reqs) == reference_run(reqs, cfg)
    # Multi-address runs: each drains like its addresses one by one.
    for _ in range(60):
        reqs = _random_runs(rng, cfg, rng.randint(1, 8))
        system = DramSystem(cfg)
        dones, ref_channels = reference_trace(reqs, cfg)
        assert system.run(reqs) == max(dones)
        assert _channel_counts(system) == [ch.counts for ch in ref_channels]
    # Rising ranges at steps of whole interleave runs: a channel services
    # its share of one in stretches on one row. The last geometry's rows
    # are not whole interleave runs.
    longest = 0
    for cfg in (strided_cfg(2), strided_cfg(3), strided_cfg(4),
                strided_cfg(2, C=3, interleave_log2=3)):
        for _ in range(8):
            reqs = _strided_runs(rng, cfg, rng.randint(1, 6))
            system = DramSystem(cfg)
            dones, ref_channels = reference_trace(reqs, cfg)
            assert system.run(reqs) == max(dones)
            assert _channel_counts(system) == [ch.counts for ch in ref_channels]
            longest = max(longest, *(_longest_stretch(r, cfg) for r in reqs))
    assert longest == 8


def _strided_runs(rng, cfg, n):
    """`n` rising ranges of 1 to 300 byte runs at a step of 1, 2, 3, 4, 5,
    8, 16 or 17 interleave runs, most byte runs one chunk and some crossing
    an interleave run; reads and writes with non-decreasing ready cycles,
    and now and then an earlier request again."""
    capacity = cfg.channel_capacity_bytes * cfg.core.channels
    ib = cfg.channel.interleave_bytes
    reqs, ready = [], 0
    for _ in range(n):
        if reqs and rng.random() < 0.1:
            reqs.append(rng.choice(reqs))
            continue
        step = rng.choice((1, 2, 3, 4, 5, 8, 16, 17)) * ib
        nbytes = rng.randint(1, ib)
        offset = rng.randint(0, ib - nbytes) if rng.random() < 0.8 else rng.randrange(ib)
        count = min(rng.choice((rng.randint(1, 20), rng.randint(20, 300))),
                    (capacity - offset - nbytes) // step + 1)
        span = (count - 1) * step + offset + nbytes
        first = rng.randrange(0, (capacity - span) // ib + 1) * ib + offset
        reqs.append(Request(ready, rng.choice("RW"),
                            range(first, first + count * step, step), nbytes))
        ready += rng.randint(0, 200)
    return reqs


def _longest_stretch(req, cfg):
    """The most consecutive byte runs of `req` that one channel services
    on one row."""
    last, longest = {}, 0  # channel -> (row, byte runs on it so far)
    for addr in req.addrs:
        channel, row = _byte_location(addr, cfg)
        prev_row, length = last.get(channel, (None, 0))
        last[channel] = (row, length + 1 if row == prev_row else 1)
        longest = max(longest, last[channel][1])
    return longest


def _random_runs(rng, cfg, n):
    """`n` multi-address requests, each a rising or falling `range`, a tuple
    or a list of strided addresses, or an unordered gather: byte runs of 1
    byte up to four interleave runs at strides that cross interleave runs,
    rows and channels; reads and writes with non-decreasing ready cycles."""
    capacity = cfg.channel_capacity_bytes * cfg.core.channels
    ib = cfg.channel.interleave_bytes
    reqs, ready = [], 0
    for _ in range(n):
        nbytes = rng.randint(1, rng.choice((32, 4 * ib)))
        step = rng.choice((nbytes, ib, cfg.logical_row_bytes, rng.randint(1, 300)))
        count = min(rng.randint(1, 6), (capacity - nbytes) // step + 1)
        first = rng.randrange(0, capacity - nbytes - (count - 1) * step + 1)
        addrs = range(first, first + count * step, step)
        shape = rng.choice(("range", "falling", "tuple", "list", "gather"))
        if shape == "falling":
            addrs = addrs[::-1]
        elif shape == "tuple":
            addrs = tuple(addrs)
        elif shape == "list":
            addrs = list(addrs)
        elif shape == "gather":
            addrs = [rng.randrange(0, capacity - nbytes + 1) for _ in range(count)]
        reqs.append(Request(ready, rng.choice("RW"), addrs, nbytes))
        ready += rng.randint(0, 40)
    return reqs


def _random_trace(rng, cfg, n):
    """`n` requests mixing reads and writes, single-chunk and multi-chunk
    (up to four interleave runs), with non-decreasing ready cycles."""
    capacity = cfg.channel_capacity_bytes * cfg.core.channels
    span = 4 * cfg.channel.interleave_bytes
    reqs, ready = [], 0
    for _ in range(n):
        addr = rng.randrange(0, capacity)
        nbytes = rng.randint(1, min(rng.choice((32, span)), capacity - addr))
        reqs.append(Request(ready, rng.choice("RW"), (addr,), nbytes))
        ready += rng.randint(0, 40)
    return reqs


def _channel_counts(system):
    return [dataclasses.asdict(ch.stats) for ch in system.channels]


@pytest.mark.parametrize("channels", [2, 4])
def test_drains_carry_state_like_one_reference_trace(channels):
    # Several drains on one system service their concatenation: each call
    # returns the last completion of its own requests, and the channel
    # counters end where the reference's do.
    cfg = small_cfg(channels=channels)
    rng = random.Random(21 + channels)
    multi = 0
    for _ in range(25):
        trace = _drain_in_calls(cfg, [_random_trace(rng, cfg, rng.randint(0, 10))
                                      for _ in range(4)])
        multi += sum(len(split_range(addr, nbytes, cfg)) > 1
                     for _, _, addr, nbytes in per_address(trace))
    assert multi > 0
    # Multi-address runs, split over several drains the same way.
    shapes = set()
    for _ in range(25):
        trace = _drain_in_calls(cfg, [_random_runs(rng, cfg, rng.randint(0, 6))
                                      for _ in range(4)])
        shapes.update((type(r.addrs), len({split_range(a, r.run_bytes, cfg)[0][0]
                                             for a in r.addrs}) > 1) for r in trace)
    # Every container, and runs whose addresses lie on several channels.
    assert {shape for shape, _ in shapes} == {range, tuple, list}
    assert any(several for _, several in shapes)
    # Strided ranges, split over several drains the same way.
    cfg = strided_cfg(channels)
    for _ in range(6):
        _drain_in_calls(cfg, [_strided_runs(rng, cfg, rng.randint(0, 4)) for _ in range(4)])


def _drain_in_calls(cfg, calls):
    """Drain each list of `calls` in turn on one system, checking each
    call's completion, the final channel counters and the stats against
    the reference trace of their concatenation; returns that trace."""
    system = DramSystem(cfg)
    trace = [req for call in calls for req in call]
    dones, ref_channels = reference_trace(trace, cfg)
    start = 0
    for call in calls:
        assert system.drain(call) == max(dones[start:start + len(call)], default=0)
        start += len(call)
    assert _channel_counts(system) == [ch.counts for ch in ref_channels]
    whole = DramSystem(cfg)
    assert whole.drain(trace) == reference_run(trace, cfg)
    assert stats(system) == stats(whole)
    return trace


def test_rejected_drain_changes_no_channel():
    cfg = small_cfg(channels=4)
    capacity = cfg.channel_capacity_bytes * cfg.core.channels
    system = DramSystem(cfg)
    system.drain(_random_trace(random.Random(5), cfg, 12))

    def state():
        return [({k: getattr(ch, k) for k in ch.__slots__ if k != "stats"},
                 dataclasses.asdict(ch.stats)) for ch in system.channels]

    before = state()
    # Valid requests to every channel precede the one past the core's end.
    good = [Request(1000, "W", (c * cfg.channel.interleave_bytes,), 32)
            for c in range(cfg.core.channels)]
    with pytest.raises(AddressError):
        system.drain(good + [Request(1000, "R", (capacity - 16,), 32)])
    assert state() == before


@pytest.mark.parametrize("shape", ["tuple", "range", "falling range"])
def test_run_with_one_address_outside_the_core_is_refused(shape):
    # The error names the first address of the run that does not fit, and
    # no channel changes, though the run's other addresses and the request
    # before it fit.
    cfg = small_cfg(channels=4)
    capacity = cfg.channel_capacity_bytes * cfg.core.channels
    system = DramSystem(cfg)
    system.drain(_random_trace(random.Random(6), cfg, 12))
    before = _channel_counts(system), [ch.open_row for ch in system.channels]
    addrs, bad = {"tuple": ((0, 64, capacity - 16, 128, capacity + 64), capacity - 16),
                  "range": (range(capacity - 80, capacity + 48, 32), capacity - 16),
                  "falling range": (range(300, -200, -100), -100)}[shape]
    good = Request(1000, "W", range(0, 4 * cfg.channel.interleave_bytes, 32), 32)
    with pytest.raises(AddressError, match=rf"^request \[{bad}, {bad + 32}\) outside "
                                           rf"core capacity {capacity}$"):
        system.drain([good, Request(1000, "R", addrs, 32)])
    assert (_channel_counts(system), [ch.open_row for ch in system.channels]) == before


def test_request_is_a_named_tuple():
    req = Request(3, "W", (64,), 32)
    assert req == (3, "W", (64,), 32)
    assert (req.ready, req.kind, req.addrs, req.run_bytes, req.bytes) == (3, "W", (64,), 32, 32)
    assert Request(0, "R", range(0, 4096, 512), 96).bytes == 8 * 96
