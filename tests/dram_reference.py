"""Naive event-driven reference model of the channel command protocol.

Deliberately independent of the production implementation: each request
(`ready`, `kind`, `addrs`, `run_bytes`) is first expanded into one
(ready, kind, addr, nbytes) request per address, addresses are split
byte-by-byte into same-(channel, row) runs, and every burst is scheduled
individually against explicit per-channel command timelines.
Only the documented protocol is shared; none of the incremental state
machinery is. `reference_schedule` states the same-row-first policy as
per-group lists rather than a sort. Intended for small traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class _Channel:
    open_row: int | None = None
    act_time: int = 0          # cycle the current row's ACT issued
    row_ready: int = 0         # act_time + tRCD
    next_bus: int = 0          # earliest start of the next burst
    data_end: int = 0          # end of the most recent burst's data
    last_start: int = 0        # start cycle of the most recently issued burst
    last_kind: str | None = None
    # Counters, named as the fields of dramsim.ChannelStats.
    counts: dict = field(default_factory=lambda: dict.fromkeys(
        ("bytes_read", "bytes_written", "bursts", "act_count", "row_hits",
         "row_misses", "last_completion", "latency_count", "latency_sum",
         "latency_max"), 0))


def _byte_location(addr: int, cfg) -> tuple[int, int]:
    """(channel, logical row) of one byte, straight from the definition."""
    ib = cfg.channel.interleave_bytes
    chans = cfg.core.channels
    unit = addr // ib
    channel = unit % chans
    local = (unit // chans) * ib + addr % ib
    return channel, local // cfg.logical_row_bytes


def _runs(addr: int, nbytes: int, cfg):
    """Byte-exact same-(channel, row) runs in address order."""
    runs = []
    cur = None  # [location, start addr, length]
    for a in range(addr, addr + nbytes):
        loc = _byte_location(a, cfg)
        if cur is not None and cur[0] == loc and cur[1] + cur[2] == a:
            cur[2] += 1
        else:
            if cur is not None:
                runs.append(cur)
            cur = [loc, a, 1]
    if cur is not None:
        runs.append(cur)
    return [tuple(r) for r in runs]


def per_address(requests) -> list[tuple]:
    """Every request as one (ready, kind, addr, nbytes) tuple per address,
    in order."""
    return [(ready, kind, addr, nbytes)
            for ready, kind, addrs, nbytes in requests for addr in addrs]


def reference_schedule(requests, cfg) -> list:
    """One work item's requests, as one-address requests, grouped by the
    (channel, row) of their first byte: groups in first-appearance order,
    arrival order within a group."""
    groups: dict[tuple[int, int], list] = {}
    for ready, kind, addr, nbytes in per_address(requests):
        groups.setdefault(_byte_location(addr, cfg), []).append(
            (ready, kind, (addr,), nbytes))
    return [req for group in groups.values() for req in group]


def reference_trace(requests, cfg) -> tuple[list[int], list[_Channel]]:
    """Per-request completion cycles (0 for a request with no bytes), each
    the last completion among its addresses, and the final channels,
    counters included, under the documented protocol."""
    channels = [
        _Channel() for _ in range(cfg.core.channels)
    ]
    dones = []
    for ready, kind, addrs, nbytes in requests:
        done = 0
        for addr in addrs:
            done = max(done, _service(channels, ready, kind, addr, nbytes, cfg))
        dones.append(done)
    return dones, channels


def _service(channels, ready, kind, addr, nbytes, cfg) -> int:
    """Service the `nbytes` bytes at `addr` as one request; returns their
    completion cycle (0 for no bytes)."""
    tm = cfg.dram_timing
    bl = cfg.channel.burst_bytes
    spacing = max(tm.tCCD, tm.tBURST)
    # Merge consecutive same-row runs per channel, preserving arrival order,
    # exactly as the front end does.
    done = 0
    per_channel_chunks: dict[int, list] = {}
    order: list[int] = []
    for (channel, row), start, length in _runs(addr, nbytes, cfg):
        first_burst = start // bl
        last_burst = (start + length - 1) // bl
        bursts = last_burst - first_burst + 1
        lst = per_channel_chunks.setdefault(channel, [])
        if channel not in order:
            order.append(channel)
        if lst and lst[-1][0] == row:
            lst[-1][1] += bursts
            lst[-1][2] += length
        else:
            lst.append([row, bursts, length])
    for channel in order:
        ch = channels[channel]
        counts = ch.counts
        for row, bursts, length in per_channel_chunks[channel]:
            t = max(ready, ch.last_start)
            if ch.open_row == row:
                counts["row_hits"] += 1
            else:
                if ch.open_row is not None:
                    pre_issue = max(t, ch.act_time + tm.tRAS)
                    row_closed = pre_issue + tm.tRP
                    counts["row_misses"] += 1
                else:
                    row_closed = t
                ch.act_time = max(row_closed, t)
                ch.row_ready = ch.act_time + tm.tRCD
                ch.open_row = row
                counts["act_count"] += 1
            # Schedule every burst individually.
            start = None
            for b in range(bursts):
                earliest = max(ch.row_ready, ch.next_bus, t)
                if b == 0 and ch.last_kind is not None and ch.last_kind != kind:
                    turn = tm.tRTW if ch.last_kind == "R" else tm.tWTR
                    earliest = max(earliest, ch.data_end + turn)
                start = earliest
                ch.next_bus = start + spacing
                ch.data_end = start + tm.tBURST
                ch.last_start = start
            ch.last_kind = kind
            chunk_done = start + tm.tBURST
            done = max(done, chunk_done)
            counts["bytes_read" if kind == "R" else "bytes_written"] += length
            counts["bursts"] += bursts
            counts["last_completion"] = max(counts["last_completion"], chunk_done)
            counts["latency_count"] += 1
            counts["latency_sum"] += chunk_done - ready
            counts["latency_max"] = max(counts["latency_max"], chunk_done - ready)
    return done


def reference_run(requests, cfg) -> int:
    """Completion cycle of the whole trace under the documented protocol."""
    return max(reference_trace(requests, cfg)[0], default=0)
