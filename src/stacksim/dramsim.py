"""Cycle-accurate per-channel model of the stacked-DRAM memory system.

Each channel owns a single logical bank (an R x C grid of physical banks
activated and precharged as one unit), so channel state is one open logical
row plus a shared I/O bus. Linear channel interleaving maps each run of
`interleave_bytes` consecutive bytes to one channel before the channel index
advances; inside a channel, consecutive runs fill a logical row before the
row index increments.

Command timing protocol (all times in DRAM-clock cycles):

* Requests are serviced strictly in issue order, and a request must lie
  inside the core's capacity. The front end splits each byte range into
  per-channel chunks, each confined to one logical row and transferred as
  ceil(len / burst_bytes) bursts.
* Servicing a chunk starts at t = max(request ready cycle, start cycle of
  the previously issued burst on this channel).
* Row miss: if a row is open, PRE issues at max(t, last ACT + tRAS) and
  completes tRP later; ACT then issues and the row is usable tRCD later.
  On a cold (no open row) miss only the ACT is needed.
* Bursts start at max(row ready, bus free, turnaround, t) and are spaced
  max(tCCD, tBURST) apart. A read-to-write turn adds tRTW after the last
  read's data end; write-to-read adds tWTR.
* A chunk completes when its last burst's data finishes (start + tBURST).

The tile-level scheduler reorders the requests of one work item to batch
same-row accesses per channel, which preserves per-address ordering (equal
addresses share a row and the grouping is stable). A work item whose
same-row groups are already contiguous keeps its order without being
simulated. Otherwise the scheduler simulates both orders on fresh channels
and keeps the grouped one unless FCFS is faster, so it is never slower
than FCFS.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arch import ArchConfig


class AddressError(ValueError):
    pass


@dataclass(frozen=True)
class Request:
    ready: int
    kind: str  # "R" or "W"
    addr: int
    bytes: int


def map_address(addr: int, cfg: ArchConfig) -> tuple[int, int, int, int]:
    """Map a byte address to (channel, logical_row, pb_index, column).

    `column` is the byte offset within the logical row; `pb_index` is the
    physical bank serving that column.
    """
    chans = cfg.core.channels
    ib = cfg.channel.interleave_bytes
    capacity = cfg.channel_capacity_bytes * chans
    if not 0 <= addr < capacity:
        raise AddressError(f"address {addr} outside core capacity {capacity}")
    chunk_idx, offset = divmod(addr, ib)
    channel = chunk_idx % chans
    local = (chunk_idx // chans) * ib + offset
    row, column = divmod(local, cfg.logical_row_bytes)
    pb_index = column // cfg.pb.row_size_bytes
    return channel, row, pb_index, column


def split_range(addr: int, nbytes: int, cfg: ArchConfig) -> list[tuple[int, int, int, int]]:
    """Split one request's byte range into (channel, row, bursts, nbytes) chunks.

    A chunk is one same-row run on one channel. Each channel's chunks are in
    address order, and adjacent chunks of one channel on the same row are
    merged. A range of nbytes <= 0 has no chunks.
    """
    bl = cfg.channel.burst_bytes
    ib = cfg.channel.interleave_bytes
    row_bytes = cfg.logical_row_bytes
    chans = cfg.core.channels
    chunks: list[tuple[int, int, int, int]] = []
    latest: dict[int, int] = {}  # channel -> index of its last chunk
    end = addr + nbytes
    pos = addr
    while pos < end:
        # One interleave run, clipped to the row boundary inside it.
        run, offset = divmod(pos, ib)
        channel = run % chans
        row, column = divmod((run // chans) * ib + offset, row_bytes)
        take = min(end - pos, (run + 1) * ib - pos, row_bytes - column)
        bursts = (pos + take - 1) // bl - pos // bl + 1
        i = latest.get(channel)
        if i is not None and chunks[i][1] == row:
            _, _, merged_bursts, merged_bytes = chunks[i]
            chunks[i] = (channel, row, merged_bursts + bursts, merged_bytes + take)
        else:
            latest[channel] = len(chunks)
            chunks.append((channel, row, bursts, take))
        pos += take
    return chunks


@dataclass
class ChannelStats:
    bytes_read: int = 0
    bytes_written: int = 0
    bursts: int = 0
    act_count: int = 0
    row_hits: int = 0
    row_misses: int = 0
    last_completion: int = 0
    # Count, sum and max over serviced chunks of completion minus ready cycle.
    latency_count: int = 0
    latency_sum: int = 0
    latency_max: int = 0


class ChannelSim:
    """State of one single-logical-bank channel; `DramSystem.drain` advances it."""

    def __init__(self):
        self.open_row: int | None = None
        self.t_act = 0
        self.t_row_ready = 0
        self.t_bus = 0       # earliest next burst start (tCCD spacing)
        self.t_data_end = 0
        self.t_issue = 0     # start cycle of the last issued burst
        self.last_kind: str | None = None
        self.stats = ChannelStats()


class DramSystem:
    """All channels of one core plus the request front end."""

    def __init__(self, cfg: ArchConfig):
        self.cfg = cfg
        self.channels = [ChannelSim() for _ in range(cfg.core.channels)]
        self._pending: list[Request] = []

    def drain(self) -> int:
        """Service all pending requests in order; returns the last completion."""
        cfg = self.cfg
        tm = cfg.dram_timing
        tRAS, tRP, tRCD, tBURST = tm.tRAS, tm.tRP, tm.tRCD, tm.tBURST
        tRTW, tWTR = tm.tRTW, tm.tWTR
        spacing = max(tm.tCCD, tBURST)
        bl = cfg.channel.burst_bytes
        ib = cfg.channel.interleave_bytes
        row_bytes = cfg.logical_row_bytes
        chans = cfg.core.channels
        capacity = cfg.channel_capacity_bytes * chans
        channels = self.channels
        completion = 0
        for req in self._pending:
            addr = req.addr
            nbytes = req.bytes
            if addr < 0 or addr + nbytes > capacity:
                raise AddressError(f"request [{addr}, {addr + nbytes}) outside "
                                   f"core capacity {capacity}")
            # The first chunk as in split_range; when it covers the whole
            # request, as it does for every GEMM and paged-KV request, the
            # request needs no further splitting.
            run, offset = divmod(addr, ib)
            row, column = divmod((run // chans) * ib + offset, row_bytes)
            if 0 < nbytes <= ib - offset and nbytes <= row_bytes - column:
                chunks = ((run % chans, row, (addr + nbytes - 1) // bl - addr // bl + 1,
                           nbytes),)
            else:
                chunks = split_range(addr, nbytes, cfg)
            ready = req.ready
            kind = req.kind
            for channel, row, bursts, take in chunks:
                ch = channels[channel]
                st = ch.stats
                t = max(ready, ch.t_issue)
                if ch.open_row != row:
                    if ch.open_row is not None:
                        closed = max(t, ch.t_act + tRAS) + tRP
                        st.row_misses += 1
                    else:
                        closed = t
                    ch.t_act = max(closed, t)
                    ch.t_row_ready = ch.t_act + tRCD
                    ch.open_row = row
                    st.act_count += 1
                else:
                    st.row_hits += 1
                first = max(ch.t_row_ready, ch.t_bus, t)
                last_kind = ch.last_kind
                if last_kind != kind and last_kind is not None:
                    turn = tRTW if last_kind == "R" else tWTR
                    first = max(first, ch.t_data_end + turn)
                last = first + (bursts - 1) * spacing
                done = last + tBURST
                ch.t_bus = last + spacing
                ch.t_data_end = done
                ch.t_issue = last
                ch.last_kind = kind
                st.bursts += bursts
                if kind == "R":
                    st.bytes_read += take
                else:
                    st.bytes_written += take
                if done > st.last_completion:
                    st.last_completion = done
                latency = done - ready
                st.latency_count += 1
                st.latency_sum += latency
                if latency > st.latency_max:
                    st.latency_max = latency
                if done > completion:
                    completion = done
        self._pending.clear()
        return completion

    def run(self, requests: list[Request]) -> int:
        """Queue `requests` and drain them; returns the last completion."""
        self._pending.extend(requests)
        return self.drain()


def schedule_tile(requests: list[Request], cfg: ArchConfig) -> list[Request]:
    """Reorder one work item's requests to batch same-row accesses.

    Stable grouping by the (channel, row) of each request's first byte,
    keyed in first-appearance order. When every group is already contiguous,
    the grouped order is the input order and comes back as it is. Otherwise
    the grouped order is kept only if it is no slower than FCFS on fresh
    channel state.
    """
    order: dict[tuple[int, int], int] = {}
    keys = []
    for req in requests:
        channel, row, _, _ = map_address(req.addr, cfg)
        keys.append(order.setdefault((channel, row), len(order)))
    if keys == sorted(keys):
        return list(requests)
    grouped = [req for _, req in sorted(enumerate(requests), key=lambda p: (keys[p[0]], p[0]))]

    def cost(seq):
        return DramSystem(cfg).run(list(seq))

    return grouped if cost(grouped) <= cost(requests) else list(requests)


def stats(system: DramSystem, start_cycle: int = 0) -> dict:
    """Aggregate channel statistics after a drain."""
    tm = system.cfg.dram_timing
    bl = system.cfg.channel.burst_bytes
    peak_bytes_per_cycle = bl / tm.tBURST
    total_bytes = sum(c.stats.bytes_read + c.stats.bytes_written for c in system.channels)
    elapsed = max((c.stats.last_completion for c in system.channels), default=0) - start_cycle
    n = len(system.channels)
    achieved = total_bytes / elapsed if elapsed > 0 else 0.0
    util = achieved / (peak_bytes_per_cycle * n) if elapsed > 0 else 0.0
    hits = sum(c.stats.row_hits for c in system.channels)
    misses = sum(c.stats.row_misses for c in system.channels)
    lat_count = sum(c.stats.latency_count for c in system.channels)
    lat_sum = sum(c.stats.latency_sum for c in system.channels)
    freq_ghz = system.cfg.core.frequency_ghz
    return {
        "elapsed_cycles": elapsed,
        "total_bytes": total_bytes,
        "bytes_per_cycle": achieved,
        "achieved_gbps": achieved * freq_ghz,
        "utilization": util,
        "row_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "act_count": sum(c.stats.act_count for c in system.channels),
        "latency_mean": lat_sum / lat_count if lat_count else 0.0,
        "latency_max": max((c.stats.latency_max for c in system.channels), default=0),
    }
