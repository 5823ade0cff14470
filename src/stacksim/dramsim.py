"""Cycle-accurate per-channel model of the stacked-DRAM memory system.

Each channel owns a single logical bank (an R x C grid of physical banks
activated and precharged as one unit), so channel state is one open logical
row plus a shared I/O bus. Linear channel interleaving maps each run of
`interleave_bytes` consecutive bytes to one channel before the channel index
advances; inside a channel, consecutive runs fill a logical row before the
row index increments.

Command timing protocol (all times in DRAM-clock cycles):

* A request is a strided run: a byte run of `run_bytes` bytes at each
  address of `addrs`, all issued no earlier than cycle `ready`. `addrs` is
  a `range` for a strided tile and any int sequence for a gather, and
  every byte run must lie inside the core's capacity. The front end splits
  each byte run, in `addrs` order, into per-channel chunks, each confined
  to one logical row and transferred as ceil(len / burst_bytes) bursts.
  Chunks of different byte runs never merge.
* Channels are independent: each services its own chunks in issue order,
  and its state depends on nothing else, so `DramSystem.drain` services
  one channel's queue after another.
* The timing and geometry constants are fixed per `DramSystem`: it reads
  them from its config once, when it is built.
* Servicing a chunk starts at t = max(request ready cycle, start cycle of
  the previously issued burst on this channel).
* Row miss: if a row is open, PRE issues at max(t, last ACT + tRAS) and
  completes tRP later; ACT then issues and the row is usable tRCD later.
  On a cold (no open row) miss only the ACT is needed.
* Bursts start at max(row ready, bus free, turnaround, t) and are spaced
  max(tCCD, tBURST) apart. A read-to-write turn adds tRTW after the last
  read's data end; write-to-read adds tWTR.
* A chunk completes when its last burst's data finishes (start + tBURST).

The scheduling policy is same-row-first batching within a work item, the
batching idea of FR-FCFS: `schedule_tile` buckets one work item's byte runs
by the (channel, row) of each one's first byte, buckets in
first-appearance order, and the channels then service that order. The
grouping is stable and equal addresses share a row, so per-address order is
preserved.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .arch import ArchConfig, peak_dram_bytes_per_cycle


class AddressError(ValueError):
    pass


class Request(NamedTuple):
    """One DRAM request: `run_bytes` bytes at each address of `addrs`,
    issued no earlier than cycle `ready`."""
    ready: int
    kind: str  # "R" or "W"
    addrs: Sequence[int]  # a range, or any int sequence for a gather
    run_bytes: int

    @property
    def bytes(self) -> int:
        return len(self.addrs) * self.run_bytes


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


@dataclass(slots=True)
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

    __slots__ = ("open_row", "t_act", "t_row_ready", "t_bus", "t_issue",
                 "last_kind", "stats")

    def __init__(self):
        self.open_row: int | None = None
        self.t_act = 0
        self.t_row_ready = 0
        self.t_bus = 0       # earliest next burst start (tCCD spacing)
        self.t_issue = 0     # start cycle of the last issued burst
        self.last_kind: str | None = None
        self.stats = ChannelStats()


class DramSystem:
    """All channels of one core plus the request front end, with the
    timing and address-geometry constants of its config."""

    def __init__(self, cfg: ArchConfig):
        self.cfg = cfg
        self.channels = [ChannelSim() for _ in range(cfg.core.channels)]
        tm = cfg.dram_timing
        self._timing = (tm.tRAS, tm.tRP, tm.tRCD, tm.tBURST, tm.tRTW, tm.tWTR,
                        max(tm.tCCD, tm.tBURST))
        self._geometry = (cfg.channel.burst_bytes, cfg.channel.interleave_bytes,
                          cfg.logical_row_bytes, cfg.core.channels,
                          cfg.channel_capacity_bytes * cfg.core.channels)

    def drain(self, requests: list) -> int:
        """Service `requests`; returns the last completion among them.

        Each channel services its chunks in issue order. A channel's state
        depends only on its own chunks, so the channels run one after
        another over per-channel queues. Every request is checked before
        any channel state changes.
        """
        tRAS, tRP, tRCD, tBURST, tRTW, tWTR, spacing = self._timing
        bl, ib, row_bytes, chans, capacity = self._geometry

        # Pass 1: check every request, then queue its byte runs by channel.
        # A queue holds a request before the first of its entries from that
        # request, and pass 2 reads ready, kind and run_bytes there. A byte
        # run that fits one interleave run and one row, as every GEMM,
        # paged-KV and stream byte run does, is one chunk: its queue holds
        # its address, and pass 2 locates it again. Other byte runs queue
        # split_range's (row, bursts, nbytes) chunks.
        queues: dict[int, list] = {}
        owners = [None] * chans  # channel -> the request of its last entry
        for req in requests:
            ready, kind, addrs, run_bytes = req
            if not addrs:
                continue
            if type(addrs) is range:
                low, high = addrs[0], addrs[-1]
                if low > high:
                    low, high = high, low
            else:
                low, high = min(addrs), max(addrs)
            if low < 0 or high + run_bytes > capacity:
                addr = next(a for a in addrs if a < 0 or a + run_bytes > capacity)
                raise AddressError(f"request [{addr}, {addr + run_bytes}) outside "
                                   f"core capacity {capacity}")
            if run_bytes <= 0:
                continue
            for addr in addrs:
                run, offset = divmod(addr, ib)
                if (run_bytes <= ib - offset
                        and run_bytes <= row_bytes - ((run // chans) * ib + offset) % row_bytes):
                    channel = run % chans
                    if owners[channel] is not req:
                        owners[channel] = req
                        queues.setdefault(channel, []).append(req)
                    queues[channel].append(addr)
                else:
                    for channel, row, bursts, take in split_range(addr, run_bytes, self.cfg):
                        if owners[channel] is not req:
                            owners[channel] = req
                            queues.setdefault(channel, []).append(req)
                        queues[channel].append((row, bursts, take))

        # Pass 2: run each queue with its channel's state in locals.
        completion = 0
        for channel, queue in queues.items():
            ch = self.channels[channel]
            open_row, t_act, t_row_ready = ch.open_row, ch.t_act, ch.t_row_ready
            t_bus, t_issue = ch.t_bus, ch.t_issue
            last_kind = ch.last_kind
            st = ch.stats
            hits = misses = acts = bursts_sum = read = written = heads = 0
            latency_sum, latency_max = 0, st.latency_max
            last_done = 0
            for item in queue:
                if item.__class__ is int:
                    run, offset = divmod(item, ib)
                    row = ((run // chans) * ib + offset) // row_bytes
                    bursts = (item + run_bytes - 1) // bl - item // bl + 1
                    take = run_bytes
                elif len(item) == 3:
                    row, bursts, take = item
                else:
                    ready, kind, _, run_bytes = item
                    heads += 1
                    continue
                t = ready if ready > t_issue else t_issue
                if row != open_row:
                    if open_row is not None:
                        t_act = (t if t > t_act + tRAS else t_act + tRAS) + tRP
                        misses += 1
                    else:
                        t_act = t
                    t_row_ready = t_act + tRCD
                    open_row = row
                    acts += 1
                else:
                    hits += 1
                first = t_row_ready if t_row_ready > t_bus else t_bus
                if t > first:
                    first = t
                if kind != last_kind and last_kind is not None:
                    turn = t_issue + tBURST + (tRTW if last_kind == "R" else tWTR)
                    if turn > first:
                        first = turn
                t_issue = first + (bursts - 1) * spacing
                t_bus = t_issue + spacing
                done = t_issue + tBURST
                last_kind = kind
                bursts_sum += bursts
                if kind == "R":
                    read += take
                else:
                    written += take
                if done > last_done:
                    last_done = done
                latency = done - ready
                latency_sum += latency
                if latency > latency_max:
                    latency_max = latency
            ch.open_row, ch.t_act, ch.t_row_ready = open_row, t_act, t_row_ready
            ch.t_bus, ch.t_issue = t_bus, t_issue
            ch.last_kind = last_kind
            st.bytes_read += read
            st.bytes_written += written
            st.bursts += bursts_sum
            st.act_count += acts
            st.row_hits += hits
            st.row_misses += misses
            if last_done > st.last_completion:
                st.last_completion = last_done
            st.latency_count += len(queue) - heads
            st.latency_sum += latency_sum
            st.latency_max = latency_max
            if last_done > completion:
                completion = last_done
        return completion

    def run(self, requests: list) -> int:
        """Service `requests`; returns the last completion among them."""
        return self.drain(requests)


def schedule_tile(requests: list, cfg: ArchConfig) -> list:
    """Order one work item's requests same-row first.

    One pass locates the byte runs of the requests by the (channel, row) of
    each one's first byte, as `DramSystem.drain` locates it. When every
    location's byte runs are already adjacent, the input list itself comes
    back. Otherwise the byte runs are bucketed by location, buckets in
    first-appearance order and each keeping its byte runs' order, and each
    bucket becomes one request per request that it holds byte runs of.
    """
    ib = cfg.channel.interleave_bytes
    row_bytes = cfg.logical_row_bytes
    chans = cfg.core.channels
    located = []  # (channel, row) of each byte run as one int: row * chans + channel
    seen = set()
    location = None
    reordered = False
    for req in requests:
        for addr in req[2]:
            run, offset = divmod(addr, ib)
            here = ((run // chans) * ib + offset) // row_bytes * chans + run % chans
            located.append(here)
            if here != location:
                reordered = reordered or here in seen
                seen.add(here)
                location = here
    if not reordered:
        return requests
    groups: dict[int, list] = {}  # location -> [(request, addrs)]
    locations = iter(located)
    for req in requests:
        for addr in req[2]:
            group = groups.setdefault(next(locations), [])
            if not group or group[-1][0] is not req:
                group.append((req, []))
            group[-1][1].append(addr)
    return [Request(req[0], req[1], addrs, req[3])
            for group in groups.values() for req, addrs in group]


def stats(system: DramSystem) -> dict:
    """Aggregate channel statistics after a drain."""
    total_bytes = sum(c.stats.bytes_read + c.stats.bytes_written for c in system.channels)
    elapsed = max((c.stats.last_completion for c in system.channels), default=0)
    achieved = total_bytes / elapsed if elapsed > 0 else 0.0
    util = achieved / peak_dram_bytes_per_cycle(system.cfg) if elapsed > 0 else 0.0
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
