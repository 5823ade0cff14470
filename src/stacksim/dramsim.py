"""Cycle-accurate per-channel model of the stacked-DRAM memory system.

Each channel owns a single logical bank (an R x C grid of physical banks
activated and precharged as one unit), so channel state is one open logical
row plus a shared I/O bus. Linear channel interleaving maps each run of
`interleave_bytes` consecutive bytes to one channel before the channel index
advances; inside a channel, consecutive runs fill a logical row before the
row index increments.

Command timing protocol (all times in DRAM-clock cycles):

* A request is any `(ready, kind, addr, bytes)` tuple, and it must lie
  inside the core's capacity. `Request` is the named tuple that names
  these fields, for traces that users build and read. The front end
  splits each byte range into per-channel chunks, each confined to one
  logical row and transferred as ceil(len / burst_bytes) bursts.
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
batching idea of FR-FCFS: `schedule_tile` buckets one work item's requests
in one pass by the (channel, row) of each request's first byte, buckets in
first-appearance order, and the channels then service that order. The
grouping is stable and equal addresses share a row, so per-address order is
preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .arch import ArchConfig, peak_dram_bytes_per_cycle


class AddressError(ValueError):
    pass


class Request(NamedTuple):
    """One DRAM request: `bytes` bytes at `addr`, issued no earlier than
    cycle `ready`."""
    ready: int
    kind: str  # "R" or "W"
    addr: int
    bytes: int


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

        # Pass 1: check every request and queue its chunks by channel, one
        # queue per channel it touches. A request that fits one interleave
        # run and one row, as every GEMM and paged-KV request does, is one
        # chunk: its queue holds the request itself, and pass 2 locates it
        # again. Other requests queue split_range's (ready, kind, row,
        # bursts, nbytes) chunks.
        queues: dict[int, list] = {}
        for req in requests:
            ready, kind, addr, nbytes = req
            if addr < 0 or addr + nbytes > capacity:
                raise AddressError(f"request [{addr}, {addr + nbytes}) outside "
                                   f"core capacity {capacity}")
            run, offset = divmod(addr, ib)
            if (0 < nbytes <= ib - offset
                    and nbytes <= row_bytes - ((run // chans) * ib + offset) % row_bytes):
                channel = run % chans
                queue = queues.get(channel)
                if queue is None:
                    queues[channel] = [req]
                else:
                    queue.append(req)
            else:
                for channel, row, bursts, take in split_range(addr, nbytes, self.cfg):
                    queue = queues.get(channel)
                    if queue is None:
                        queues[channel] = [(ready, kind, row, bursts, take)]
                    else:
                        queue.append((ready, kind, row, bursts, take))

        # Pass 2: run each queue with its channel's state in locals.
        completion = 0
        for channel, queue in queues.items():
            ch = self.channels[channel]
            open_row, t_act, t_row_ready = ch.open_row, ch.t_act, ch.t_row_ready
            t_bus, t_issue = ch.t_bus, ch.t_issue
            last_kind = ch.last_kind
            st = ch.stats
            hits = misses = acts = bursts_sum = read = written = 0
            latency_sum, latency_max = 0, st.latency_max
            last_done = 0
            for item in queue:
                if len(item) == 4:
                    ready, kind, addr, take = item
                    run, offset = divmod(addr, ib)
                    row = ((run // chans) * ib + offset) // row_bytes
                    bursts = (addr + take - 1) // bl - addr // bl + 1
                else:
                    ready, kind, row, bursts, take = item
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
            st.latency_count += len(queue)
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

    One pass buckets the requests by the (channel, row) of each request's
    first byte, as `DramSystem.drain` locates it; the buckets keep their
    requests' order and follow each other in first-appearance order. With
    one bucket the input list itself comes back.
    """
    ib = cfg.channel.interleave_bytes
    row_bytes = cfg.logical_row_bytes
    chans = cfg.core.channels
    # (channel, row) as one int: row * chans + channel.
    groups: dict[int, list] = {}
    for req in requests:
        run, offset = divmod(req[2], ib)
        location = ((run // chans) * ib + offset) // row_bytes * chans + run % chans
        group = groups.get(location)
        if group is None:
            groups[location] = [req]
        else:
            group.append(req)
    if len(groups) == 1:
        return requests
    return [req for group in groups.values() for req in group]


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
