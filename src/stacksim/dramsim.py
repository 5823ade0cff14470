"""Cycle-accurate per-channel model of the stacked-DRAM memory system.

Each channel owns a single logical bank (an R x C grid of physical banks
activated and precharged as one unit), so channel state is one open logical
row plus a shared I/O bus. Linear channel interleaving maps each run of
`interleave_bytes` consecutive bytes to one channel before the channel index
advances; inside a channel, consecutive runs fill a logical row before the
row index increments.

Command timing protocol (all times in DRAM-clock cycles):

* Requests on a channel are serviced strictly in issue order. The front end
  splits each byte range into per-channel chunks, each confined to one
  logical row and transferred as ceil(len / burst_bytes) bursts.
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
addresses share a row and the grouping is stable) and is never slower than
FCFS because it evaluates both orders and keeps the cheaper one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arch import ArchConfig, DramTiming


class AddressError(ValueError):
    pass


@dataclass(frozen=True)
class Request:
    ready: int
    kind: str  # "R" or "W"
    addr: int
    bytes: int


@dataclass
class Chunk:
    """A same-row run of bursts on one channel."""
    channel: int
    row: int
    bursts: int
    nbytes: int


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


def split_ranges(ranges: list[tuple[int, int]], cfg: ArchConfig) -> list[list[Chunk]]:
    """Split absolute byte ranges into per-channel same-row chunk lists.

    Chunk order per channel follows the input range order; adjacent chunks
    on the same (channel, row) are merged.
    """
    bl = cfg.channel.burst_bytes
    ib = cfg.channel.interleave_bytes
    row_bytes = cfg.logical_row_bytes
    chans = cfg.core.channels
    per_channel: list[list[Chunk]] = [[] for _ in range(chans)]
    for addr, nbytes in ranges:
        if nbytes <= 0:
            continue
        end = addr + nbytes
        pos = addr
        while pos < end:
            # One interleave run, clipped to the row boundary inside it.
            chunk_idx, offset = divmod(pos, ib)
            channel = chunk_idx % chans
            run_end = min(end, (chunk_idx + 1) * ib)
            local = (chunk_idx // chans) * ib + offset
            row = local // row_bytes
            row_left = row_bytes - local % row_bytes
            take = min(run_end - pos, row_left)
            first_burst = pos // bl
            last_burst = (pos + take - 1) // bl
            bursts = last_burst - first_burst + 1
            lst = per_channel[channel]
            if lst and lst[-1].row == row:
                lst[-1].bursts += bursts
                lst[-1].nbytes += take
            else:
                lst.append(Chunk(channel, row, bursts, take))
            pos += take
    return per_channel


@dataclass
class ChannelStats:
    bytes_read: int = 0
    bytes_written: int = 0
    bursts: int = 0
    act_count: int = 0
    row_hits: int = 0
    row_misses: int = 0
    busy_cycles: int = 0
    last_completion: int = 0
    # Count, sum and max over serviced chunks of completion minus ready cycle.
    latency_count: int = 0
    latency_sum: int = 0
    latency_max: int = 0


class ChannelSim:
    """Incremental single-logical-bank channel state machine."""

    def __init__(self, timing: DramTiming, burst_bytes: int):
        self.t = timing
        self.burst_bytes = burst_bytes
        self.open_row: int | None = None
        self.t_act = 0
        self.t_row_ready = 0
        self.t_bus = 0       # earliest next burst start (tCCD spacing)
        self.t_data_end = 0
        self.t_issue = 0     # start cycle of the last issued burst
        self.last_kind: str | None = None
        self.stats = ChannelStats()

    def service(self, ready: int, kind: str, chunk: Chunk) -> int:
        """Service one same-row chunk; returns its completion cycle."""
        t = max(ready, self.t_issue)
        tm = self.t
        if self.open_row != chunk.row:
            if self.open_row is not None:
                t_pre = max(t, self.t_act + tm.tRAS)
                closed = t_pre + tm.tRP
                self.stats.row_misses += 1
            else:
                closed = t
            self.t_act = max(closed, t)
            self.t_row_ready = self.t_act + tm.tRCD
            self.open_row = chunk.row
            self.stats.act_count += 1
        else:
            self.stats.row_hits += 1
        first = max(self.t_row_ready, self.t_bus, t)
        if self.last_kind is not None and self.last_kind != kind:
            turn = tm.tRTW if self.last_kind == "R" else tm.tWTR
            first = max(first, self.t_data_end + turn)
        spacing = max(tm.tCCD, tm.tBURST)
        last = first + (chunk.bursts - 1) * spacing
        self.t_bus = last + spacing
        self.t_data_end = last + tm.tBURST
        self.t_issue = last
        self.last_kind = kind
        st = self.stats
        st.bursts += chunk.bursts
        st.busy_cycles += chunk.bursts * tm.tBURST
        if kind == "R":
            st.bytes_read += chunk.nbytes
        else:
            st.bytes_written += chunk.nbytes
        completion = last + tm.tBURST
        st.last_completion = max(st.last_completion, completion)
        latency = completion - ready
        st.latency_count += 1
        st.latency_sum += latency
        if latency > st.latency_max:
            st.latency_max = latency
        return completion


class DramSystem:
    """All channels of one core plus the request front end."""

    def __init__(self, cfg: ArchConfig):
        self.cfg = cfg
        self.channels = [
            ChannelSim(cfg.dram_timing, cfg.channel.burst_bytes)
            for _ in range(cfg.core.channels)
        ]
        self._pending: list[Request] = []

    def issue(self, ranges: list[tuple[int, int]], kind: str, ready: int = 0) -> None:
        for addr, nbytes in ranges:
            self._pending.append(Request(ready, kind, addr, nbytes))

    def drain(self) -> int:
        """Service all pending requests in order; returns the last completion."""
        completion = 0
        for req in self._pending:
            for chunks in split_ranges([(req.addr, req.bytes)], self.cfg):
                for chunk in chunks:
                    done = self.channels[chunk.channel].service(req.ready, req.kind, chunk)
                    completion = max(completion, done)
        self._pending.clear()
        return completion

    def run(self, requests: list[Request]) -> int:
        for req in requests:
            self.issue([(req.addr, req.bytes)], req.kind, req.ready)
        return self.drain()


def schedule_tile(requests: list[Request], cfg: ArchConfig | None = None) -> list[Request]:
    """Reorder one work item's requests to batch same-row accesses.

    Stable grouping by the (channel, row) of each request's first byte,
    keyed in first-appearance order. With a config supplied, the grouped
    order is kept only if it is no slower than FCFS on fresh channel state.
    """
    if cfg is None:
        raise ValueError("schedule_tile requires the architecture config")
    order: dict[tuple[int, int], int] = {}
    keys = []
    for req in requests:
        channel, row, _, _ = map_address(req.addr, cfg)
        key = (channel, row)
        if key not in order:
            order[key] = len(order)
        keys.append(order[key])
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
