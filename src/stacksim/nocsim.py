"""Flit-level 2D-mesh network-on-chip with wormhole switching.

XY dimension-order routing (column direction first, then row), credit-based
flow control, per-port input queues, and deterministic round-robin output
arbitration. A flit that arrives at a router at cycle t becomes eligible for
switch traversal at t + router_delay and spends link_delay cycles on each
link, so an unloaded packet of F flits from src to dst with h hops completes

    (h + 1) * router_delay + h * link_delay + (F - 1)

cycles after injection. Ejection consumes one flit per cycle per core; a
zero-byte packet and a self-send complete at the injection cycle.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from .arch import ArchConfig
from .partition import CommPlan, CoreArray, logical_to_physical

LOCAL = 4
DIRS = ("N", "E", "S", "W")  # port index 0..3; 4 = local/eject
_OFFS = {"N": (-1, 0), "E": (0, 1), "S": (1, 0), "W": (0, -1)}


def zero_load_latency(src: tuple[int, int], dst: tuple[int, int],
                      flits: int, cfg: ArchConfig) -> int:
    """Analytic unloaded latency of one packet, in NoC cycles."""
    if src == dst or flits == 0:
        return 0
    h = abs(src[0] - dst[0]) + abs(src[1] - dst[1])
    noc = cfg.noc
    return (h + 1) * noc.router_delay_cycles + h * noc.link_delay_cycles + (flits - 1)


@dataclass
class Packet:
    src: tuple[int, int]
    dst: tuple[int, int]
    bytes: int
    tag: int = 0
    pid: int = -1
    inject_cycle: int = -1
    complete_cycle: int = -1

    def flit_count(self, flit_bytes: int) -> int:
        return max(1, math.ceil(self.bytes / flit_bytes)) if self.bytes > 0 else 0


@dataclass
class _Flit:
    pid: int
    seq: int
    is_tail: bool
    dst: tuple[int, int]
    arrival: int  # cycle this flit entered the current queue


class _Router:
    def __init__(self, pos: tuple[int, int], depth: int):
        self.pos = pos
        self.queues: list[deque[_Flit]] = [deque() for _ in range(5)]
        self.depth = depth
        # Wormhole allocation: output port -> (input port, pid) while a
        # packet's worm occupies the crossbar path.
        self.alloc: dict[int, tuple[int, int]] = {}
        self.rr: list[int] = [0] * 5  # round-robin pointer per output port

    def route(self, dst: tuple[int, int]) -> int:
        m, n = self.pos
        if n != dst[1]:
            return DIRS.index("E") if dst[1] > n else DIRS.index("W")
        if m != dst[0]:
            return DIRS.index("S") if dst[0] > m else DIRS.index("N")
        return LOCAL


class MeshSim:
    """Cycle-stepped mesh simulator; advance with tick() or run to drain."""

    def __init__(self, cfg: ArchConfig, start_cycle: int = 0):
        self.cfg = cfg
        noc = cfg.noc
        self.rows, self.cols = noc.rows, noc.cols
        self.routers = {(m, n): _Router((m, n), noc.input_queue_flits)
                        for m in range(self.rows) for n in range(self.cols)}
        self.start_cycle = self.now = start_cycle
        self.packets: dict[int, Packet] = {}
        self._next_pid = 0
        self._inflight: list[tuple[int, tuple[int, int], int, _Flit]] = []
        self._arrived: dict[tuple[int, int], list[Packet]] = {}
        self._pending_inject: dict[int, deque[tuple[Packet, list[_Flit]]]] = {}
        self.injected_flits = 0
        self.ejected_flits = 0

    def _neighbor(self, pos, out_port):
        dm, dn = _OFFS[DIRS[out_port]]
        return pos[0] + dm, pos[1] + dn

    def inject(self, pkt: Packet, cycle: int | None = None) -> Packet:
        """Queue a packet for injection at `cycle` (default: now)."""
        cycle = self.now if cycle is None else cycle
        pkt.pid = self._next_pid
        self._next_pid += 1
        pkt.inject_cycle = cycle
        self.packets[pkt.pid] = pkt
        flits = pkt.flit_count(self.cfg.noc.flit_bytes)
        if flits == 0 or pkt.src == pkt.dst:
            pkt.complete_cycle = cycle
            self._arrived.setdefault(pkt.dst, []).append(pkt)
            return pkt
        worm = [_Flit(pkt.pid, s, s == flits - 1, pkt.dst, cycle) for s in range(flits)]
        self._pending_inject.setdefault(cycle, deque()).append((pkt, worm))
        return pkt

    def _do_injections(self):
        ready = self._pending_inject.pop(self.now, None)
        if not ready:
            return
        for pkt, worm in ready:
            q = self.routers[pkt.src].queues[LOCAL]
            # Source queue is elastic: injection stalls are modeled by the
            # local queue rather than by backpressure into the core.
            for flit in worm:
                flit.arrival = self.now
            q.extend(worm)
            self.injected_flits += len(worm)

    def tick(self) -> None:
        self._do_injections()
        rd = self.cfg.noc.router_delay_cycles
        ld = self.cfg.noc.link_delay_cycles

        # Deliver in-flight flits arriving this cycle.
        still = []
        for arrival, pos, port, flit in self._inflight:
            if arrival <= self.now:
                flit.arrival = arrival
                self.routers[pos].queues[port].append(flit)
            else:
                still.append((arrival, pos, port, flit))
        self._inflight = still

        # Grant phase: decide all moves from the cycle-start state.
        moves = []
        for pos in sorted(self.routers):
            router = self.routers[pos]
            granted_inputs = set()
            for out_port in (0, 1, 2, 3, LOCAL):
                holder = router.alloc.get(out_port)
                candidates = []
                for offset in range(5):
                    in_port = (router.rr[out_port] + offset) % 5
                    if in_port in granted_inputs:
                        continue
                    q = router.queues[in_port]
                    if not q:
                        continue
                    flit = q[0]
                    if flit.arrival + rd > self.now:
                        continue
                    if router.route(flit.dst) != out_port:
                        continue
                    if holder is not None:
                        if (in_port, flit.pid) != holder:
                            continue
                    elif flit.seq != 0:
                        continue  # body flit of an unallocated worm
                    candidates.append(in_port)
                    break  # round-robin: first eligible wins
                if not candidates:
                    continue
                in_port = candidates[0]
                flit = router.queues[in_port][0]
                if out_port != LOCAL:
                    dest = self._neighbor(pos, out_port)
                    in_dir = (out_port + 2) % 4  # opposite side at the neighbor
                    if len(self.routers[dest].queues[in_dir]) >= router.depth:
                        continue  # no credit
                moves.append((pos, in_port, out_port, flit))
                granted_inputs.add(in_port)
                if holder is None:
                    router.alloc[out_port] = (in_port, flit.pid)
                    router.rr[out_port] = (in_port + 1) % 5

        # Traversal phase.
        for pos, in_port, out_port, flit in moves:
            router = self.routers[pos]
            router.queues[in_port].popleft()
            if flit.is_tail:
                router.alloc.pop(out_port, None)
            if out_port == LOCAL:
                self.ejected_flits += 1
                if flit.is_tail:
                    pkt = self.packets[flit.pid]
                    pkt.complete_cycle = self.now
                    self._arrived.setdefault(pkt.dst, []).append(pkt)
            else:
                dest = self._neighbor(pos, out_port)
                in_dir = (out_port + 2) % 4
                self._inflight.append((self.now + ld, dest, in_dir, flit))
        self.now += 1

    def idle(self) -> bool:
        return (not self._inflight and not self._pending_inject
                and all(not q for r in self.routers.values() for q in r.queues))

    def run_until_drained(self, limit: int = 10_000_000) -> int:
        """Tick until idle; `limit` bounds the cycles since `start_cycle`."""
        while not self.idle():
            if self.now - self.start_cycle > limit:
                raise RuntimeError("NoC simulation did not drain")
            self.tick()
        return max((p.complete_cycle for p in self.packets.values()), default=0)

    def arrivals(self, core: tuple[int, int]) -> list[Packet]:
        return self._arrived.get(core, [])


@dataclass(frozen=True)
class PlanResult:
    makespan: int
    bytes_hops: int
    per_core_completion: dict


def run_plan(plan: CommPlan, arr: CoreArray, cfg: ArchConfig, start_cycle: int = 0) -> PlanResult:
    """Replay a communication plan on the mesh.

    A core's step-s sends inject once all of its step-(s-1) transfers (its
    sends injected and its recvs delivered) are complete; per-pair ordering
    is preserved by deterministic routing.
    """
    sim = MeshSim(cfg, start_cycle)
    by_step: dict[int, list] = {}
    for entry in plan.steps:
        by_step.setdefault(entry.step, []).append(entry)
    steps = sorted(by_step)
    per_core_done: dict[tuple[int, ...], int] = {}
    bytes_hops = 0
    prev_packets: dict[tuple[int, ...], list[Packet]] = {}
    for step in steps:
        # Injection of this step waits for each sender's previous transfers.
        for entry in by_step[step]:
            src_phys = logical_to_physical(arr, entry.src)
            dst_phys = logical_to_physical(arr, entry.dst)
            h = abs(src_phys[0] - dst_phys[0]) + abs(src_phys[1] - dst_phys[1])
            bytes_hops += entry.bytes * h
        # Advance until all previous-step packets touching this step's
        # senders are complete, then inject.
        senders = {e.src for e in by_step[step]}
        def blockers():
            out = []
            for coord in senders:
                for pkt in prev_packets.get(coord, []):
                    if pkt.complete_cycle < 0:
                        out.append(pkt)
            return out
        while blockers():
            sim.tick()
        new_packets: dict[tuple[int, ...], list[Packet]] = dict(prev_packets)
        for entry in by_step[step]:
            src_phys = logical_to_physical(arr, entry.src)
            dst_phys = logical_to_physical(arr, entry.dst)
            pkt = sim.inject(Packet(src_phys, dst_phys, entry.bytes, tag=entry.step))
            new_packets.setdefault(entry.src, []).append(pkt)
            new_packets.setdefault(entry.dst, []).append(pkt)
        prev_packets = new_packets
    makespan = sim.run_until_drained()
    per_core: dict[tuple[int, int], int] = {}
    for pkt in sim.packets.values():
        per_core[pkt.dst] = max(per_core.get(pkt.dst, 0), pkt.complete_cycle)
    return PlanResult(makespan=makespan if plan.steps else start_cycle,
                      bytes_hops=bytes_hops, per_core_completion=per_core)
