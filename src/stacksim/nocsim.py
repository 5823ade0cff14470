"""Flit-level 2D-mesh network-on-chip with wormhole switching.

XY dimension-order routing (column direction first, then row), credit-based
flow control, per-port input queues of `noc.input_queue_flits` flits, and
deterministic round-robin output arbitration. A flit is one link width,
`noc.link_bytes_per_cycle` bytes, so a link carries one flit per cycle and
a packet of B bytes is ceil(B / link_bytes_per_cycle) flits. A flit that
arrives at a router at cycle t becomes eligible for switch traversal at
t + router_delay and spends link_delay cycles on each link, so an unloaded
packet of F flits from src to dst with h hops completes

    (h + 1) * router_delay + h * link_delay + (F - 1)

cycles after injection. Ejection consumes one flit per cycle per core; a
zero-byte packet and a self-send complete at the injection cycle. A credit
is an input-queue slot, taken when a flit leaves the upstream router, so a
flit on a link already waits in the queue it is heading for and a queue's
length is the number of credits it holds.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .arch import ArchConfig, ArchError, validate
from .partition import CommPlan, CoreArray, logical_to_physical

LOCAL = 4
DIRS = ("N", "E", "S", "W")  # port index 0..3; 4 = local/eject
_OFFS = {"N": (-1, 0), "E": (0, 1), "S": (1, 0), "W": (0, -1)}
# The most cycles one mesh simulation may run. A run that needs more, slow
# or stuck, stops with an error that names this limit.
MAX_CYCLES = 10_000_000


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
    pid: int = -1
    complete_cycle: int = -1

    def flit_count(self, link_bytes: int) -> int:
        return math.ceil(self.bytes / link_bytes) if self.bytes > 0 else 0


class _Flit:
    __slots__ = ("pkt", "seq", "is_tail", "dst", "ready")

    def __init__(self, pkt: Packet, seq: int, is_tail: bool, dst: int, ready: int):
        self.pkt = pkt
        self.seq = seq
        self.is_tail = is_tail
        self.dst = dst      # destination router index
        self.ready = ready  # first cycle it may traverse the current router


def _xy_port(pos: tuple[int, int], dst: tuple[int, int]) -> int:
    """Output port at `pos` toward `dst`: column direction first, then row."""
    m, n = pos
    if n != dst[1]:
        return DIRS.index("E") if dst[1] > n else DIRS.index("W")
    if m != dst[0]:
        return DIRS.index("S") if dst[0] > m else DIRS.index("N")
    return LOCAL


class _Router:
    def __init__(self, pos: tuple[int, int], rows: int, cols: int):
        self.pos = pos
        # Input queues; a flit on the link into a port is already in its queue.
        self.queues: list[deque[_Flit]] = [deque() for _ in range(5)]
        # Wormhole allocation: output port -> (input port, packet) while a
        # packet's worm occupies the crossbar path.
        self.alloc: dict[int, tuple[int, Packet]] = {}
        self.rr: list[int] = [0] * 5  # round-robin pointer per output port
        # Destination router index -> output port.
        self.route = [_xy_port(pos, (m, n)) for m in range(rows) for n in range(cols)]
        # Output port -> (neighbour, its input port) that the port feeds
        # (None at the mesh edge and for LOCAL); filled in by MeshSim.
        self.links: list[tuple[_Router, int] | None] = [None] * 5


class MeshSim:
    """Cycle-stepped mesh simulator; advance with tick() or run to drain."""

    def __init__(self, cfg: ArchConfig):
        problems = validate(cfg)
        if problems:
            raise ArchError(problems[0])
        self.cfg = cfg
        noc = cfg.noc
        self.rows, self.cols = noc.rows, noc.cols
        # Routers in row-major order; a router's index is m * cols + n.
        self.routers = [_Router((m, n), self.rows, self.cols)
                        for m in range(self.rows) for n in range(self.cols)]
        for router in self.routers:
            m, n = router.pos
            for out_port, d in enumerate(DIRS):
                dm, dn = m + _OFFS[d][0], n + _OFFS[d][1]
                if 0 <= dm < self.rows and 0 <= dn < self.cols:
                    # The neighbour receives on the opposite side.
                    router.links[out_port] = \
                        (self.routers[dm * self.cols + dn], (out_port + 2) % 4)
        self.now = 0
        self.packets: list[Packet] = []  # indexed by pid
        self.injected_flits = 0
        self.ejected_flits = 0

    def _index(self, pos: tuple[int, int]) -> int:
        return pos[0] * self.cols + pos[1]

    def inject(self, pkt: Packet) -> Packet:
        """Inject a packet at the current cycle into its source's elastic
        local queue, which models injection stalls instead of backpressure."""
        for m, n in (pkt.src, pkt.dst):
            if not (0 <= m < self.rows and 0 <= n < self.cols):
                raise ValueError(f"core {(m, n)} is outside the "
                                 f"{self.rows}x{self.cols} mesh")
        pkt.pid = len(self.packets)
        self.packets.append(pkt)
        flits = pkt.flit_count(self.cfg.noc.link_bytes_per_cycle)
        if flits == 0 or pkt.src == pkt.dst:
            pkt.complete_cycle = self.now
            return pkt
        dst = self._index(pkt.dst)
        ready = self.now + self.cfg.noc.router_delay_cycles
        self.routers[self._index(pkt.src)].queues[LOCAL].extend(
            _Flit(pkt, s, s == flits - 1, dst, ready) for s in range(flits))
        self.injected_flits += flits
        return pkt

    def tick(self) -> None:
        """Advance one cycle; refuses to run past `MAX_CYCLES`."""
        now = self.now
        if now > MAX_CYCLES:
            raise ValueError(f"NoC simulation reached its limit of {MAX_CYCLES} cycles "
                             "(nocsim.MAX_CYCLES)")
        noc = self.cfg.noc

        # Grant phase: decide all moves from the cycle-start state. Each
        # eligible head flit requests the one output port it routes to;
        # the worm holding that output, or else the head flit nearest the
        # output's round-robin pointer, wins it. A move needs a credit: the
        # neighbour's input queue, which already holds the flits still on
        # the link to it, must hold fewer than input_queue_flits. Moves
        # apply only after every router has decided, so credit checks see
        # cycle-start queue lengths; their order is immaterial, because each
        # input queue, output port and link carries at most one flit per cycle.
        depth = noc.input_queue_flits
        moves = []
        for router in self.routers:
            alloc = router.alloc
            rr = router.rr
            route = router.route
            winners: dict[int, tuple[int, int, _Flit]] = {}  # out -> (rank, in, flit)
            for in_port, queue in enumerate(router.queues):
                if not queue:
                    continue
                flit = queue[0]
                if flit.ready > now:
                    continue
                out_port = route[flit.dst]
                holder = alloc.get(out_port)
                if holder is not None:
                    if holder[0] == in_port and holder[1] is flit.pkt:
                        winners[out_port] = (0, in_port, flit)
                elif not flit.seq:  # a body flit of an unallocated worm waits
                    rank = (in_port - rr[out_port]) % 5
                    best = winners.get(out_port)
                    if best is None or rank < best[0]:
                        winners[out_port] = (rank, in_port, flit)
            for out_port, (_, in_port, flit) in winners.items():
                link = router.links[out_port]
                if link is not None:
                    nb, nb_port = link
                    if len(nb.queues[nb_port]) >= depth:
                        continue  # no credit
                moves.append((router, in_port, out_port, flit))
                if out_port not in alloc:
                    alloc[out_port] = (in_port, flit.pkt)
                    rr[out_port] = (in_port + 1) % 5

        # Traversal phase: a flit leaving on a link joins the neighbour's
        # queue at once and becomes eligible after the link and router delays.
        ready = now + noc.link_delay_cycles + noc.router_delay_cycles
        for router, in_port, out_port, flit in moves:
            router.queues[in_port].popleft()
            if flit.is_tail:
                del router.alloc[out_port]
            if out_port == LOCAL:
                self.ejected_flits += 1
                if flit.is_tail:
                    flit.pkt.complete_cycle = now
            else:
                flit.ready = ready
                nb, nb_port = router.links[out_port]
                nb.queues[nb_port].append(flit)
        self.now = now + 1

    def idle(self) -> bool:
        # Every injected flit is in a queue until it is ejected.
        return self.injected_flits == self.ejected_flits

    def run_until_drained(self) -> int:
        """Tick until idle; returns the last completion cycle."""
        while not self.idle():
            self.tick()
        return max((p.complete_cycle for p in self.packets), default=0)


@dataclass(frozen=True)
class PlanResult:
    makespan: int
    bytes_hops: int
    per_core_completion: dict


def run_plan(plan: CommPlan, arr: CoreArray, cfg: ArchConfig) -> PlanResult:
    """Replay a communication plan on the mesh.

    All sends of step s inject in one cycle, once every packet of an
    earlier step that any sender of step s sent or receives is delivered:
    each sender waits for the other senders' earlier transfers as well as
    its own. Per-pair ordering is preserved by deterministic routing.
    """
    sim = MeshSim(cfg)
    by_step: dict[int, list] = {}
    for entry in plan.steps:
        by_step.setdefault(entry.step, []).append(entry)
    bytes_hops = 0
    touching: dict[tuple[int, ...], list[Packet]] = {}  # core -> packets it sends or receives
    for step in sorted(by_step):
        # Advance until every earlier packet that a sender of this step sent
        # or receives is complete, then inject.
        for coord in {e.src for e in by_step[step]}:
            for pkt in touching.get(coord, ()):
                while pkt.complete_cycle < 0:
                    sim.tick()
        for entry in by_step[step]:
            src_phys = logical_to_physical(arr, entry.src)
            dst_phys = logical_to_physical(arr, entry.dst)
            h = abs(src_phys[0] - dst_phys[0]) + abs(src_phys[1] - dst_phys[1])
            bytes_hops += entry.bytes * h
            pkt = sim.inject(Packet(src_phys, dst_phys, entry.bytes))
            touching.setdefault(entry.src, []).append(pkt)
            touching.setdefault(entry.dst, []).append(pkt)
    makespan = sim.run_until_drained()
    per_core: dict[tuple[int, int], int] = {}
    for pkt in sim.packets:
        per_core[pkt.dst] = max(per_core.get(pkt.dst, 0), pkt.complete_cycle)
    return PlanResult(makespan=makespan, bytes_hops=bytes_hops,
                      per_core_completion=per_core)
