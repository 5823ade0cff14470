import dataclasses
import random
from importlib import resources

import pytest

from stacksim import cli, nocsim
from stacksim.arch import ArchConfig, ArchError, NocSpec, load_arch
from stacksim.nocsim import MeshSim, Packet, run_plan, zero_load_latency
from stacksim.partition import CoreArray, build_collective

CFG = ArchConfig()  # 4x4 mesh, 128 B links, router delay 2, link delay 1
W = CFG.noc.link_bytes_per_cycle  # bytes per flit


def drain(sim):
    return sim.run_until_drained()


def test_zero_load_formula_examples():
    # 1 hop, 1 flit: 2 routers + 1 link = 2*2 + 1.
    assert zero_load_latency((0, 0), (0, 1), 1, CFG) == 5
    # 6 hops (corner to corner), 4 flits.
    assert zero_load_latency((0, 0), (3, 3), 4, CFG) == 7 * 2 + 6 * 1 + 3
    assert zero_load_latency((2, 2), (2, 2), 9, CFG) == 0
    assert zero_load_latency((0, 0), (1, 1), 0, CFG) == 0


def test_single_packet_matches_zero_load():
    for dst, nbytes in [((0, 1), W), ((3, 3), 4 * W), ((2, 0), 1), ((0, 3), 3 * W - 1)]:
        sim = MeshSim(CFG)
        pkt = sim.inject(Packet((0, 0), dst, nbytes))
        drain(sim)
        flits = pkt.flit_count(W)
        assert pkt.complete_cycle == zero_load_latency((0, 0), dst, flits, CFG)


@pytest.mark.parametrize("config", ["default", "edge"])
def test_neighbour_link_delivers_its_datasheet_bandwidth(config):
    # A long packet between neighbours streams one flit per cycle, so it
    # delivers link_bytes_per_cycle bytes per cycle up to the pipeline fill.
    cfg = load_arch(str(resources.files("stacksim").joinpath(f"configs/{config}.yaml")))
    sim = MeshSim(cfg)
    pkt = sim.inject(Packet((0, 0), (0, 1), 64 * 1024))
    drain(sim)
    ratio = pkt.bytes / pkt.complete_cycle / cfg.noc.link_bytes_per_cycle
    assert ratio == pytest.approx(1.0, rel=0.02)


def test_self_send_and_empty_packet_complete_immediately():
    sim = MeshSim(CFG)
    a = sim.inject(Packet((1, 1), (1, 1), 4096))
    b = sim.inject(Packet((0, 0), (3, 3), 0))
    assert a.complete_cycle == 0 and b.complete_cycle == 0
    assert sim.idle()


def test_inject_rejects_cores_off_the_mesh():
    sim = MeshSim(CFG)
    with pytest.raises(ValueError):
        sim.inject(Packet((0, 0), (0, 4), 64))
    with pytest.raises(ValueError):
        sim.inject(Packet((-1, 0), (0, 0), 64))
    assert sim.idle() and sim.packets == []


def test_flit_conservation():
    sim = MeshSim(CFG)
    pkts = [sim.inject(Packet((m, n), (3 - m, 3 - n), 256))
            for m in range(4) for n in range(4) if (m, n) != (3 - m, 3 - n)]
    drain(sim)
    expected = sum(p.flit_count(W) for p in pkts)
    assert sim.injected_flits == sim.ejected_flits == expected
    assert all(p.complete_cycle >= 0 for p in pkts)


@pytest.mark.parametrize("depth, link_delay", [(2, 3), (4, 4)])
def test_input_queues_never_exceed_their_depth(depth, link_delay):
    # Flits on a link hold credits of the queue they are heading for, so a
    # slow link must not let a queue fill past input_queue_flits.
    cfg = dataclasses.replace(CFG, noc=dataclasses.replace(
        CFG.noc, input_queue_flits=depth, link_delay_cycles=link_delay))
    rng = random.Random(3)
    sim = MeshSim(cfg)
    cores = [(m, n) for m in range(4) for n in range(4)]
    due: dict[int, list[Packet]] = {}  # injection cycle -> packets
    for _ in range(200):
        pkt = Packet(rng.choice(cores), rng.choice(cores), rng.choice([32, 256, 1024]))
        due.setdefault(rng.randrange(0, 300), []).append(pkt)
    fullest = 0
    while due or not sim.idle():
        for pkt in due.pop(sim.now, ()):
            sim.inject(pkt)
        sim.tick()
        fullest = max(fullest, max(len(q) for r in sim.routers for q in r.queues[:4]))
    assert fullest == depth
    assert sim.injected_flits == sim.ejected_flits


def test_contention_delays_second_packet():
    # Two packets fighting for the same output link: one must wait.
    sim = MeshSim(CFG)
    a = sim.inject(Packet((0, 0), (0, 3), 8 * W))
    b = sim.inject(Packet((1, 1), (0, 3), 8 * W))
    drain(sim)
    unloaded = sorted([
        zero_load_latency((0, 0), (0, 3), 8, CFG),
        zero_load_latency((1, 1), (0, 3), 8, CFG),
    ])
    finishes = sorted([a.complete_cycle, b.complete_cycle])
    assert finishes[1] > unloaded[1]


def test_wormhole_keeps_packets_contiguous():
    sim = MeshSim(CFG)
    sim.inject(Packet((0, 0), (0, 2), 4 * W))
    sim.inject(Packet((0, 1), (0, 3), 4 * W))
    drain(sim)
    # All packets arrive intact (tail seen for each).
    assert all(p.complete_cycle >= 0 for p in sim.packets)
    assert sim.injected_flits == sim.ejected_flits


def test_determinism():
    def once():
        sim = MeshSim(CFG)
        for m in range(4):
            for n in range(4):
                sim.inject(Packet((m, n), ((m + 1) % 4, (n + 2) % 4), 512))
        drain(sim)
        return sorted((p.pid, p.complete_cycle) for p in sim.packets)
    assert once() == once()


def test_ring_plan_volume_and_makespan():
    arr = CoreArray((4,), (2, 2))
    plan = build_collective(arr, "ring_reduce_scatter", 4096)
    res = run_plan(plan, arr, CFG)
    # 3 steps x 4 sends x 1 KB chunks; every hop on the 2x2 sub-mesh is 1-2.
    assert res.makespan > 0
    assert res.bytes_hops >= sum(s.bytes for s in plan.steps)
    assert set(res.per_core_completion) <= {(m, n) for m in range(4) for n in range(4)}


def test_plan_step_dependencies_enforced():
    arr = CoreArray((4,), (2, 2))
    plan = build_collective(arr, "all_reduce_1d", 8192)
    single = build_collective(arr, "ring_reduce_scatter", 8192)
    assert run_plan(plan, arr, CFG).makespan > run_plan(single, arr, CFG).makespan


def test_empty_plan():
    arr = CoreArray((4,), (2, 2))
    from stacksim.partition import CommPlan
    res = run_plan(CommPlan(()), arr, CFG)
    assert res.makespan == 0 and res.bytes_hops == 0


def test_wider_links_never_slower():
    arr = CoreArray((16,), (4, 4))
    plan = build_collective(arr, "all_reduce_1d", 16384)
    narrow = dataclasses.replace(
        CFG, noc=dataclasses.replace(CFG.noc, link_bytes_per_cycle=32))
    assert run_plan(plan, arr, CFG).makespan < run_plan(plan, arr, narrow).makespan


def test_run_plan_deterministic():
    arr = CoreArray((16,), (4, 4))
    plan = build_collective(arr, "all_reduce_1d", 4096)
    assert run_plan(plan, arr, CFG) == run_plan(plan, arr, CFG)


def test_mesh_refuses_an_invalid_config_before_ticking(monkeypatch):
    # With no credit on any link the mesh would never drain, so a config
    # built in code must be refused as parse_arch refuses it in a file.
    def tick(self):
        raise AssertionError("ticked an invalid mesh")
    monkeypatch.setattr(MeshSim, "tick", tick)
    cfg = ArchConfig(noc=NocSpec(input_queue_flits=0))
    arr = CoreArray((16,), (4, 4))
    plan = build_collective(arr, "ring_reduce_scatter", 4096)
    with pytest.raises(ArchError, match=r"^noc\.input_queue_flits must be positive \(got 0\)$"):
        run_plan(plan, arr, cfg)


def test_tick_refuses_to_run_past_max_cycles(monkeypatch):
    monkeypatch.setattr(nocsim, "MAX_CYCLES", 3)
    sim = MeshSim(CFG)
    sim.inject(Packet((0, 0), (3, 3), 64 * W))
    for _ in range(4):  # cycles 0..3
        sim.tick()
    with pytest.raises(ValueError, match=r"^NoC simulation reached its limit of 3 cycles "
                                         r"\(nocsim\.MAX_CYCLES\)$"):
        sim.tick()
    assert sim.now == 4 and not sim.idle()


def test_cli_reports_a_mesh_that_reaches_max_cycles(monkeypatch, capsys):
    # run_plan's wait for earlier steps ticks too, so the guard holds there.
    monkeypatch.setattr(nocsim, "MAX_CYCLES", 10)
    assert cli.main(["simulate", "--model", "llama3.2-1b", "--layers", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: NoC simulation reached its limit of 10 cycles (nocsim.MAX_CYCLES)\n"
    assert "Traceback" not in err
