"""End-to-end tests of incremental checkpoints and the in-memory tier.

Covers the chain format (base + deltas reassemble byte-equal to a full
capture; CRC tamper and epoch gaps fail loudly), the three restore paths
(memory-tier hit, partner copy after local loss, NFS-demoted chain), the
fleet plumbing (BACKGROUND demotion tickets, re-home after a health sweep
flags a card), the delta statistics on :class:`OperationResult`, and smoke
runs of the ``incremental:*`` fuzz scenarios.
"""

import pytest

from repro.blcr import ChainError, capture_incremental, reassemble
from repro.calibration import paper_testbed
from repro.coi import OffloadBinary, OffloadFunction
from repro.hw import MB
from repro.obs.registry import MetricsRegistry
from repro.snapify import (
    BACKGROUND,
    MAINTENANCE,
    CardRef,
    FleetManager,
    snapify_restore,
    snapify_resume,
    snapify_t,
)
from repro.snapify.fleet import DONE, CardHealth, HealthReport
from repro.snapify.ops import capture_sequence
from repro.snapify_io.memtier import TIER_CATEGORY, MemoryTier, chain_path
from repro.testbed import XeonPhiFleet, XeonPhiServer


def accumulate_effect(ctx, args):
    data = ctx.buffer_payload(args["buf"]) or 0
    ctx.store["acc"] = ctx.store.get("acc", 0) + data
    return ctx.store["acc"]


def make_binary():
    return OffloadBinary(
        name="inc_test.so",
        image_size=8 * MB,
        functions={
            "step": OffloadFunction("step", duration=0.05, effect=accumulate_effect),
        },
    )


def launch(server, buffer_mb=16):
    out = {}

    def setup(sim):
        host_proc = yield from server.host_os.spawn_process("app", image_size=4 * MB)
        coiproc = yield from server.engine(0).process_create(host_proc, make_binary())
        buf = yield from coiproc.buffer_create(buffer_mb * MB)
        yield from coiproc.buffer_write(buf, payload=7)
        out["host_proc"], out["coiproc"], out["buf"] = host_proc, coiproc, buf

    server.run(setup(server.sim))
    MemoryTier.of(server.sim).register_server(server)
    return out


def dirty_some_pages(proc, epoch):
    """Write ~4% of every region at an epoch-walking offset."""
    for region in proc.regions.values():
        span = max(1, region.size // 25)
        offset = (epoch * 7919 * 4096) % max(1, region.size - span)
        region.write(offset, span)


def counters(sim):
    return MetricsRegistry.of(sim).snapshot()["counters"]


# ---------------------------------------------------------------------------
# Chain format
# ---------------------------------------------------------------------------


def test_chain_reassembles_equal_to_full_capture():
    """Base + deltas must reproduce exactly what a full capture at the same
    epoch would record — reassemble's fingerprint verification is against
    the live state hashed at the last capture."""
    server = XeonPhiServer()
    env = launch(server)
    proc = env["coiproc"].offload_proc
    images = []
    for epoch in range(4):
        images.append(capture_incremental(proc, "/t/chain"))
        dirty_some_pages(proc, epoch)
        proc.store["iter"] = epoch
    # The writes after the last capture must NOT leak into the chain.
    ctx = reassemble(images[:1], verify=True)
    assert ctx.nthreads >= 1
    ctx = reassemble(images, verify=True)
    assert ctx.store.get("iter") == 2  # state as of the epoch-3 capture
    assert images[0].kind == "base"
    assert all(img.kind == "delta" for img in images[1:])
    # Deltas ship a fraction of the logical image.
    for img in images[1:]:
        assert 0 < img.delta_bytes < img.logical_bytes


def test_crc_tamper_and_epoch_gap_fail_loudly():
    server = XeonPhiServer()
    env = launch(server)
    proc = env["coiproc"].offload_proc
    images = []
    for epoch in range(3):
        images.append(capture_incremental(proc, "/t/tamper"))
        dirty_some_pages(proc, epoch)
    # Bit-flip one link's stored CRC.
    images[1].crc ^= 0x1
    with pytest.raises(ChainError, match="CRC mismatch"):
        reassemble(images, verify=True)
    images[1].crc ^= 0x1
    # Payload tamper after seal: CRC recomputation diverges.
    images[1].store["evil"] = True
    with pytest.raises(ChainError, match="CRC mismatch"):
        reassemble(images, verify=True)
    del images[1].store["evil"]
    # Missing middle link: epoch continuity is enforced.
    with pytest.raises(ChainError, match="epoch gap"):
        reassemble([images[0], images[2]], verify=True)
    # A chain must start with its base.
    with pytest.raises(ChainError, match="base"):
        reassemble(images[1:], verify=True)
    # Intact chain still reassembles after the round-trip of tampering.
    reassemble(images, verify=True)


def test_missed_write_diverges_fingerprint():
    """A write that escapes the dirty bitmap leaves a stale page version
    behind — reassembly must refuse to restore silently-wrong state."""
    server = XeonPhiServer()
    env = launch(server)
    proc = env["coiproc"].offload_proc
    images = [capture_incremental(proc, "/t/missed")]
    dirty_some_pages(proc, 0)
    # Sneak a write past the tracker (version bumps, bitmap stays clean —
    # as if the write hook was bypassed): pick a page the delta won't ship.
    region = max(proc.regions.values(), key=lambda r: r.size)
    missed = region.tracker.bitmap.n_pages - 1
    assert not region.tracker.bitmap.is_dirty(missed)
    region.tracker.page_versions[missed] = (
        region.tracker.page_versions.get(missed, 0) + 1
    )
    images.append(capture_incremental(proc, "/t/missed"))
    with pytest.raises(ChainError, match="diverges"):
        reassemble(images, verify=True)


# ---------------------------------------------------------------------------
# Capture protocol: OperationResult delta statistics
# ---------------------------------------------------------------------------


def test_incremental_capture_reports_delta_stats():
    server = XeonPhiServer()
    env = launch(server)
    coiproc = env["coiproc"]
    results = []

    def driver(sim):
        snap = snapify_t("/snap/inc1", coiproc=coiproc, incremental=True)
        for epoch in range(2):
            results.append((yield from capture_sequence(snap)))
            dirty_some_pages(coiproc.offload_proc, epoch)
        return snap

    snap = server.run(driver(server.sim))
    base, delta = results
    assert base.incremental and delta.incremental
    assert base.tier == "memtier" and delta.tier == "memtier"
    # Epoch 0 ships the full image; epoch 1 ships only dirty pages.
    assert base.delta_bytes == base.logical_bytes
    assert 0 < delta.delta_bytes < delta.logical_bytes
    assert delta.shipped_bytes == delta.delta_bytes
    # The logical size keeps reporting the full image (trace/top consumers
    # must use shipped_bytes for transfer math).
    assert snap.sizes["offload_snapshot"] == delta.logical_bytes
    assert snap.sizes["offload_delta"] == delta.delta_bytes
    assert "capturing_delta" in delta.phases
    assert "replicating" in delta.phases
    # Both links landed in the tier, replicated to the partner card.
    entry = MemoryTier.of(server.sim).lookup("/snap/inc1")
    assert len(entry.links) == 2
    assert all(link.replicated for link in entry.links)
    assert all(
        any(c.role == "partner" and c.intact for c in link.copies)
        for link in entry.links
    )


def test_noninc_capture_has_no_delta_stats():
    server = XeonPhiServer()
    env = launch(server)
    coiproc = env["coiproc"]

    def driver(sim):
        snap = snapify_t("/snap/classic", coiproc=coiproc)
        return (yield from capture_sequence(snap))

    result = server.run(driver(server.sim))
    assert not result.incremental
    assert result.delta_bytes is None and result.logical_bytes is None
    assert result.tier is None
    assert result.shipped_bytes == result.sizes["offload_snapshot"] > 0


# ---------------------------------------------------------------------------
# Restore paths
# ---------------------------------------------------------------------------


def _capture_epochs(server, env, path, n=3):
    """Run n incremental capture epochs, terminating the proc on the last
    (swap-out style), advancing app state between epochs. Returns the snap."""
    coiproc = env["coiproc"]

    def driver(sim):
        snap = snapify_t(path, coiproc=coiproc, incremental=True)
        for epoch in range(n):
            seq = yield from coiproc.start_function("step", {"buf": env["buf"].buf_id})
            yield coiproc.wait_result(seq)
            yield from capture_sequence(snap, terminate=(epoch == n - 1))
            dirty_some_pages(coiproc.offload_proc, epoch)
        return snap

    return server.run(driver(server.sim))


def test_restore_from_memory_tier_hit():
    server = XeonPhiServer()
    env = launch(server)
    snap = _capture_epochs(server, env, "/snap/tier_hit")

    def restore(sim):
        new = yield from snapify_restore(snap, server.engine(0), env["host_proc"])
        yield from snapify_resume(snap)
        return new

    new = server.run(restore(server.sim))
    assert new.offload_proc.alive
    # Three "step" calls ran before the final capture: acc == 7 * 3.
    assert new.offload_proc.store.get("acc") == 21
    c = counters(server.sim)
    assert c.get("memtier.hits.local", 0) >= 3  # every link served in place
    assert c.get("memtier.hits.nfs", 0) == 0


def test_restore_from_partner_after_local_loss():
    """Kill the capture card after the chain is replicated: every link must
    be served from partner copies on the surviving cards."""
    server = XeonPhiServer(params=paper_testbed(phis_per_node=3))
    env = launch(server)
    snap = _capture_epochs(server, env, "/snap/partner")
    # The capture card (and every local copy) is gone.
    server.node.phis[0].failed = True

    def restore(sim):
        new = yield from snapify_restore(snap, server.engine(2), env["host_proc"])
        yield from snapify_resume(snap)
        return new

    new = server.run(restore(server.sim))
    assert new.offload_proc.alive
    assert new.offload_proc.store.get("acc") == 21
    assert new.offload_proc.os is server.phi_os(2)
    c = counters(server.sim)
    assert c.get("memtier.hits.partner", 0) >= 1
    # The dead card's copies are recorded as lost, not still counted.
    entry = MemoryTier.of(server.sim).lookup("/snap/partner")
    assert all(
        not c_.intact for link in entry.links for c_ in link.copies
        if c_.home == "n0.mic0"
    )


def test_restore_from_nfs_demoted_chain():
    """With every memory copy released, restore falls back to the demoted
    chain file on the host export — same app state, one more hop."""
    server = XeonPhiServer()
    env = launch(server)
    snap = _capture_epochs(server, env, "/snap/demoted")
    tier = MemoryTier.of(server.sim)

    def demote(sim):
        total = yield from tier.demote("/snap/demoted", server.host_os, release=True)
        return total

    total = server.run(demote(server.sim))
    entry = tier.lookup("/snap/demoted")
    assert entry.demoted
    assert total == sum(link.image.delta_bytes for link in entry.links)
    assert server.host_os.fs.exists(chain_path("/snap/demoted"))
    # Releasing freed every tier byte on every card.
    for phi in server.node.phis:
        assert phi.memory.by_category.get(TIER_CATEGORY, 0) == 0

    def restore(sim):
        new = yield from snapify_restore(snap, server.engine(1), env["host_proc"])
        yield from snapify_resume(snap)
        return new

    new = server.run(restore(server.sim))
    assert new.offload_proc.alive
    assert new.offload_proc.store.get("acc") == 21
    assert counters(server.sim).get("memtier.hits.nfs", 0) >= 1


@pytest.mark.parametrize("incremental", [False, True])
def test_restores_hop_across_every_card(incremental):
    """A process swapped out and restored onto mic1, mic2, mic0 twice over
    keeps a usable buffer handle: RDMA offsets are unique per simulator, so
    the (old, new) address table never chains back into a cycle."""
    from repro.check import check_all

    server = XeonPhiServer(params=paper_testbed(phis_per_node=3))
    env = launch(server)
    buf = env["buf"]

    def driver(sim):
        coiproc, acc = env["coiproc"], 0
        for hop, card in enumerate((1, 2, 0, 1, 2, 0)):
            snap = snapify_t(f"/snap/hop{hop}", coiproc=coiproc, incremental=incremental)
            yield from capture_sequence(snap, terminate=True)
            coiproc = yield from snapify_restore(snap, server.engine(card), env["host_proc"])
            yield from snapify_resume(snap)
            assert coiproc.offload_proc.os is server.phi_os(card)
            yield from coiproc.buffer_write(buf, payload=hop + 1)
            acc += hop + 1
            assert (yield from coiproc.run_function("step", {"buf": buf.buf_id})) == acc
        return coiproc

    server.run(driver(server.sim))
    assert check_all(server) == []


# ---------------------------------------------------------------------------
# Fleet plumbing: demotion tickets and health-sweep re-homing
# ---------------------------------------------------------------------------


def test_demotion_ticket_runs_at_background_priority():
    server = XeonPhiServer()
    env = launch(server)
    _capture_epochs(server, env, "/snap/bgdemote", n=2)
    manager = FleetManager(sim=server.sim, name="tiermgr")
    ticket = manager.submit_demotion("demote:bg", "/snap/bgdemote", server.host_os)
    assert ticket.priority == BACKGROUND

    def drive(sim):
        result = yield from manager.collect([ticket])
        return result

    result = server.run(drive(server.sim))
    t = result.tickets["demote:bg"]
    assert t.state == DONE
    entry = MemoryTier.of(server.sim).lookup("/snap/bgdemote")
    assert entry.demoted
    # Demotion without release keeps the fast copies resident.
    assert any(c.intact for link in entry.links for c in link.copies)
    chain_file = chain_path("/snap/bgdemote")
    assert server.host_os.fs.stat(chain_file).size == sum(
        link.image.delta_bytes for link in entry.links
    )


def test_rehome_moves_copies_off_sweep_flagged_card():
    """A health sweep flagging a (still alive) card must trigger MAINTENANCE
    re-home tickets that move every tier copy off it."""
    fleet = XeonPhiFleet("dev2")
    server = fleet.servers[0]
    env = launch(server)
    _capture_epochs(server, env, "/fleet/rehome", n=2)
    manager = FleetManager(fleet)
    tier = manager.memory_tier()
    entry = tier.lookup("/fleet/rehome")
    assert any(
        c.intact and c.home == "n0.mic0"
        for link in entry.links for c in link.copies
    )
    report = HealthReport(
        [CardHealth(card="n0.mic0", ok=False, latency=None, error="straggling"),
         CardHealth(card="n0.mic1", ok=True, latency=0.001)],
        when=server.sim.now,
    )
    tickets = manager.rehome_after_sweep(report)
    assert len(tickets) == 1
    assert tickets[0].priority == MAINTENANCE

    def drive(sim):
        result = yield from manager.collect(tickets)
        return result

    result = server.run(drive(server.sim))
    t = result.tickets["rehome:n0.mic0"]
    assert t.state == DONE
    assert t.result == 2  # both links' copies moved
    # Nothing intact remains on the flagged card; the chain survives whole.
    assert not any(
        c.intact and c.home == "n0.mic0"
        for link in entry.links for c in link.copies
    )
    assert all(link.intact_copies() for link in entry.links)
    reassemble(entry.images, verify=True)


def test_partner_for_skips_unhealthy_cards():
    fleet = XeonPhiFleet("dev2")
    manager = FleetManager(fleet)
    card0 = CardRef(node=0, device=0)
    assert manager.partner_for(card0) == "n0.mic1"
    fleet.phi(CardRef(node=0, device=1)).failed = True
    assert manager.partner_for(card0) is None
    fleet.phi(CardRef(node=0, device=1)).failed = False
    assert manager.partner_for(card0) == "n0.mic1"


# ---------------------------------------------------------------------------
# Fuzz scenario smoke
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["delta_chain", "partner_loss", "demotion_race"])
def test_incremental_scenarios_smoke(mode):
    from repro.check.fuzz import default_faults
    from repro.check.scenarios import run_scenario

    name = f"incremental:{mode}"
    for seed in (0, 1):
        result = run_scenario(name, seed=seed, faults=default_faults(name, seed))
        assert result.ok, result.summary()


def test_scenario_names_include_incremental():
    from repro.check.scenarios import scenario_names

    names = scenario_names()
    for mode in ("delta_chain", "partner_loss", "demotion_race"):
        assert f"incremental:{mode}" in names
