"""Tests for the MPI substrate and coordinated checkpoint/restart."""

import pytest

from repro.apps import NAS_MZ_BENCHMARKS, mz_rank_footprint
from repro.apps.nas_mz import MZJob
from repro.check.oracles import check_all
from repro.mpi import MPIComm, MPIError, mpi_checkpoint, mpi_restart
from repro.snapify import SnapifyError
from repro.testbed import XeonPhiCluster, XeonPhiFleet


def test_comm_tagged_send_recv():
    cluster = XeonPhiCluster(n_nodes=2)
    comm = MPIComm(cluster, 2)
    out = {}

    def rank0(sim):
        yield from comm.send(0, 1, ("halo", 3), 4 * 1024 * 1024, payload="h3")

    def rank1(sim):
        msg = yield comm.recv(1, 0, ("halo", 3))
        out["msg"] = msg

    cluster.sim.spawn(rank0(cluster.sim))
    cluster.sim.spawn(rank1(cluster.sim))
    cluster.sim.run()
    assert out["msg"] == "h3"


def test_comm_duplicate_send_is_harmless():
    cluster = XeonPhiCluster(n_nodes=2)
    comm = MPIComm(cluster, 2)
    out = {}

    def driver(sim):
        yield from comm.send(0, 1, "t", 1024, payload="first")
        msg = yield comm.recv(1, 0, "t")
        out["first"] = msg
        # A restarted rank re-sends the same tag: ignored.
        yield from comm.send(0, 1, "t", 1024, payload="dup")
        yield from comm.send(0, 1, "t2", 1024, payload="next")
        msg = yield comm.recv(1, 0, "t2")
        out["second"] = msg
        return comm.pending_messages()

    t = cluster.sim.spawn(driver(cluster.sim))
    cluster.sim.run_until(t.done)
    assert out == {"first": "first", "second": "next"}
    # Hmm: the duplicate "t" is parked as delivered-but-unconsumed.
    assert t.done.value in (0, 1)


def test_comm_counter_split_conserves_messages():
    """Duplicate re-sends count in ``messages_dropped``, never in
    ``messages_sent`` — so sent == consumed + pending at quiescence."""
    cluster = XeonPhiCluster(n_nodes=2)
    comm = MPIComm(cluster, 2)

    def driver(sim):
        yield from comm.send(0, 1, "t", 1024, payload="first")
        yield from comm.send(0, 1, "t", 1024, payload="dup")  # dropped
        msg = yield comm.recv(1, 0, "t")
        assert msg == "first"
        yield from comm.send(0, 1, "t2", 1024, payload="parked")

    t = cluster.sim.spawn(driver(cluster.sim))
    cluster.sim.run_until(t.done)
    assert comm.messages_sent == 2
    assert comm.messages_dropped == 1
    assert comm.messages_consumed == 1
    assert comm.pending_messages() == 1
    assert comm.messages_sent == comm.messages_consumed + comm.pending_messages()


def test_comm_send_requeues_around_dead_receiver():
    """A recv whose rank died mid-wait leaves an abandoned event; the send
    must park the payload for the next (restarted) receiver instead of
    vanishing it into the dead waiter."""
    cluster = XeonPhiCluster(n_nodes=2)
    comm = MPIComm(cluster, 2)
    out = {}

    def driver(sim):
        orphan = comm.recv(1, 0, "t")  # the rank dies before waiting
        assert orphan.abandoned
        yield from comm.send(0, 1, "t", 1024, payload="p")
        assert not orphan.triggered  # NOT handed to the dead waiter
        assert comm.pending_messages() == 1
        out["msg"] = yield comm.recv(1, 0, "t")

    t = cluster.sim.spawn(driver(cluster.sim))
    cluster.sim.run_until(t.done)
    assert out["msg"] == "p"
    assert comm.messages_sent == comm.messages_consumed == 1
    assert comm.messages_dropped == 0


def test_comm_rank_validation():
    cluster = XeonPhiCluster(n_nodes=2)
    comm = MPIComm(cluster, 2)
    with pytest.raises(MPIError):
        comm.recv(0, 5, "x")
    with pytest.raises(MPIError):
        MPIComm(cluster, 3)


def test_rank_footprint_shrinks_with_ranks():
    profile = NAS_MZ_BENCHMARKS["LU-MZ"]
    sizes = [sum(mz_rank_footprint(profile, n)) for n in (1, 2, 4)]
    assert sizes[0] > sizes[1] > sizes[2]


@pytest.mark.parametrize("n_ranks", [1, 2])
def test_mz_job_runs_to_completion(n_ranks):
    cluster = XeonPhiCluster(n_nodes=max(2, n_ranks))
    job = MZJob(cluster, NAS_MZ_BENCHMARKS["SP-MZ"], n_ranks, iterations=6)

    def driver(sim):
        yield from job.launch()
        yield from job.join()

    cluster.run(driver(cluster.sim))
    assert job.verify()


def test_mpi_checkpoint_and_continue():
    cluster = XeonPhiCluster(n_nodes=2)
    job = MZJob(cluster, NAS_MZ_BENCHMARKS["BT-MZ"], 2, iterations=8)
    out = {}

    def driver(sim):
        yield from job.launch()
        yield sim.timeout(0.5)
        report = yield from mpi_checkpoint(job, "/snap/mpi1")
        out["report"] = report
        yield from job.join()

    cluster.run(driver(cluster.sim))
    assert job.verify()
    report = out["report"]
    assert report["elapsed"] > 0
    assert set(report["rank_snapshot_bytes"]) == {0, 1}
    assert all(v > 0 for v in report["rank_snapshot_bytes"].values())


def test_mpi_full_failure_restart():
    cluster = XeonPhiCluster(n_nodes=2)
    job = MZJob(cluster, NAS_MZ_BENCHMARKS["LU-MZ"], 2, iterations=8)

    def driver(sim):
        yield from job.launch()
        yield sim.timeout(0.5)
        yield from mpi_checkpoint(job, "/snap/mpi2")
        yield sim.timeout(0.2)
        # Catastrophic failure: every rank dies.
        for rank in job.ranks:
            rank.host_proc.terminate(code=1)
        yield sim.timeout(0.05)
        yield from mpi_restart(job, "/snap/mpi2")
        yield from job.join()

    cluster.run(driver(cluster.sim))
    assert job.verify()


def test_mpi_restart_after_a_kill_mid_halo_exchange():
    """Ranks killed while their halos are on the wire leave each sender
    one message ahead of its receiver. The restart rolls the team
    communicator back, so the re-sent halos pair up instead of waiting on
    sequence numbers the dead incarnation used."""
    cluster = XeonPhiCluster(n_nodes=2)
    job = MZJob(cluster, NAS_MZ_BENCHMARKS["SP-MZ"], 2, iterations=40)
    out = {}

    def driver(sim):
        yield from job.launch()
        yield sim.timeout(0.5)
        yield from mpi_checkpoint(job, "/snap/halo")
        store = job.ranks[0].host_proc.store
        ckpt_iter = store["iter"]
        while store["iter"] == ckpt_iter:
            yield sim.timeout(1e-5)
        # The next iteration's halos have left but not yet landed.
        out["in_flight"] = job.comm.copies_sent == 2 * store["iter"]
        for rank in job.ranks:
            rank.host_proc.terminate(code=1)
        yield sim.timeout(0.05)
        yield from mpi_restart(job, "/snap/halo")
        yield from job.join()

    cluster.run(driver(cluster.sim))
    cluster.sim.run(check_deadlock=True)
    assert out["in_flight"]
    assert job.verify()
    assert [v for server in cluster.servers for v in check_all(server)] == []


def test_mpi_checkpoint_refuses_a_replicated_job_without_parking_it():
    """Replicas of one rank are not in lockstep and would share one
    snapshot path, so a coordinated checkpoint of an R=2 job is refused up
    front. The job never parks: it runs on, joins and verifies."""
    fleet = XeonPhiFleet("rack8")
    job = MZJob(fleet, NAS_MZ_BENCHMARKS["SP-MZ"], 2, n_replicas=2,
                iterations=12)
    out = {}

    def driver(sim):
        yield from job.launch()
        yield sim.timeout(0.5)
        with pytest.raises(SnapifyError, match="replicas per rank"):
            yield from mpi_checkpoint(job, "/snap/replicated")
        out["parked"] = (job.park_requested, job.parked)
        yield from job.join()

    fleet.run(driver(fleet.sim))
    fleet.sim.run(check_deadlock=True)
    assert out["parked"] == (False, 0)
    assert job.verify()
    assert [v for server in fleet.servers for v in check_all(server)] == []


def test_mpi_checkpoint_time_decreases_with_ranks():
    """Fig. 11's headline trend: more ranks -> smaller per-rank snapshots ->
    faster coordinated checkpoints."""
    times = {}
    for n in (1, 2, 4):
        cluster = XeonPhiCluster(n_nodes=4)
        job = MZJob(cluster, NAS_MZ_BENCHMARKS["LU-MZ"], n, iterations=30)
        out = {}

        def driver(sim):
            yield from job.launch()
            yield sim.timeout(0.5)
            report = yield from mpi_checkpoint(job, f"/snap/sweep{n}")
            out["elapsed"] = report["elapsed"]
            # Don't run to completion; just drain the resume.
            yield sim.timeout(0.5)

        cluster.run(driver(cluster.sim))
        times[n] = out["elapsed"]
    assert times[1] > times[2] > times[4]


#: Fig. 11 (``benchmarks/test_fig11_mpi_cr.py``): checkpoint elapsed,
#: restart elapsed and rank-0 snapshot bytes per (benchmark, ranks).
FIG11 = {
    ("LU-MZ", 1): (5.666672277759596, 1.6794300971378533, 1375768576),
    ("LU-MZ", 2): (3.1324054696545676, 1.0796327475523082, 746622976),
    ("LU-MZ", 4): (1.852640682789553, 0.7798890536556184, 432050176),
    ("SP-MZ", 1): (3.952567280410179, 1.443920538599195, 1050710016),
    ("SP-MZ", 2): (2.2510894080963495, 0.9600215440843414, 578850816),
    ("SP-MZ", 4): (1.3728053816479893, 0.7180945563789072, 342921216),
    ("BT-MZ", 1): (4.525348575845391, 1.5239864585878546, 1160810496),
    ("BT-MZ", 2): (2.5668487933753164, 1.0014096599454048, 636522496),
    ("BT-MZ", 4): (1.5565604921873777, 0.7401437701762417, 374378496),
}


def _fig11_run(bench, n, iterations, join):
    """Fig. 11's schedule: checkpoint 1 s after launch, kill every rank
    0.2 s later, drop the page caches and restart; then, if ``join``,
    run the job to its end."""
    cluster = XeonPhiCluster(n_nodes=4)
    job = MZJob(cluster, NAS_MZ_BENCHMARKS[bench], n, iterations=iterations)
    out = {}

    def driver(sim):
        yield from job.launch()
        yield sim.timeout(1.0)
        out["ckpt"] = yield from mpi_checkpoint(job, f"/snap/{bench}")
        yield sim.timeout(0.2)
        for rank in job.ranks:
            rank.host_proc.terminate(code=1)
        yield sim.timeout(0.05)
        for server in cluster.servers[:n]:
            server.host_os.fs.drop_caches()
        out["restart"] = yield from mpi_restart(job, f"/snap/{bench}")
        if join:
            yield from job.join()

    cluster.run(driver(cluster.sim))
    return cluster, job, out


@pytest.mark.parametrize("bench,n", list(FIG11))
def test_fig11_numbers_are_pinned(bench, n):
    _, _, out = _fig11_run(bench, n, 4000, join=False)
    ckpt, restart = out["ckpt"], out["restart"]
    assert (ckpt["elapsed"], restart["elapsed"],
            ckpt["rank_snapshot_bytes"][0]) == FIG11[(bench, n)]


@pytest.mark.parametrize("bench,n", list(FIG11))
def test_fig11_flow_passes_every_oracle(bench, n):
    cluster, job, _ = _fig11_run(bench, n, 200, join=True)
    cluster.sim.run(check_deadlock=True)
    assert job.verify()
    assert [v for server in cluster.servers for v in check_all(server)] == []
