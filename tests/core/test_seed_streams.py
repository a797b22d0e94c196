"""Regression tests for seed-stream derivation.

Pre-fix, two stochastic components could end up drawing the *same*
pseudo-random stream: the OLTP evaluator seeded its data generator and
its workload workers from one master value, and ``WorkloadManager``
seeded worker ``i`` with ``seed + i`` -- so worker i of a run seeded S
replayed worker 0 of a run seeded S+i.  Streams are now derived by
name via ``derive_seed``.
"""

from repro.core.datagen import load_sales_database
from repro.core.manager import WorkloadManager
from repro.core.workload import READ_WRITE, SalesWorkload
from repro.sim.rng import RngRegistry, derive_seed


def tiny_db(seed=42):
    db, _data = load_sales_database(row_scale=0.001, seed=seed)
    return db


def key_draws(workload, n=20):
    return [workload._order_keys.next_key() for _ in range(n)]


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a") == derive_seed(42, "a")

    def test_distinct_per_name(self):
        names = [f"stream.{i}" for i in range(50)]
        assert len({derive_seed(42, name) for name in names}) == 50

    def test_distinct_per_master_seed(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_no_additive_aliasing(self):
        """The old scheme: stream i of seed S == stream 0 of seed S+i."""
        for i in range(1, 8):
            assert derive_seed(42, f"worker.{i}") != derive_seed(42 + i, "worker.0")


class TestRngRegistry:
    def test_streams_are_independent_and_stable(self):
        first = RngRegistry(7)
        second = RngRegistry(7)
        assert (
            first.stream("a").random() == second.stream("a").random()
        )
        assert first.stream("a") is first.stream("a")
        assert first.stream("b").random() != second.stream("a").random()

class TestWorkerSeeding:
    def test_workers_draw_distinct_streams(self):
        db = tiny_db()
        manager = WorkloadManager(db, READ_WRITE, concurrency=4)
        draws = [key_draws(worker) for worker in manager.workers]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert draws[i] != draws[j]

    def test_worker_i_is_not_worker_zero_of_a_shifted_seed(self):
        """The regression: under ``seed + worker_id`` seeding, worker 1
        of seed 42 replayed worker 0 of seed 43 draw for draw."""
        db = tiny_db()
        shifted = SalesWorkload(db, READ_WRITE, seed=43)  # worker 0 of seed 43
        base = WorkloadManager(db, READ_WRITE, concurrency=2)  # seed 42
        assert key_draws(base.workers[1]) != key_draws(shifted)

    def test_same_seed_replays_the_same_run(self):
        results = []
        for _ in range(2):
            db = tiny_db()
            manager = WorkloadManager(db, READ_WRITE, concurrency=3)
            result = manager.run_transactions(60)
            results.append((result.counts, result.aborted))
        assert results[0] == results[1]


class TestOltpStreamSeparation:
    def test_datagen_and_workload_streams_differ(self):
        assert derive_seed(42, "oltp.datagen") != derive_seed(42, "oltp.workload")

    def test_datagen_rows_do_not_track_worker_zero(self):
        """Pre-fix the datagen RNG was identical to worker 0's: the rows
        the generator wrote and the keys worker 0 probed were correlated.
        With named streams, reseeding the master changes both, but a
        fixed master keeps them decoupled from each other."""
        db_a = tiny_db(seed=derive_seed(5, "oltp.datagen"))
        db_b = tiny_db(seed=derive_seed(5, "oltp.datagen"))
        rows_a = sorted(row for _rid, row in db_a.table("CUSTOMER").scan())
        rows_b = sorted(row for _rid, row in db_b.table("CUSTOMER").scan())
        assert rows_a == rows_b  # datagen stream is stable...
        worker = SalesWorkload(db_a, READ_WRITE, seed=derive_seed(5, "oltp.workload"))
        # ...and the workload stream is not the datagen stream
        assert worker._rng.random() != RngRegistry(
            derive_seed(5, "oltp.datagen")
        ).stream("datagen").random()
