"""The latest-distribution freshness claim."""

from repro.core.datagen import load_sales_database
from repro.core.workload import SalesWorkload, TransactionMix


class TestLatestFreshness:
    """Paper §II-B1: 'the more skewed the distribution is, the more
    likely the fresh data is read' -- with latest-k, T2 updates k
    specific items and T3 reads those same items."""

    def overlap(self, distribution: str) -> float:
        db, _ = load_sales_database(row_scale=0.001, seed=11)
        workload = SalesWorkload(
            db, TransactionMix(t2=50, t3=50), distribution=distribution, seed=11
        )
        written, fresh_reads, reads = set(), 0, 0
        for _ in range(400):
            task = workload.next_task()
            if task == "T2":
                outcome = workload.run_t2()
                if outcome:
                    written.add(outcome[0])
            else:
                row = workload.run_t3()
                if row is not None:
                    reads += 1
                    if row[0] in written:
                        fresh_reads += 1
        return fresh_reads / max(1, reads)

    def test_latest_reads_far_fresher_than_uniform(self):
        uniform = self.overlap("uniform")
        latest = self.overlap("latest-10")
        assert latest > 0.7            # nearly every read hits fresh data
        assert latest > 2 * uniform    # decisively fresher than uniform
