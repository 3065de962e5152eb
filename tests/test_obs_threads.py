"""Thread-safety: concurrent metric increments and flight-recorder writes.

Eight threads hammer the same counter, histogram and flight recorder;
the assertions prove no increment is lost and the ring's seq stamps
stay a contiguous, strictly increasing tail under contention.
"""

import sys
import threading

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder

N_THREADS = 8
PER_THREAD = 400


@pytest.fixture
def obs_on():
    was = obs.enabled()
    obs.set_enabled(True)
    obs.reset()
    yield
    obs.reset()
    obs.set_enabled(was)


def run_threads(target):
    barrier = threading.Barrier(N_THREADS)  # maximise overlap

    def runner(tid):
        barrier.wait()
        target(tid)

    threads = [
        threading.Thread(target=runner, args=(t,)) for t in range(N_THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestMetricsUnderContention:
    def test_counter_loses_no_increments(self, obs_on):
        registry = MetricsRegistry()
        counter = registry.counter("t_threads_total")

        def work(tid):
            for _ in range(PER_THREAD):
                counter.inc()

        run_threads(work)
        assert counter.total() == N_THREADS * PER_THREAD

    def test_labeled_series_stay_separate(self, obs_on):
        registry = MetricsRegistry()
        counter = registry.counter("t_threads_labeled_total")

        def work(tid):
            for _ in range(PER_THREAD):
                counter.inc(worker=str(tid))

        run_threads(work)
        for tid in range(N_THREADS):
            assert counter.value(worker=str(tid)) == PER_THREAD
        assert counter.total() == N_THREADS * PER_THREAD

    def test_histogram_counts_every_observation(self, obs_on):
        registry = MetricsRegistry()
        hist = registry.histogram("t_threads_seconds", buckets=(0.5, 1.0))

        def work(tid):
            for i in range(PER_THREAD):
                hist.observe(0.25 if i % 2 else 0.75)

        run_threads(work)
        ((_, series),) = hist.series()
        assert series.count == N_THREADS * PER_THREAD
        assert sum(series.counts) == N_THREADS * PER_THREAD


class TestFlightRecorderUnderContention:
    def test_no_event_lost_and_seq_contiguous(self):
        capacity = 256
        rec = FlightRecorder(capacity=capacity)
        total = N_THREADS * PER_THREAD

        def work(tid):
            for i in range(PER_THREAD):
                rec.record({"event": f"t{tid}.{i}"})

        run_threads(work)
        assert rec.total_recorded == total
        assert len(rec) == capacity
        assert rec.dropped == total - capacity
        seqs = [e["seq"] for e in rec.events()]
        # The retained window is exactly the last `capacity` stamps, in
        # order: strictly increasing AND gap-free.
        assert seqs == list(range(total - capacity + 1, total + 1))

    def test_metrics_and_recorder_together(self, obs_on):
        registry = MetricsRegistry()
        counter = registry.counter("t_threads_mixed_total")
        rec = FlightRecorder(capacity=64)

        def work(tid):
            for i in range(PER_THREAD):
                counter.inc(worker=str(tid))
                rec.record({"event": "tick", "worker": tid})

        run_threads(work)
        assert counter.total() == N_THREADS * PER_THREAD
        assert rec.total_recorded == N_THREADS * PER_THREAD
        seqs = [e["seq"] for e in rec.events()]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)


class TestLoggingUnderContention:
    def test_concurrent_logging_reaches_sink_and_flight(self, obs_on):
        from repro.obs import logging as olog

        olog.reset_logging()
        records = []
        lock = threading.Lock()

        def sink(record):
            with lock:
                records.append(record)

        olog.add_log_sink(sink)
        log = olog.get_logger("t.threads")
        try:
            def work(tid):
                for i in range(100):
                    log.info("tick", worker=tid, i=i)

            run_threads(work)
        finally:
            olog.remove_log_sink(sink)
        assert len(records) == N_THREADS * 100
        assert obs.get_flight_recorder().total_recorded == N_THREADS * 100


@pytest.fixture
def short_switch():
    """Switch threads every microsecond so a lost update would show."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


class TestPerThreadCells:
    """Counters and histograms record into per-thread cells, unlocked;
    every read merges the cells, so sums stay exact."""

    N = 10_000

    def test_sums_are_exact_across_eight_threads(self, obs_on, short_switch):
        registry = MetricsRegistry()
        counter = registry.counter("t_cells_total")
        hist = registry.histogram("t_cells_seconds", buckets=(0.5, 1.0))

        def work(tid):
            worker = str(tid % 2)
            for i in range(self.N):
                counter.inc()
                counter.inc(2, worker=worker)
                hist.observe(0.25 if i % 2 else 0.75, worker=worker)

        run_threads(work)
        per_worker = N_THREADS // 2 * self.N
        assert counter.value() == N_THREADS * self.N
        assert counter.value(worker="0") == counter.value(worker="1") == 2 * per_worker
        assert counter.total() == 3 * N_THREADS * self.N
        assert hist.count_of(worker="0") == hist.count_of(worker="1") == per_worker
        assert hist.sum_of(worker="0") == per_worker // 2 * (0.25 + 0.75)
        snap = {m["name"]: m for m in registry.snapshot()["metrics"]}
        values = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in snap["t_cells_total"]["series"]
        }
        assert values == {
            (): N_THREADS * self.N,
            (("worker", "0"),): 2 * per_worker,
            (("worker", "1"),): 2 * per_worker,
        }
        for series in snap["t_cells_seconds"]["series"]:
            assert series["counts"] == [per_worker // 2, per_worker // 2, 0]
            assert series["count"] == per_worker

    def test_reads_racing_writes_never_raise(self, obs_on, short_switch):
        registry = MetricsRegistry()
        counter = registry.counter("t_cells_racing_total")
        hist = registry.histogram("t_cells_racing_seconds")
        stop = threading.Event()
        reads = []

        def reader():
            while not stop.is_set():
                snap = registry.snapshot()
                for metric in snap["metrics"]:
                    if metric["kind"] == "histogram":
                        for series in metric["series"]:
                            assert series["count"] == sum(series["counts"])
                reads.append(counter.total())

        watcher = threading.Thread(target=reader)
        watcher.start()
        try:
            def work(tid):
                for i in range(2000):
                    counter.inc(worker=str(i % 7))
                    hist.observe(i / 1000.0, worker=str(tid))

            run_threads(work)
        finally:
            stop.set()
            watcher.join()
        assert reads and reads == sorted(reads)  # monotone while merging
        assert counter.total() == N_THREADS * 2000
        assert sum(hist.count_of(worker=str(t)) for t in range(N_THREADS)) == (
            N_THREADS * 2000
        )

    def test_reset_from_another_thread_zeroes_every_cell(self, obs_on):
        from repro.obs import metrics as obs_metrics

        counter = obs_metrics.counter("t_cells_reset_total")
        hist = obs_metrics.histogram("t_cells_reset_seconds")
        recorded = threading.Barrier(N_THREADS + 1)
        was_reset = threading.Barrier(N_THREADS + 1)

        def work(tid):
            for _ in range(100):
                counter.inc(worker=str(tid))
                hist.observe(0.001)
            recorded.wait()
            was_reset.wait()  # still alive: the next write reuses the thread
            counter.inc(worker=str(tid))
            hist.observe(0.001)

        threads = [
            threading.Thread(target=work, args=(t,)) for t in range(N_THREADS)
        ]
        for t in threads:
            t.start()
        recorded.wait()
        assert counter.total() == N_THREADS * 100
        resetter = threading.Thread(target=obs.reset)
        resetter.start()
        resetter.join()
        assert counter.total() == 0 and hist.count_of() == 0
        assert counter.series() == [] and hist.series() == []
        was_reset.wait()
        for t in threads:
            t.join()
        assert counter.total() == N_THREADS
        assert all(counter.value(worker=str(t)) == 1 for t in range(N_THREADS))
        assert hist.count_of() == N_THREADS

    def test_exited_threads_fold_into_the_merged_series(self, obs_on):
        registry = MetricsRegistry()
        counter = registry.counter("t_cells_churn_total")
        hist = registry.histogram("t_cells_churn_seconds")

        def once():
            counter.inc(kind="short")
            hist.observe(0.01)

        for _ in range(50):  # 500 short-lived threads, 10 at a time
            batch = [threading.Thread(target=once) for _ in range(10)]
            for t in batch:
                t.start()
            for t in batch:
                t.join()
            # registration folds exited threads: cells never pile up
            assert len(counter._cells) <= 20
        assert counter.value(kind="short") == 500
        assert hist.count_of() == 500
        live = {t.ident for t in threading.enumerate()}
        for metric in (counter, hist):
            assert set(metric._cells) <= live
        assert counter._series == {(("kind", "short"),): 500}
