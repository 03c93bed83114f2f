"""Injected chaos must not masquerade as work: a ``DelayFault`` at the
``executor.task`` hook slows the wall clock but is *excluded* from
``thread_busy_s`` and booked under the ``faults.injected_delay_s``
counter instead, keeping fault-injection runs comparable to clean ones.
"""

import contextlib

import numpy as np

from repro.obs import Telemetry
from repro.parallel import (
    BlockTask,
    DescriptorBatch,
    Phase,
    ThreadedPhaseExecutor,
)
from repro.robust import DelayFault, FaultInjector

DELAY = 0.05


def _batch(n_blocks=4, width=8):
    tasks = [BlockTask(i * width, (i + 1) * width, width)
             for i in range(n_blocks)]
    return DescriptorBatch.from_phases([Phase(color=0, tasks=tasks)])


def _run(with_delay):
    y = np.zeros(32)
    batch = _batch()

    def run(g):
        start, stop = int(batch.starts[g]), int(batch.stops[g])
        y[start:stop] = start

    # No active injector at all on the clean run: with nobody listening,
    # fire_timed must not even touch the clock (or the counter).
    inj = (FaultInjector().install("executor.task", DelayFault(DELAY))
           if with_delay else contextlib.nullcontext())
    with Telemetry() as tel, inj, ThreadedPhaseExecutor(n_threads=1) as ex:
        stats = ex.run_batched(batch, run)
    return y, stats, tel


def test_delay_excluded_from_busy_time():
    y_clean, clean, _ = _run(with_delay=False)
    y_chaos, chaos, tel = _run(with_delay=True)

    # Containment: the result is untouched.
    assert np.array_equal(y_chaos, y_clean)

    # One delay per task fired; none of it may count as busy time.
    injected = tel.metrics.counter("faults.injected_delay_s").value
    assert injected >= 4 * DELAY * 0.9
    assert chaos.busy_s < injected
    # Busy time stays in the clean run's ballpark rather than absorbing
    # the ~0.2 s of injected sleep.
    assert chaos.busy_s < clean.busy_s + DELAY


def test_no_delay_counter_on_clean_runs():
    _, _, tel = _run(with_delay=False)
    assert "faults.injected_delay_s" not in (
        tel.metrics.snapshot()["counters"])
