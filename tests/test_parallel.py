import multiprocessing
import os
import threading

import pytest

from openbounded import DataFormatError, parallel
from openbounded.parallel import run_blocks


def _square_unless_in_worker(parent, fail, x):
    """``x * x``, after calling ``fail`` in any process but ``parent``."""
    if os.getpid() != parent:
        fail()
    return x * x


class TestUsableCores:
    def test_no_fork_beside_other_threads(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert parallel.usable_cores() == 1
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert parallel.usable_cores() == len(os.sched_getaffinity(0))

    def test_no_fork_in_a_daemonic_worker(self):
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply(parallel.usable_cores) == 1


class TestRunBlocks:
    @pytest.mark.parametrize("n_blocks", [1, 2, 3])
    def test_results_in_block_order(self, n_blocks):
        blocks = [(os.getpid(), lambda: None, x) for x in range(2, 2 + n_blocks)]
        assert run_blocks(_square_unless_in_worker, blocks) == [x * x for _, _, x in blocks]
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("error", [
        MemoryError("Unable to allocate 7.45 GiB"), DataFormatError("line 7 past float range"),
    ], ids=["memory", "data"])
    def test_worker_exception_raised_in_caller(self, error):
        def fail():
            raise error

        with pytest.raises(type(error)) as raised:
            run_blocks(_square_unless_in_worker, [(os.getpid(), fail, x) for x in (2, 3, 4)])
        assert type(raised.value) is type(error) and str(raised.value) == str(error)
        assert not multiprocessing.active_children()

    def test_worker_ending_without_reply_is_computed_by_the_caller(self):
        blocks = [(os.getpid(), lambda: os._exit(1), x) for x in (2, 3, 4)]
        assert run_blocks(_square_unless_in_worker, blocks) == [4, 9, 16]
        assert not multiprocessing.active_children()
