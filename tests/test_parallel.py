import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from openbounded import DataFormatError, parallel
from openbounded.parallel import run_blocks

SRC = Path(__file__).resolve().parents[1] / "src"


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
    def test_lone_block_runs_in_the_caller_without_multiprocessing(self):
        # multiprocessing is loaded in this process already, so a fresh one checks.
        body = ("import json, os, sys\n"
                "from openbounded.parallel import run_blocks\n"
                "results = run_blocks(lambda x: [os.getpid(), x], [(7,)])\n"
                "print(json.dumps([results, os.getpid(), 'multiprocessing' in sys.modules]))")
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-c", body], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        results, caller, loaded = json.loads(done.stdout)
        assert results == [[caller, 7]] and not loaded

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
