"""Work split into contiguous blocks, the later blocks computed by forked workers.

The power sweep and the event-log reader hand every job to ``run_blocks``,
one block per usable core when it is large and one block otherwise. A lone
block runs in the caller, so only a job of several loads ``multiprocessing``.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
from typing import Callable, Sequence, TypeVar

Result = TypeVar("Result")


def usable_cores() -> int:
    """Cores this process may run forked workers on.

    1 where the platform cannot tell or cannot fork, in a process running
    other threads (a fork copies them mid-step), and in a daemonic
    ``multiprocessing`` worker, which may not start processes.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    # Where multiprocessing is not loaded, this process is none of its workers.
    processes = sys.modules.get("multiprocessing")
    if threading.active_count() > 1 or (processes and processes.current_process().daemon):
        return 1
    return len(os.sched_getaffinity(0))


def _reply(send, task: Callable[..., object], block: tuple) -> None:
    """A forked worker: send ``task(*block)``, or the exception it raised."""
    try:
        reply = task(*block)
    except Exception as exc:
        reply = exc
    with contextlib.suppress(Exception):  # unsent, the block is computed by the caller
        send.send(reply)


def run_blocks(task: Callable[..., Result], blocks: Sequence[tuple]) -> list[Result]:
    """``[task(*block) for block in blocks]``, one forked worker per block after the first.

    Workers inherit the caller's memory and send their results back; the
    caller computes the first block itself, and a lone block forks nothing.
    A worker's exception is raised here; a worker that ends without a reply
    (killed, say) has its block computed here. No worker outlives the call.
    """
    if len(blocks) == 1:
        return [task(*blocks[0])]
    from multiprocessing import get_context  # only a job of several blocks pays the import

    context = get_context("fork")
    jobs = []
    try:
        for block in blocks[1:]:
            receive, send = context.Pipe(duplex=False)
            worker = context.Process(target=_reply, args=(send, task, block), daemon=True)
            worker.start()
            send.close()
            jobs.append((worker, receive, block))
        results = [task(*blocks[0])]
        for _, receive, block in jobs:
            try:
                reply = receive.recv()
            except EOFError:
                reply = task(*block)
            if isinstance(reply, BaseException):
                raise reply
            results.append(reply)
        return results
    finally:
        for worker, receive, _ in jobs:
            worker.terminate()
            receive.close()
            worker.join()
