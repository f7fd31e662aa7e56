"""A second process for a sweep: a forked worker that evaluates every
other batch of its points.

share_rows takes the points after a sweep's first in batches of BATCH
consecutive ones.  Where os.fork exists, more than one CPU is usable and
the worker would get a full batch, it forks one worker, which evaluates
every other batch and replies with its rows and what it wrote to stderr;
otherwise the parent evaluates them all.  The parent writes every row
and warning, in point order, and the worker writes nothing to stdout or
stderr itself.  The sweep command loads this module once its first row
is out, so run and check do not compile it.
"""

from __future__ import annotations

import contextlib
import io
import marshal
import os
import sys

# Sweep points per batch: a few ms of work, and a reply of about 15 KB,
# so that two replies in flight fit a 64 KiB pipe.
BATCH = 128


class Batch(io.StringIO):
    """A worker's rows of one batch, kept whole for one reply."""

    def send_if_full(self) -> None:
        pass


class Worker:
    """A forked process that evaluates the sweep batches its parent asks
    for, one reply per batch, in the order asked.

    A batch's rows come back as text with whether every row was clean,
    what the batch wrote to stderr (long-day warnings), and, if an
    exception stopped it early, that exception as `Type: message` with
    its traceback, or None.  Both pipes carry marshal data, which
    delimits itself.  The worker ends when the parent closes its end of
    the pipes, and the parent reaps it in close().
    """

    def __init__(self, rows):
        asks, self._asks = os.pipe()
        replies, answers = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for end in (asks, self._asks, replies, answers):
                os.close(end)
            raise
        if self.pid == 0:
            try:
                os.close(self._asks)
                os.close(replies)
                self._serve(open(asks, "rb"), open(answers, "wb"), rows)
            finally:  # never back into the parent's code or its buffers
                os._exit(0)
        os.close(asks)
        os.close(answers)
        self._replies = open(replies, "rb")

    @staticmethod
    def _serve(asks, answers, rows) -> None:
        # stdout's reader sees its end when the parent's copy closes
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        while True:
            try:
                start, stop = marshal.load(asks)
            except EOFError:  # the parent has closed its end
                return
            batch = Batch()
            sys.stderr = warned = io.StringIO()
            clean, failure = False, None
            try:
                clean = rows(batch, range(start, stop))
            except Exception as exc:  # the parent raises it, in point order
                import traceback  # loaded by a failure alone

                failure = (f"{type(exc).__name__}: {exc}",
                           traceback.format_exc())
            marshal.dump((batch.getvalue(), clean, warned.getvalue(),
                          failure), answers)
            answers.flush()

    def ask(self, indices: range) -> None:
        # a few bytes, written at once; a worker that has died shows at
        # the next reply
        with contextlib.suppress(BrokenPipeError):
            os.write(self._asks, marshal.dumps((indices.start,
                                                indices.stop)))

    def reply(self) -> tuple:
        try:
            return marshal.load(self._replies)
        except EOFError:
            raise RuntimeError("the sweep's worker process ended "
                               "without replying") from None

    def close(self) -> None:
        os.close(self._asks)
        self._replies.close()
        os.waitpid(self.pid, 0)


def start_worker(rows) -> Worker | None:
    """A worker for the rows of a sweep, or None where it cannot help: no
    fork, or one usable CPU."""
    if not hasattr(os, "fork"):
        return None
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return None
    try:
        return Worker(rows)
    except OSError:  # no process to be had: the parent sweeps alone
        return None


def share_rows(out, rows, indices: range) -> bool:
    """Write the rows of the points at indices, a range of step 1, into out
    as rows(out, indices) does, sharing their batches with a worker where
    one can help; return whether every row is clean."""
    first, stop = indices.start, indices.stop
    # a full batch each: a worker costs about as much to start and end as
    # a batch of points (3 ms on a 2-vCPU x86-64 host), so a shorter sweep
    # ran no faster for it
    worker = start_worker(rows) if stop - first >= 2 * BATCH else None
    if worker is None:
        return rows(out, indices)

    def batch(start: int) -> range:
        return range(start, min(start + BATCH, stop))

    clean = True
    try:
        # the parent takes every other batch and the worker the one after
        # each of those; a range of starts, so nothing held grows with the
        # number of points
        worker.ask(batch(first + BATCH))
        for start in range(first, stop, 2 * BATCH):
            # the worker holds two batches ahead of this one, so it has
            # work while this one is evaluated and the reply before it
            # goes out: at most two replies are in flight
            if start + 3 * BATCH < stop:
                worker.ask(batch(start + 3 * BATCH))
            clean &= rows(out, batch(start))
            if start + BATCH < stop:
                text, ok, warned, failure = worker.reply()
                sys.stderr.write(warned)
                for line in io.StringIO(text):  # as rows() sends its own
                    out.write(line)
                    out.send_if_full()
                if failure is not None:
                    # a row holds no line break: its one text column names
                    # error kinds and stages
                    point = start + BATCH + text.count("\n")
                    summary, trace = failure
                    sys.stderr.write(trace)
                    raise RuntimeError(f"sweep point {point} failed in the "
                                       f"worker process: {summary}")
                clean &= ok
    finally:
        worker.close()
    return clean
