"""``trace.csv`` encoded by a helper process while the sessions run.

A verb that writes traces (``gds run`` and ``gds compare`` with ``--out``
and without ``--no-trace``) owns at most one ``TraceWriter``, from before
its first session to after its last. On a host with more than one usable
CPU, ``start`` makes it: one helper process, started with
``multiprocessing``'s ``spawn`` method, that encodes each storage block a
session's ``Trace`` hands over as it fills (``engine.csv_block``, the one
encoder) while the parent keeps stepping, and writes the session's
``trace.csv`` when ``Trace.to_csv`` asks. The file's bytes are the ones
the in-process writer makes. On a one-CPU host there is no second core to
encode on, so no helper starts and ``to_csv`` writes in process.

The parent never waits for the helper to start: until the helper says it
is ready, the writer queues the blocks by reference (the ``Trace`` holds
them anyway), and a trace that finishes before then is written in
process. The helper keeps a session's encoded text in memory and opens
the file only when asked to write it, so a session that raises leaves no
file behind, and neither does its run directory, which the parent makes
after the run. A lost helper (it exited, or did not answer in time) is
stopped and every later trace is written in process, from the blocks the
``Trace`` still holds.

Messages, parent to helper, each one ``send_bytes``: a non-empty run of
whole records, or an empty message followed by the absolute path to
write the records since the last write to. Closing the pipe stops the
helper. Helper to parent, each one ``send``: ``None`` once, when ready,
then per written file ``None``, or the ``OSError`` that writing raised.
"""

from __future__ import annotations

import collections
import os
from typing import Optional

import numpy as np

from . import engine

# how long to wait for the helper to write a file, and to exit (s)
REPLY_TIMEOUT_S = 120.0
JOIN_TIMEOUT_S = 10.0


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def start() -> Optional["TraceWriter"]:
    """A started ``TraceWriter``, or ``None`` on a host with one usable
    CPU."""
    return TraceWriter() if usable_cpus() > 1 else None


def _serve(conn) -> None:
    """The helper's main: take each run of records as it arrives, encode
    them while none is waiting, and write the text since the last write
    where the parent asks."""
    work = engine.csv_work(engine._CSV_BLOCK)
    received = collections.deque()  # runs of records not yet encoded
    chunks = [engine.CSV_HEAD]

    def encode_one():
        records = np.frombuffer(received.popleft(), engine._RECORD_DTYPE)
        chunks.append(engine.csv_block(records, work))

    with conn:
        try:
            conn.send(None)
            while True:
                # every waiting message is taken before the next block is
                # encoded, so the parent's sends never wait on the encoder
                if received and not conn.poll():
                    encode_one()
                    continue
                message = conn.recv_bytes()
                if message:
                    received.append(message)
                    continue
                path = os.fsdecode(conn.recv_bytes())
                while received:
                    encode_one()
                try:
                    with open(path, "wb") as fh:
                        fh.writelines(chunks)
                except OSError as exc:
                    conn.send(exc)
                else:
                    conn.send(None)
                chunks = [engine.CSV_HEAD]
        except (EOFError, ConnectionError):  # the parent closed the pipe
            pass
    # every file is closed and so is the pipe: skip the interpreter's
    # teardown, which with numpy loaded takes about 20 ms of the parent's
    # join at the end of each verb
    os._exit(0)


class TraceWriter:
    """The helper process and the parent's end of its pipe: the stream a
    ``Trace`` hands its blocks to (``put``) and asks to write its file
    (``finish``). ``close`` stops the helper; the owner calls it on every
    exit path."""

    def __init__(self):
        # imported here: only a verb that writes traces pays for it
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        self._conn, child = ctx.Pipe()
        self._process = ctx.Process(
            target=_serve, args=(child,), name="gds-trace-writer", daemon=True
        )
        try:
            self._process.start()
        finally:
            child.close()
        self._ready = False
        self._pending = []

    def ready(self, timeout: float = 0.0) -> bool:
        """Whether the helper takes blocks, waiting up to ``timeout`` s for
        it to say so; a lost helper never does."""
        if not self._ready and self._process is not None:
            try:
                if self._conn.poll(timeout):
                    self._conn.recv()
                    self._ready = True
            except (EOFError, OSError):
                self._stop(0.0)
        return self._ready

    def _send(self, *messages) -> bool:
        """Send the queued blocks, then ``messages``, if the helper is
        ready; return whether it took them. The queue is kept until then."""
        if not self.ready():
            return False
        try:
            for data in (*self._pending, *messages):
                self._conn.send_bytes(data)
        except OSError:  # the helper exited
            self._stop(0.0)
            return False
        finally:
            self._pending.clear()
        return True

    def put(self, block) -> None:
        """Take one full block of the running session's trace."""
        self._pending.append(block)
        self._send()

    def finish(self, path: str, last) -> bool:
        """Take the session's last (possibly empty) block and write its
        ``trace.csv`` at ``path``. Return ``True`` once the file is
        complete, or ``False`` if the helper is not ready or is lost, so
        the caller writes the file itself. Raise the ``OSError`` that
        writing raised."""
        if len(last):
            self._pending.append(last)
        sent = self._send(b"", os.fsencode(os.path.abspath(path)))
        self._pending.clear()
        if not sent:
            return False
        try:
            answered = self._conn.poll(REPLY_TIMEOUT_S)
            reply = self._conn.recv() if answered else None
        except (EOFError, OSError):  # the helper exited
            answered = False
        if not answered:
            self._stop(0.0)
            return False
        if reply is not None:
            raise reply
        return True

    def close(self) -> None:
        """Stop the helper: close the pipe, which ends it, and join it. A
        helper that has not said it is ready has no work: it is stopped at
        once, not waited for."""
        self._stop(JOIN_TIMEOUT_S if self._ready else 0.0)

    def _stop(self, grace: float) -> None:
        """Close the pipe and join the helper within ``grace`` s, else kill
        it: it opens a file only while ``finish`` waits. From then on the
        writer is lost."""
        process, self._process = self._process, None
        self._ready = False
        if process is None:
            return
        self._conn.close()
        process.join(grace)
        if process.is_alive():
            process.kill()
            process.join(JOIN_TIMEOUT_S)
        process.close()
