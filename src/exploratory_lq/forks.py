"""Process forking: the library's one way to run work side by side.

The per-step work is short NumPy calls, and formatting the CSV is float
``repr``; both hold the interpreter lock, so threads do not speed them
up, but processes do.  :func:`fork_parts`, the one fork helper, runs a
list of parts side by side: the caller runs one, a forked child each
of the others, and the results come back in part order.
:func:`sde.simulate_to_csv` hands it one contiguous part of its record
chunks per usable CPU, walks the first itself and appends each child's
rows in path order; ``explq exact-vs-euler`` hands it its dt levels and
keeps the finest.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
import warnings

from .errors import ExploratoryLqError


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def split_parts(items) -> list:
    """``items`` in contiguous parts, the later ones the larger: one per
    usable CPU and at most one per item, or a single part where the
    process cannot fork (no ``os.fork``, or another Python thread
    running)."""
    items = list(items)
    forkable = hasattr(os, "fork") and threading.active_count() == 1
    n = min(_usable_cpus(), len(items)) if forkable else 1
    return [items[i * len(items) // n:(i + 1) * len(items) // n] for i in range(n)]


def fork_parts(work, parts, describe, mine: int = 0) -> list:
    """``[work(part) for part in parts]``, the parts run side by side:
    the caller runs ``parts[mine]`` and a forked child each other part,
    and the results come back in part order.  A single part runs in the
    caller alone.

    The parts are in the order a serial loop would run them, and a
    failure raises what that loop would have: the error of the first
    part that fails.  A child's library error (ExploratoryLqError) is
    raised as it is; any other exception in a child, or a child that
    ends abnormally, raises ExploratoryLqError naming ``describe(part)``.
    Every child is reaped before this returns or raises, and any
    exception in the caller that is not a library error, an interrupt
    included, kills the children first.
    """
    parts = list(parts)
    children = [None if i == mine else _PartChild(describe(part))
                for i, part in enumerate(parts)]
    try:
        for child, part in zip(children, parts):
            if child is not None:
                child.start(work, part)
        try:
            own = work(parts[mine])
        except ExploratoryLqError:
            for child in children[:mine]:   # parts a serial loop runs first
                child.result()
            raise
        return [own if child is None else child.result() for child in children]
    finally:
        for child in children:
            if child is not None:
                child.close()


class _PartChild:
    """A forked process that runs ``work(part)`` for :func:`fork_parts`:
    ``start`` forks it, ``result`` waits for it and returns its result
    or raises its error, ``close`` kills it if it was not reaped and
    frees its pipe."""

    def __init__(self, name: str):
        self.name = name
        self.pid = self.pipe = None

    def start(self, work, part) -> None:
        self.pipe, send = os.pipe()
        # Flushed, so no buffered text is inherited by the child.
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns on a fork while any OS thread runs, a
                # BLAS library's idle pool included; the child calls no BLAS.
                warnings.simplefilter("ignore", DeprecationWarning)
                self.pid = os.fork()
            if self.pid == 0:
                self._serve(work, part, send)
        finally:
            os.close(send)

    @staticmethod
    def _serve(work, part, send: int) -> None:
        """The child: run the part, send (True, result), (False, library
        error) or (False, the error's text) through the pipe and leave
        through ``os._exit``, never returning to the caller's frames."""
        code = 1
        try:
            try:
                payload = pickle.dumps((True, work(part)))
            except ExploratoryLqError as exc:
                payload = pickle.dumps((False, exc))
            except BaseException as exc:
                payload = pickle.dumps((False, f"{type(exc).__name__}: {exc}"))
            with open(send, "wb", closefd=False) as pipe:
                pipe.write(payload)
            code = 0
        finally:
            os._exit(code)

    def result(self):
        with open(self.pipe, "rb", closefd=False) as pipe:
            payload = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        if status:
            raise ExploratoryLqError(f"{self.name} ended with status {status}")
        ok, value = pickle.loads(payload)
        if ok:
            return value
        if isinstance(value, ExploratoryLqError):
            raise value
        raise ExploratoryLqError(f"{self.name} failed: {value}")

    def close(self) -> None:
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        if self.pipe is not None:
            os.close(self.pipe)
