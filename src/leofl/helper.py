"""A forked helper process that trains satellites K//2 .. K-1 of every plane.

The satellites of a global iteration train independently from the same global
weights, so `protocol.run_global_iteration` sends the second half of every
plane to one helper process and trains the first half itself meanwhile. The
helper is forked at the first iteration that can use it, and it trains from
the set it was forked with: the read-only set `data.partition` cut the shards
from, as `config.build_simulation` shares one such draw with every build.
A new training set closes and reaps the old helper before the next fork, so at
most one helper exists. The parent holds the set only weakly, and closes the
helper when the set is freed or at interpreter exit (`weakref.finalize`).

Per iteration the parent writes the global weights into a shared mapping and
sends one command: the hyperparameters and, per plane, each satellite's row
bounds in that set and its rng key. The helper trains plane by plane into the
mapping and writes one byte per finished plane. It ignores SIGINT and exits on
EOF of its commands.
"""

from __future__ import annotations

import contextlib
import itertools
import mmap
import os
import pickle
import signal
import weakref

import numpy as np

from . import learn
from .data import Dataset

_FORKS = all(hasattr(os, name) for name in ("fork", "memfd_create", "sched_getaffinity"))


def cpus() -> int:
    """CPUs this process may run on; the helper needs a second one."""
    return len(os.sched_getaffinity(0))


def _serve(commands: int, done: int, shared: int, whole: Dataset):
    """The helper's loop: train each command's satellites, plane by plane, until EOF."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    reader = os.fdopen(commands, "rb")
    buf = None
    while True:
        try:
            size, dim, hp, planes = pickle.load(reader)
        except EOFError:
            return
        if buf is None or len(buf) < size:
            buf = mmap.mmap(shared, size)
        w = np.frombuffer(buf, count=dim)
        out = np.frombuffer(buf, offset=w.nbytes, count=sum(map(len, planes)) * dim)
        slot = 0
        for jobs in planes:
            for a, b, key in jobs:
                shard = Dataset(whole.rows[a:b], whole.labels[a:b])
                w_local = learn.sat_learn_proc(w, shard, hp, np.random.default_rng(key))
                out[slot * dim:(slot + 1) * dim] = learn.gradient(w_local, w)
                slot += 1
            os.write(done, b"\0")


class Helper:
    """The parent's end of one forked helper: its pipes, its shared mapping and its pid.

    The mapping holds the float64 weights, then one gradient per satellite of
    the last command. `whole` is a weak reference to the set the helper was
    forked with and `bindings` are its training functions; it is used only
    while the same ones are bound.
    """

    def __init__(self, whole: Dataset, bindings: tuple):
        self.bindings = bindings
        self.whole = weakref.ref(whole)
        self._shared = os.memfd_create("leofl-helper")
        self._buf = None
        self._slots: list[int] = [0]  # the last command's first slot of each plane, then the end
        self._done = 0  # planes of the last command the helper has finished
        commands, self._commands = os.pipe()
        self._finished, done = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:  # e.g. at a process limit: a helper dead from the start
            self.pid = None
            for fd in (commands, self._commands, self._finished, done, self._shared):
                os.close(fd)
            return
        if self.pid == 0:
            try:
                os.close(self._commands)
                os.close(self._finished)
                _serve(commands, done, self._shared, whole)
            finally:
                os._exit(0)
        os.close(commands)
        os.close(done)
        weakref.finalize(whole, self.close)

    def release(self) -> int | None:
        """Close this process's ends of the helper's pipes and mapping; returns the pid it had.

        A child forked later calls only this: the helper is its parent's to reap.
        """
        pid, self.pid, self._buf = self.pid, None, None
        if pid is not None:
            for fd in (self._commands, self._finished, self._shared):
                os.close(fd)
        return pid

    def close(self):
        """Release the helper, then kill and reap it, whether idle, busy or stopped."""
        pid = self.release()
        if pid is not None:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)

    def _await(self, plane: int) -> bool:
        """Wait until the helper has finished `plane` of the last command; False once it died."""
        while self._done <= plane:
            if self.pid is None or not os.read(self._finished, 1):
                self.close()
                return False
            self._done += 1
        return True

    def send(self, w: np.ndarray, hp: learn.HyperParams, planes: list[list[tuple]]) -> bool:
        """Start one command: per plane, (a, b, rng key) of each satellite; False if it died."""
        # an iteration that stopped early leaves its command running: let it end first
        if self.pid is None or not self._await(len(self._slots) - 2):
            return False
        self._dim = dim = len(w)
        self._slots = list(itertools.accumulate(map(len, planes), initial=0))
        size = (1 + self._slots[-1]) * w.nbytes
        if self._buf is None or len(self._buf) < size:
            os.ftruncate(self._shared, size)
            self._buf = mmap.mmap(self._shared, size)
        np.frombuffer(self._buf, count=dim)[:] = w
        self._done = 0
        data = memoryview(pickle.dumps((size, dim, hp, planes)))
        try:
            while data:
                data = data[os.write(self._commands, data):]
        except OSError:  # the helper died: nothing reads the pipe
            self.close()
            return False
        return True

    def gradients(self, plane: int) -> list[np.ndarray] | None:
        """The helper's gradients of `plane`, read-only views valid until the next command;
        None once the helper has died."""
        if not self._await(plane):
            return None
        first, end = self._slots[plane], self._slots[plane + 1]
        out = np.frombuffer(self._buf, offset=(1 + first) * self._dim * 8,
                            count=(end - first) * self._dim)
        out.flags.writeable = False
        return list(out.reshape(end - first, self._dim))


_helper: Helper | None = None  # the last helper forked, closed or not


def start(w: np.ndarray, hp: learn.HyperParams, planes: list[list[tuple]],
          bindings: tuple) -> Helper | None:
    """Send one iteration's work to the helper, forked if its training set is new.

    `planes` holds, per plane, (dataset, rng key) of each satellite the helper
    is to train, and `bindings` the training functions bound now. Returns None,
    and the parent trains those satellites itself, when this process may run
    on one CPU only, when a dataset was not cut by `data.partition` from one
    read-only set, when the helper died or could not be forked, or when the
    training functions were rebound since its fork.
    """
    global _helper
    spans = [dataset.span for jobs in planes for dataset, _ in jobs]
    whole = spans[0][0] if spans and spans[0] else None
    if not _FORKS or whole is None or cpus() < 2 or whole.rows.flags.writeable \
            or whole.labels.flags.writeable or any(not s or s[0] is not whole for s in spans):
        return None
    if _helper is None or _helper.whole() is not whole:
        if _helper is not None:
            _helper.close()
        _helper = Helper(whole, bindings)
    commands = [[(*dataset.span[1:], key) for dataset, key in jobs] for jobs in planes]
    if _helper.bindings != bindings or not _helper.send(w, hp, commands):
        return None
    return _helper


if _FORKS:
    os.register_at_fork(after_in_child=lambda: _helper and _helper.release())
