"""A forked helper process that trains satellites K//2 .. K-1 of every plane.

The satellites of a global iteration train independently from the same global
weights, so `protocol.run_global_iteration` sends the second half of every
plane to one helper process and trains the first half itself meanwhile. The
helper is forked at the first iteration that can use it, and it serves the
training set it was forked with: a read-only array pair whose row slices are
the shards, as `config.build_simulation` shares one such draw with every build.
A new training set closes and reaps the old helper before the next fork, so at
most one helper exists. The parent holds the set only weakly, and closes the
helper when the set is freed or at interpreter exit (`weakref.finalize`).

Per iteration the parent writes the global weights into a shared mapping and
sends one command: the hyperparameters and, per plane, each satellite's row
bounds and rng key. The helper trains plane by plane into the mapping and
writes one byte per finished plane. It ignores SIGINT and exits on EOF of its
commands.
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


def _address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


def _bounds(dataset: Dataset, rows: np.ndarray, labels: np.ndarray,
            at: tuple[int, int]) -> tuple[int, int] | None:
    """(a, b) when `dataset` is exactly rows[a:b] and labels[a:b], else None;
    `at` holds the addresses of `rows` and `labels`."""
    r, lab = dataset.rows, dataset.labels
    if (r.base is not rows or lab.base is not labels or r.strides != rows.strides
            or r.shape[1:] != rows.shape[1:] or lab.strides != labels.strides):
        return None
    a, rest = divmod(_address(r) - at[0], rows.strides[0])
    if rest or _address(lab) - at[1] != a * labels.strides[0] or len(lab) != len(r):
        return None
    return a, a + len(r)


def _serve(commands: int, done: int, shared: int, rows: np.ndarray, labels: np.ndarray):
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
                w_local = learn.sat_learn_proc(w, Dataset(rows[a:b], labels[a:b]), hp,
                                               np.random.default_rng(key))
                out[slot * dim:(slot + 1) * dim] = learn.gradient(w_local, w)
                slot += 1
            os.write(done, b"\0")


class Helper:
    """The parent's end of one forked helper: its pipes, its shared mapping and its pid.

    The mapping holds the float64 weights, then one gradient per satellite of
    the last command. `bindings` are the training functions the helper was
    forked with; it is used only while the same ones are bound.
    """

    def __init__(self, rows: np.ndarray, labels: np.ndarray, bindings: tuple):
        self.bindings = bindings
        self._set = weakref.ref(rows), weakref.ref(labels)
        self._shared = os.memfd_create("leofl-helper")
        self._buf = None
        self._slots: list[int] = [0]  # the last command's first slot of each plane, then the end
        self._done = 0  # planes of the last command the helper has finished
        commands, self._commands = os.pipe()
        self._finished, done = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                os.close(self._commands)
                os.close(self._finished)
                _serve(commands, done, self._shared, rows, labels)
            finally:
                os._exit(0)
        os.close(commands)
        os.close(done)
        weakref.finalize(rows, self.close)

    def serves(self, rows: np.ndarray, labels: np.ndarray) -> bool:
        return self._set[0]() is rows and self._set[1]() is labels

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
    on one CPU only, when a dataset is not a row slice of one read-only array
    pair, when the helper died or when the training functions were rebound
    since its fork.
    """
    global _helper
    first = next((dataset for jobs in planes for dataset, _ in jobs), None)
    if not _FORKS or first is None or cpus() < 2:
        return None
    rows, labels = first.rows.base, first.labels.base
    if not (isinstance(rows, np.ndarray) and isinstance(labels, np.ndarray)) \
            or rows.flags.writeable or labels.flags.writeable:
        return None
    at = _address(rows), _address(labels)
    commands = []
    for jobs in planes:
        commands.append([])
        for dataset, key in jobs:
            bounds = _bounds(dataset, rows, labels, at)
            if bounds is None:
                return None
            commands[-1].append((*bounds, key))
    if _helper is None or not _helper.serves(rows, labels):
        if _helper is not None:
            _helper.close()
        _helper = Helper(rows, labels, bindings)
    if _helper.bindings != bindings or not _helper.send(w, hp, commands):
        return None
    return _helper


if _FORKS:
    os.register_at_fork(after_in_child=lambda: _helper and _helper.release())
