"""A forked helper process that claims and trains satellites beside the parent.

A satellite's gradient depends only on the global weights, its shard and its
rng key, so `protocol.run_global_iteration` offers every (plane, satellite)
job of an iteration to one helper process, and both claim jobs in plane order;
a job both claim in a race is trained twice with identical bits. The helper is
forked at the first iteration that can use it and serves while
`learn.sat_learn_proc` and `learn.local_gradient`, its one call per job, are
still bound as at its fork; it trains from the set it was forked with: the
read-only set `data.partition` cut the shards from, as `config.build_simulation`
shares one such draw with every build. A new training set closes and reaps the
old helper before the next fork, so at most one helper exists. The parent holds
the set only weakly, and closes the helper when the set is freed or at
interpreter exit (`weakref.finalize`).

Per command the parent writes the global weights and a cleared claim byte per
job into a shared mapping and sends the hyperparameters and each job's row
bounds in that set and rng key. The helper claims the next free job in index
order, again and again, writes its gradient into the job's slot and its index
to a pipe, and the job count once none is left, so the last index read bounds
every job it has finished. The parent copies each gradient the helper trained
out of the mapping when it takes it. The helper ignores SIGINT and exits on
EOF. While it runs, both processes run numpy's OpenBLAS on one thread.

An iteration's jobs are offered twice. Once the global update exists,
`Helper.offer` sends the next iteration's jobs (`round_n + 1`), so the helper
trains them while the parent evaluates. The next `start` then sends nothing
and adopts that command if it was offered and nothing adopted it yet, the
training calls are bound as at its fork, the jobs and hyperparameters are
equal and the weights are bit-equal to the ones in the mapping. Otherwise it
cancels the command: it sets every claim byte, so the helper starts none of
its jobs beyond the one in flight, and waits for the command's end before it
sends its own. A call that declines the helper cancels too. A run's last offer
is wasted: at most one round of helper training, ended by the next command or
when the draw is freed.

A helper that died, before an adoption or within an iteration, is found by its
pipes: the parent's next report read meets EOF (`_await`), or, once the helper
had reported its command's end, the next command's write fails. The parent
closes it and trains every job the helper has not reported.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import mmap
import os
import pickle
import signal
import weakref
from typing import Callable

import numpy as np

from . import learn
from .data import Dataset

_FORKS = all(hasattr(os, name) for name in ("fork", "memfd_create", "sched_getaffinity"))


def cpus() -> int:
    """CPUs this process may run on; the helper needs a second one."""
    return len(os.sched_getaffinity(0))


def _blas_threads(n: int) -> int:
    """Run numpy's bundled OpenBLAS on `n` threads here; returns the count it had (`n` if none)."""
    with contextlib.suppress(AttributeError):  # numpy's extension links the bundled library
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        before = lib.scipy_openblas_get_num_threads64_()
        lib.scipy_openblas_set_num_threads64_(n)
        return before
    return n


def _serve(commands: int, finished: int, shared: int, whole: Dataset):
    """The helper's loop: claim, train and report each command's free jobs in order, until EOF."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    reader = os.fdopen(commands, "rb")
    buf = None
    while True:
        try:
            size, dim, hp, jobs = pickle.load(reader)
        except EOFError:
            return
        if buf is None or len(buf) < size:
            buf = mmap.mmap(shared, size)
        w = np.frombuffer(buf, count=dim)
        out = np.frombuffer(buf, offset=w.nbytes, count=len(jobs) * dim).reshape(len(jobs), dim)
        marks = w.nbytes + out.nbytes
        for job, (a, b, key) in enumerate(jobs):
            if buf[marks + job]:  # the parent's
                continue
            buf[marks + job] = 1
            out[job] = learn.local_gradient(w, Dataset(whole.rows[a:b], whole.labels[a:b]), hp, key)
            os.write(finished, np.uint32(job).tobytes())
        os.write(finished, np.uint32(len(jobs)).tobytes())


class Helper:
    """The parent's end of one forked helper: its pipes, its shared mapping and its pid.

    The mapping holds the float64 weights, then one gradient slot per job of
    the last command, then one claim byte per job. `whole` is a weak reference
    to the set the helper was forked with and `training` the `learn.sat_learn_proc`
    and `learn.local_gradient` it trains with; it is used only while both are bound.
    """

    def __init__(self, whole: Dataset):
        self.training = (learn.sat_learn_proc, learn.local_gradient)
        self.whole = weakref.ref(whole)
        self._buf = None
        self._slots: list[int] = [0]  # the last command's first job of each plane, then its end
        self._reported = 0  # the last index the helper reported for the last command
        self._offered = None  # (dim, hp, jobs) of the last command while offered and not adopted
        # one BLAS thread in each process while both train, inherited by the helper
        self._blas = _blas_threads(1)
        self.pid, opened = None, []
        try:
            opened.append(os.memfd_create("leofl-helper"))
            opened += os.pipe()
            opened += os.pipe()
            self.pid = os.fork()
        except OSError:  # at a descriptor or process limit: a helper dead from the start
            _blas_threads(self._blas)
            for fd in opened:
                os.close(fd)
            return
        self._shared, commands, self._commands, self._finished, finished = opened
        if self.pid == 0:
            try:
                os.close(self._commands)
                os.close(self._finished)
                _serve(commands, finished, self._shared, whole)
            finally:
                os._exit(0)
        os.close(commands)
        os.close(finished)
        weakref.finalize(whole, self.close)

    def release(self) -> int | None:
        """Close this process's ends of the helper's pipes and mapping and drop the offer, which
        no call may adopt without the mapping; returns the pid it had.

        A child forked later calls only this: the helper is its parent's to reap.
        """
        pid, self.pid, self._buf, self._out, self._offered = self.pid, None, None, None, None
        if pid is not None:
            for fd in (self._commands, self._finished, self._shared):
                os.close(fd)
        return pid

    def close(self):
        """Release the helper, then kill and reap it, whether idle, busy or stopped."""
        pid = self.release()
        if pid is not None:
            _blas_threads(self._blas)
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)

    def _await(self, job: int) -> bool:
        """Wait until the helper has reported `job` of the last command or a later one (its job
        count: the command's end); False once it died."""
        while self._reported < job:
            records = self.pid is not None and os.read(self._finished, 4096)
            if not records:
                self.close()
                return False
            self._reported = memoryview(records).cast("I")[-1]
        return True

    def _claim(self, job: int) -> bool:
        """Claim `job` of the last command for this process; False if the helper holds it."""
        if self.pid is None:
            return True
        free = not self._buf[self._marks + job]
        self._buf[self._marks + job] = 1
        return free

    def cancel(self):
        """Claim every job of the last command, so the helper starts none beyond the one in
        flight, and let no call adopt it."""
        self._offered = None
        if self._buf is not None:
            self._buf[self._marks:self._marks + self._slots[-1]] = b"\1" * self._slots[-1]

    def send(self, w: np.ndarray, hp: learn.HyperParams, planes: list[list[tuple]]) -> bool:
        """Start one command: per plane, (a, b, rng key) of each satellite; False if it died."""
        # the last command may still run (an offer, or an iteration that stopped early):
        # cancel it and let it end first, so nothing it claims or writes lands in this command
        self.cancel()
        if self.pid is None or not self._await(self._slots[-1]):
            return False
        dim = len(w)
        self._slots = list(itertools.accumulate(map(len, planes), initial=0))
        jobs = self._slots[-1]
        self._marks = (1 + jobs) * w.nbytes
        size = self._marks + jobs
        if self._buf is None or len(self._buf) < size:
            os.ftruncate(self._shared, size)
            self._buf = mmap.mmap(self._shared, size)
        np.frombuffer(self._buf, count=dim)[:] = w
        self._buf[self._marks:size] = bytes(jobs)
        self._out = np.frombuffer(self._buf, offset=w.nbytes, count=jobs * dim).reshape(jobs, dim)
        self._reported = -1
        data = memoryview(pickle.dumps((size, dim, hp, list(itertools.chain(*planes)))))
        try:
            while data:
                data = data[os.write(self._commands, data):]
        except OSError:  # the helper died: nothing reads the pipe
            self.close()
            return False
        return True

    def offer(self, w: np.ndarray, hp: learn.HyperParams, planes: list[list[tuple]]):
        """Send the next iteration's jobs, as `start` takes them, for its `start` to adopt."""
        jobs = _jobs(planes)
        if self.send(w, hp, jobs):
            self._offered = (len(w), hp, jobs)

    def adopt(self, w: np.ndarray, hp: learn.HyperParams, jobs: list[list[tuple]]) -> bool:
        """Take the offered command as this call's, once, if it holds these very jobs."""
        offered, self._offered = self._offered, None
        return offered == (len(w), hp, jobs) and self._buf[:w.nbytes] == w.tobytes()

    def gradients(self, plane: int, train: Callable[[int], np.ndarray]) -> list[np.ndarray]:
        """Plane `plane`'s gradients in satellite order: this process trains (`train(sat)`)
        each job the helper has not claimed, then copies the helper's out of the mapping, or
        trains them too once the helper died."""
        first = self._slots[plane]
        out = [train(sat) if self._claim(first + sat) else None
               for sat in range(self._slots[plane + 1] - first)]
        for sat, gradient in enumerate(out):
            if gradient is None:
                out[sat] = self._out[first + sat].copy() if self._await(first + sat) else train(sat)
        return out


_helper: Helper | None = None  # the last helper forked, closed or not


def _jobs(planes: list[list[tuple]]) -> list[list[tuple]]:
    """Per plane, (a, b, rng key) of each satellite's (dataset, rng key)."""
    return [[(*dataset.span[1:], key) for dataset, key in jobs] for jobs in planes]


def start(w: np.ndarray, hp: learn.HyperParams, planes: list[list[tuple]]) -> Helper | None:
    """Offer one iteration's jobs to the helper, forked if its training set is new, or adopt
    the command `Helper.offer` sent for them.

    `planes` holds, per plane, (dataset, rng key) of each satellite. Returns
    None, and the parent trains every satellite itself, when this process may
    run on one CPU only, when a dataset was not cut by `data.partition` from one
    read-only set, when the helper died or could not be started, or when
    `learn.sat_learn_proc` or `learn.local_gradient` was rebound since its fork.
    """
    global _helper
    spans = [dataset.span for jobs in planes for dataset, _ in jobs]
    whole = spans[0][0] if spans and spans[0] else None
    usable = _FORKS and whole is not None and cpus() >= 2 and not whole.rows.flags.writeable \
        and not whole.labels.flags.writeable and all(s and s[0] is whole for s in spans)
    if usable and (_helper is None or _helper.whole() is not whole):
        if _helper is not None:
            _helper.close()
        _helper = Helper(whole)
    if not usable or _helper.training != (learn.sat_learn_proc, learn.local_gradient):
        if _helper is not None:
            _helper.cancel()
        return None
    jobs = _jobs(planes)
    return _helper if _helper.adopt(w, hp, jobs) or _helper.send(w, hp, jobs) else None


if _FORKS:
    os.register_at_fork(after_in_child=lambda: _helper and _helper.release())
