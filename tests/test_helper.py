"""The forked training helper: the same outputs as training in one process, and its lifecycle."""

import contextlib
import ctypes
import errno
import gc
import hashlib
import os
import select
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import leofl
from leofl import config, helper, learn, protocol
from leofl.config import build_simulation, config_from_dict
from leofl.data import Dataset, partition
from leofl.protocol import Scheme, run_global_iteration
from leofl.sparsify import q_to_count

SCHEMES = ["DENSE_IA", "SIA", "CLSIA", "NO_ISL_DIRECT"]
RAW = {"constellation": {"planes": 2, "sats_per_plane": 8},
       "dataset": {"train_samples": 400, "test_samples": 20}}
needs_fork = pytest.mark.skipif(not helper._FORKS or helper.cpus() < 2,
                                reason="the helper needs os.fork, memfd and a second CPU")


@pytest.fixture(autouse=True)
def deadline():
    """Fail, instead of hanging the suite, when a test takes over a minute."""
    def expired(signum, frame):
        raise TimeoutError("the test did not finish in 60 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def served(monkeypatch):
    """One entry per iteration: whether `helper.start` sent its jobs to the helper or adopted
    the offered command, the helper alive or dead; a dead one is found at its report pipe."""
    iterations = []
    original = helper.start

    def counted(*args):
        out = original(*args)
        iterations.append(out is not None)
        return out

    monkeypatch.setattr(helper, "start", counted)
    return iterations


@pytest.fixture
def held(monkeypatch):
    """`held(pause)` binds a training function with which the helper signals the round of
    each job it starts and then sleeps `pause` s, and holds this process's claims of every
    iteration's plane 0 until the helper has started a job of that round (at most 10 s).

    Call it before the helper is forked, which binds the function; it returns the list of
    datasets this process trains. Who trains what still varies, but the helper trains at
    least one satellite of every iteration it serves."""
    signals, signal_end = os.pipe()
    trained, rounds = [], []

    def hold(pause: float = 0.0) -> list:
        parent, original = os.getpid(), learn.sat_learn_proc
        start, gradients = helper.start, helper.Helper.gradients

        def signalling(w, dataset, hp, rng):
            if os.getpid() == parent:
                trained.append(dataset)
            else:
                round_n = rng.bit_generator.seed_seq.entropy[2]  # of PlaneState.rng_key
                os.write(signal_end, round_n.to_bytes(4, sys.byteorder))
                time.sleep(pause)
            return original(w, dataset, hp, rng)

        def noted_start(w, hp, planes):
            rounds.append(planes[0][0][1][2])
            return start(w, hp, planes)

        def held_gradients(self, plane, train):
            deadline = time.monotonic() + 10
            while plane == 0 and select.select([signals], [], [], deadline - time.monotonic())[0]:
                if int.from_bytes(os.read(signals, 4), sys.byteorder) == rounds[-1]:
                    break
            return gradients(self, plane, train)

        monkeypatch.setattr(learn, "sat_learn_proc", signalling)
        monkeypatch.setattr(helper, "start", noted_start)
        monkeypatch.setattr(helper.Helper, "gradients", held_gradients)
        return trained

    yield hold
    os.close(signals)
    os.close(signal_end)


@pytest.fixture
def commands(monkeypatch):
    """In call order, ("start", n) for each `helper.start` of round n and ("send", n) for each
    command of round n that `Helper.send` sends."""
    events, start, send = [], helper.start, helper.Helper.send

    def noted_start(w, hp, planes):
        events.append(("start", planes[0][0][1][2]))  # of PlaneState.rng_key
        return start(w, hp, planes)

    def noted_send(self, w, hp, planes):
        events.append(("send", planes[0][0][2][2]))
        return send(self, w, hp, planes)

    monkeypatch.setattr(helper, "start", noted_start)
    monkeypatch.setattr(helper.Helper, "send", noted_send)
    return events


class Stopped(Exception):
    pass


def run(scheme: str, iterations: int, seed: int = 0, between=None, splice=None, inputs=None):
    """Digest lines, one per iteration, of every output a run produces: the weights,
    each plane's t_done and hop records, the accuracy and every residual.

    `splice`, when given, is called with the built planes before the first iteration.
    `inputs(n, w)`, when given, returns the weights and the round of iteration n > 1
    from the weights the iteration before returned. An iteration that raises `Stopped`
    is run again with the same inputs."""
    cfg = config_from_dict(dict(RAW, scheme=scheme, seed=seed))
    planes, hp, w, test, m = build_simulation(cfg)
    if splice is not None:
        splice(planes)
    q_count = q_to_count(cfg.q, m.dim)
    t, lines = 0.0, []
    for n in range(1, iterations + 1):
        if between is not None and n > 1:
            between(n)
        w_in, round_n = inputs(n, w) if inputs is not None and n > 1 else (w, n)

        def iterate():
            return run_global_iteration(planes, Scheme[scheme], w_in, hp, t, round_n, q_count, test)

        try:
            w, metrics, t = iterate()
        except Stopped:
            w, metrics, t = iterate()
        residuals = hashlib.sha256(b"".join(node.error.residual.tobytes()
                                            for state in planes for node in state.nodes))
        lines.append((hashlib.sha256(w.tobytes()).hexdigest(), t.hex(), metrics.accuracy.hex(),
                      [(pm.t_done.hex(), pm.hop_records) for pm in metrics.plane_metrics],
                      residuals.hexdigest()))
    return lines


def one_cpu(monkeypatch, scheme: str, iterations: int, seed: int = 0, **hooks):
    with monkeypatch.context() as m:
        m.setattr(helper, "cpus", lambda: 1)
        return run(scheme, iterations, seed, **hooks)


@needs_fork
@pytest.mark.parametrize("scheme", SCHEMES)
def test_helper_path_matches_the_one_cpu_path(monkeypatch, served, held, scheme):
    # a draw of its own, so the helper is forked with the held training function
    seed = 40 + SCHEMES.index(scheme)
    alone = one_cpu(monkeypatch, scheme, 3, seed)
    assert served == [False] * 3
    trained = held()
    assert run(scheme, 3, seed) == alone
    assert served == [False] * 3 + [True] * 3
    assert len(trained) <= 3 * (2 * 8 - 1)  # the helper trained a satellite of each iteration


@needs_fork
def test_both_processes_train_one_plane_and_its_fold_sees_satellite_order(monkeypatch, held):
    folds, owned, original = [], [], protocol.run_round

    def spied(state, scheme, gradients, *args):
        folds.append([g.tobytes() for g in gradients])
        owned.append(all(g.flags.owndata for g in gradients))
        return original(state, scheme, gradients, *args)

    monkeypatch.setattr(protocol, "run_round", spied)
    alone = one_cpu(monkeypatch, "SIA", 2, seed=25)
    expected, folds[:] = folds[:], []
    # the helper sleeps in each job, so this process trains the rest of plane 0 meanwhile
    trained, built, first = held(pause=0.05), [], []
    assert run("SIA", 2, seed=25, splice=built.append,
               between=lambda n: first.extend(trained)) == alone
    plane0 = {id(node.dataset) for node in built[0][0].nodes}
    assert 0 < len(plane0 & {id(dataset) for dataset in first}) < len(plane0)
    assert len(folds) == 2 * 2 and folds == expected
    # no gradient is a view of the mapping, which the next command overwrites
    assert all(owned)


@needs_fork
def test_shards_cut_from_a_read_only_view_train_through_the_helper(monkeypatch, served, held):
    def cut_from_a_view(planes):
        nodes = [node for state in planes for node in state.nodes]
        draw = nodes[0].dataset.span[0]
        view = Dataset(draw.rows[::-1], draw.labels[::-1])  # read-only, as the draw is
        for node, shard in zip(nodes, partition(view, len(nodes)), strict=True):
            node.dataset = shard

    alone = one_cpu(monkeypatch, "SIA", 2, splice=cut_from_a_view)
    assert alone != one_cpu(monkeypatch, "SIA", 2)  # the reversed shards are other samples
    trained = held()
    assert run("SIA", 2, splice=cut_from_a_view) == alone
    assert served == [False] * 4 + [True] * 2
    assert len(trained) <= 2 * (2 * 8 - 1)


@needs_fork
def test_shards_not_cut_by_partition_train_in_the_parent(monkeypatch, served):
    def copy_one(planes):
        node = planes[1].nodes[-1]
        node.dataset = Dataset(node.dataset.rows.copy(), node.dataset.labels.copy())

    alone = one_cpu(monkeypatch, "SIA", 2)
    assert run("SIA", 2, splice=copy_one) == alone
    assert served == [False] * 4


def refused_run(monkeypatch, served, seed: int, name: str, error: OSError, allowed: int = 0):
    """Run a draw of its own, so the run must fork a helper for it, with `os.<name>` raising
    `error` after `allowed` calls: the run matches the one-CPU path, no iteration is served and
    no descriptor is left open. Returns the number of calls."""
    alone = one_cpu(monkeypatch, "SIA", 2, seed=seed)
    # closed now, so the run's close of the old helper cannot offset descriptors it leaks
    if helper._helper is not None:
        helper._helper.close()
    original, calls = getattr(os, name), []

    def refused(*args):
        calls.append(args)
        if len(calls) > allowed:
            raise error
        return original(*args)

    open_fds = len(os.listdir("/proc/self/fd"))
    with monkeypatch.context() as m:
        m.setattr(helper.os, name, refused)
        assert run("SIA", 2, seed=seed) == alone
    assert served == [False] * 4
    assert len(os.listdir("/proc/self/fd")) == open_fds
    return len(calls)


@needs_fork
def test_a_failed_fork_leaves_the_run_identical_and_no_fd_open(monkeypatch, served):
    forks = refused_run(monkeypatch, served, 23, "fork", BlockingIOError("fork refused"))
    assert forks == 1  # the helper stays dead until a new draw, as a killed one


@needs_fork
@pytest.mark.parametrize("name, allowed, seed", [("memfd_create", 0, 27), ("pipe", 1, 28)])
def test_a_descriptor_limit_leaves_the_run_identical_and_no_fd_open(monkeypatch, served, name,
                                                                    allowed, seed):
    # os.pipe fails at its second call, with the memfd and the first pipe open by then
    emfile = OSError(errno.EMFILE, os.strerror(errno.EMFILE))
    assert refused_run(monkeypatch, served, seed, name, emfile, allowed) == allowed + 1


def blas_threads() -> int | None:
    """The thread count of numpy's bundled scipy-openblas in this process; None without one."""
    with contextlib.suppress(AttributeError):
        return ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_num_threads64_()
    return None


@needs_fork
@pytest.mark.skipif(blas_threads() is None, reason="numpy bundles no scipy-openblas")
def test_a_helper_pins_the_parent_to_one_blas_thread_until_it_closes(monkeypatch):
    if helper._helper is not None:
        helper._helper.close()
    before = helper._blas_threads(2)
    try:
        run("SIA", 1, seed=29)  # a draw of its own, so the run forks a helper for it
        assert helper._helper.pid is not None and blas_threads() == 1
        helper._helper.close()
        assert blas_threads() == 2
    finally:
        helper._blas_threads(before)
    with monkeypatch.context() as m:
        m.setattr(helper.ctypes, "CDLL", lambda path: object())  # a library with no such symbol
        assert helper._blas_threads(3) == 3


@needs_fork
def test_freeing_the_draw_reaps_its_helper():
    run("SIA", 1, seed=24)
    pid = helper._helper.pid
    os.kill(pid, 0)
    config._drawn.clear()  # with the build gone, nothing else holds the draw
    gc.collect()
    assert helper._helper.pid is None
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


@needs_fork
def test_a_killed_helper_leaves_the_run_identical(monkeypatch, served):
    # a draw of its own: its helper stays dead until a new draw replaces it
    alone = one_cpu(monkeypatch, "SIA", 3, seed=21)
    pids = []

    def kill(n):
        if n == 2:
            pids.append(helper._helper.pid)
            os.kill(pids[0], signal.SIGKILL)
            os.waitid(os.P_PID, pids[0], os.WEXITED | os.WNOWAIT)  # dead, and left to reap

    assert run("SIA", 3, seed=21, between=kill) == alone
    # served in iteration 1, and in iteration 2 by the offer the dead helper had taken;
    # the dead helper was reaped and not forked again
    assert served == [False] * 3 + [True, True, False]
    assert helper._helper.pid is None
    with pytest.raises(ProcessLookupError):
        os.kill(pids[0], 0)


@needs_fork
def test_a_helper_reaped_at_once_leaves_the_run_identical(monkeypatch, served):
    # a draw of its own; with SIGCHLD ignored the killed helper is reaped as it dies
    alone = one_cpu(monkeypatch, "SIA", 2, seed=35)

    def kill(n):
        pid = helper._helper.pid
        os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ProcessLookupError):
            while True:
                os.kill(pid, 0)
                time.sleep(0.01)

    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert run("SIA", 2, seed=35, between=kill) == alone
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert served == [False] * 2 + [True, True]
    assert helper._helper.pid is None


@needs_fork
@pytest.mark.parametrize("name", ["sat_learn_proc", "local_gradient"])
def test_a_rebound_training_function_reaches_every_satellite(monkeypatch, served, name):
    calls = []

    def rebind(n):
        original = getattr(learn, name)

        def counted(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(learn, name, counted)

    run("SIA", 2, between=rebind)
    assert served == [True, False]
    assert len(calls) == 2 * 8 and len({id(dataset) for dataset in calls}) == 16


@needs_fork
def test_a_helper_that_dies_mid_iteration_leaves_the_run_identical(monkeypatch, served, held):
    # a draw of its own, so the helper is forked with a training function that ends it
    # after it claimed its first job and before it finishes it
    alone = one_cpu(monkeypatch, "SIA", 2, seed=22)
    # closed now, so the run's close of the old helper cannot offset descriptors it leaks
    if helper._helper is not None:
        helper._helper.close()
    open_fds = len(os.listdir("/proc/self/fd"))
    parent, original = os.getpid(), learn.sat_learn_proc

    def dies_in_the_helper(*args):
        if os.getpid() != parent:
            os._exit(1)
        return original(*args)

    monkeypatch.setattr(learn, "sat_learn_proc", dies_in_the_helper)
    trained, built = held(), []  # the helper claims the first job, signals, then exits
    assert run("SIA", 2, seed=22, splice=built.append) == alone
    assert served == [False, False, True, False]  # iteration 1 only, then no helper
    assert helper._helper.pid is None
    # this process trained every job once, the one the helper died holding included
    held_job = built[0][0].nodes[0].dataset
    assert len(trained) == 2 * 2 * 8 and sum(d is held_job for d in trained[:8]) == 1
    assert len(os.listdir("/proc/self/fd")) == open_fds


@needs_fork
def test_a_command_an_early_stop_left_running_ends_before_the_next(monkeypatch, held):
    """An iteration that raised in its first round leaves the helper training its
    command; the next command must not start until it ended, or the helper's late
    claims and gradients land in the new one."""
    alone = one_cpu(monkeypatch, "SIA", 3, seed=26)
    # the helper sleeps in each job, so it is still in the stopped command at the next one
    held(pause=0.02)
    cfg = config_from_dict(dict(RAW, scheme="SIA", seed=26))
    planes, hp, w, test, m = build_simulation(cfg)
    q_count = q_to_count(cfg.q, m.dim)

    def stopped(*args):
        raise Stopped

    def stop_early(_):
        """Run iteration 1 of another build of the draw, then stop in iteration 2's first round."""
        w1, _, t = run_global_iteration(planes, Scheme.SIA, w, hp, 0.0, 1, q_count, test)
        with monkeypatch.context() as patch, pytest.raises(Stopped):
            patch.setattr(protocol, "run_round", stopped)
            run_global_iteration(planes, Scheme.SIA, w1, hp, t, 2, q_count, test)

    assert run("SIA", 3, seed=26, splice=stop_early) == alone


@needs_fork
def test_every_iteration_after_the_first_adopts_the_command_offered_for_it(monkeypatch, served,
                                                                           commands):
    # a draw of its own, so no earlier test's helper or offer is in play
    alone = one_cpu(monkeypatch, "SIA", 3, seed=30)
    commands.clear()
    assert run("SIA", 3, seed=30) == alone
    # one command per iteration, sent by the iteration before once its weights exist,
    # and the last one wasted
    assert commands == [("start", 1), ("send", 1), ("send", 2), ("start", 2), ("send", 3),
                        ("start", 3), ("send", 4)]
    assert served == [False] * 3 + [True] * 3


def flipped(index: int, bit: int):
    """`inputs` for `run`: the returned weights, with one bit of one entry flipped."""
    def inputs(n, w):
        w = w.copy()
        w.view(np.uint64)[index] ^= np.uint64(bit)
        return w, n

    return inputs


# each iteration sends its command anew, then offers the next
SENT_ANEW = [("start", 1), ("send", 1), ("send", 2), ("start", 2), ("send", 2), ("send", 3),
             ("start", 3), ("send", 3), ("send", 4)]


@needs_fork
@pytest.mark.parametrize("inputs, expected", [
    pytest.param(flipped(0, 1 << 63), SENT_ANEW, id="plus-zero-to-minus-zero"),
    pytest.param(flipped(1, 1), SENT_ANEW, id="lowest-bit"),
    # round 1 again is sent anew; round 2 after it adopts the command offered for it
    pytest.param(lambda n, w: (w, n - 1), [("start", 1), ("send", 1), ("send", 2), ("start", 1),
                                           ("send", 1), ("send", 2), ("start", 2), ("send", 3)],
                 id="repeated-round")])
def test_weights_or_a_round_other_than_the_offered_ones_are_sent_anew(monkeypatch, served,
                                                                       commands, inputs,
                                                                       expected):
    update = learn.global_update

    def first_entry_zero(*args):  # so that a sign flip turns +0.0 into -0.0
        w = update(*args)
        w[0] = 0.0
        return w

    monkeypatch.setattr(learn, "global_update", first_entry_zero)
    alone = one_cpu(monkeypatch, "SIA", 3, seed=31, inputs=inputs)
    commands.clear()
    assert run("SIA", 3, seed=31, inputs=inputs) == alone
    assert commands == expected
    assert served == [False] * 3 + [True] * 3


@needs_fork
def test_an_adopted_command_a_stopped_iteration_used_is_not_adopted_again(monkeypatch, served,
                                                                          commands):
    armed, original = [False], protocol.run_round

    def stops_once(*args):
        if armed[0]:
            armed[0] = False
            raise Stopped
        return original(*args)

    def arm(n):  # iteration 2 stops in its first round
        armed[0] = n == 2

    monkeypatch.setattr(protocol, "run_round", stops_once)
    alone = one_cpu(monkeypatch, "SIA", 3, seed=32, between=arm)
    commands.clear()
    assert run("SIA", 3, seed=32, between=arm) == alone
    # iteration 2 adopts, stops in its first round and, run again, sends its command anew
    assert commands == [("start", 1), ("send", 1), ("send", 2), ("start", 2), ("start", 2),
                        ("send", 2), ("send", 3), ("start", 3), ("send", 4)]
    assert served == [False] * 4 + [True] * 4


@needs_fork
@pytest.mark.parametrize("decline", ["one CPU", "rebound training"])
def test_a_call_that_declines_the_helper_cancels_the_offered_command(monkeypatch, served, held,
                                                                     decline):
    """Iteration 2 trains in this process; the helper, which sleeps in each job, starts no
    job of the offered round 2 after that call but the one it was in."""
    seed = 33 if decline == "one CPU" else 34  # a draw of its own: the helper is forked held
    alone = one_cpu(monkeypatch, "SIA", 3, seed=seed)
    pause = 0.05
    held(pause)
    started, started_end = os.pipe()
    parent, signalling = os.getpid(), learn.sat_learn_proc

    def noted(w, dataset, hp, rng):  # the round of each job the helper starts
        if os.getpid() != parent:
            os.write(started_end, rng.bit_generator.seed_seq.entropy[2].to_bytes(4, sys.byteorder))
        return signalling(w, dataset, hp, rng)

    monkeypatch.setattr(learn, "sat_learn_proc", noted)

    def round_2_jobs() -> int:
        """The helper's round 2 jobs started since the last call."""
        count = 0
        while select.select([started], [], [], 0)[0]:
            count += int.from_bytes(os.read(started, 4), sys.byteorder) == 2
        return count

    start, counts = helper.start, []  # by the declining call's return, and after it

    def declined(w, hp, planes):
        out = start(w, hp, planes)
        if planes[0][0][1][2] == 2:
            counts.append(round_2_jobs())
        return out

    cpus, local_gradient = helper.cpus, learn.local_gradient

    def between(n):
        if n == 2 and decline == "one CPU":
            monkeypatch.setattr(helper, "cpus", lambda: 1)
        elif n == 2:
            monkeypatch.setattr(learn, "local_gradient", lambda *args: local_gradient(*args))
        else:
            monkeypatch.setattr(helper, "cpus", cpus)
            time.sleep(6 * pause)  # time for six more jobs, had the command run on
            counts.append(round_2_jobs())

    monkeypatch.setattr(helper, "start", declined)
    try:
        assert run("SIA", 3, seed=seed, between=between) == alone
    finally:
        os.close(started)
        os.close(started_end)
    assert served == [False] * 3 + ([True, False, True] if decline == "one CPU" else
                                    [True, False, False])
    assert counts[1] <= 1  # the job in flight at the cancel, if its signal came late


@needs_fork
def test_no_helper_outlives_its_process(tmp_path):
    # the helper is stopped, so it never reads its EOF: only reaping at exit ends it
    script = textwrap.dedent(f"""
        import os, signal, sys
        from leofl import helper
        from leofl.config import build_simulation, config_from_dict
        from leofl.protocol import Scheme, run_global_iteration
        cfg = config_from_dict({RAW!r})
        planes, hp, w, test, m = build_simulation(cfg)
        t = 0.0
        for n in (1, 2):
            w, _, t = run_global_iteration(planes, Scheme.SIA, w, hp, t, n, 79, test)
        os.kill(helper._helper.pid, signal.SIGSTOP)
        open(sys.argv[1], "w").write(str(helper._helper.pid))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(leofl.__file__).parents[1]))
    # no pipes: the helper inherits the script's output files, and a pipe it held
    # open would keep the run from returning
    subprocess.run([sys.executable, "-c", script, str(tmp_path / "pid")], env=env, check=True,
                   timeout=50, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    pid = int((tmp_path / "pid").read_text())
    try:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)


@needs_fork
def test_a_new_draw_reaps_the_old_helper_first():
    """The first draw stays alive, so only the fork for the second one can close its helper."""
    sims, pids = [], []
    for seed in (11, 12):
        sims.append(build_simulation(config_from_dict(dict(RAW, seed=seed))))
        planes, hp, w, test, m = sims[-1]
        run_global_iteration(planes, Scheme.SIA, w, hp, 0.0, 1, 79, test)
        pids.append(helper._helper.pid)
    assert pids[0] != pids[1]
    with pytest.raises(ProcessLookupError):
        os.kill(pids[0], 0)
    os.kill(pids[1], 0)  # the one helper left


@needs_fork
def test_a_child_forked_after_an_offer_trains_the_offered_round_itself(monkeypatch):
    """A child forked between iterations releases the parent's helper, and its offer with
    it: the child's next iteration trains every satellite itself, with the same outputs."""
    alone = one_cpu(monkeypatch, "SIA", 2, seed=26)
    pipe, child = [], []

    def fork(n):
        pipe.extend(os.pipe())  # after the helper's fork, so only the child holds its end
        child.append(os.fork())

    try:
        lines = run("SIA", 2, seed=26, between=fork)
        if child == [0]:
            os.write(pipe[1], b"1" if lines == alone and helper._helper.pid is None else b"0")
    finally:
        if child == [0]:
            os._exit(0)
        os.close(pipe[1])
    assert lines == alone
    assert os.waitpid(child[0], 0)[1] == 0
    with os.fdopen(pipe[0], "rb") as result:
        assert result.read() == b"1"
    assert helper._helper.pid is not None  # the parent's helper still serves


@needs_fork
def test_a_child_forked_later_holds_no_helper_pipe():
    run("SIA", 1)
    ends = (helper._helper._commands, helper._helper._finished)
    pid = os.fork()
    if pid == 0:
        closed = 0
        for fd in ends:
            try:
                os.fstat(fd)
            except OSError:
                closed += 1
        os._exit(0 if closed == len(ends) else 1)
    assert os.waitpid(pid, 0)[1] == 0
    for fd in ends:  # still open here, and the helper still serves
        os.fstat(fd)
    assert helper._helper.pid is not None
