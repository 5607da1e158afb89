"""The forked training helper: the same outputs as training in one process, and its lifecycle."""

import contextlib
import hashlib
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import leofl
from leofl import helper, learn
from leofl.config import build_simulation, config_from_dict
from leofl.protocol import Scheme, run_global_iteration
from leofl.sparsify import q_to_count

SCHEMES = ["DENSE_IA", "SIA", "CLSIA", "NO_ISL_DIRECT"]
RAW = {"constellation": {"planes": 2, "sats_per_plane": 8},
       "dataset": {"train_samples": 400, "test_samples": 20}}
needs_fork = pytest.mark.skipif(not helper._FORKS or helper.cpus() < 2,
                                reason="the helper needs os.fork, memfd and a second CPU")


@pytest.fixture
def deadline():
    """Fail, instead of hanging the suite, when the test takes over a minute."""
    def expired(signum, frame):
        raise TimeoutError("the test did not finish in 60 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def served(monkeypatch):
    """One entry per plane handed to the helper: whether it returned the plane's gradients."""
    planes = []
    original = helper.Helper.gradients

    def counted(self, plane):
        out = original(self, plane)
        planes.append(out is not None)
        return out

    monkeypatch.setattr(helper.Helper, "gradients", counted)
    return planes


def run(scheme: str, iterations: int, seed: int = 0, between=None):
    """Digest lines, one per iteration, of every output a run produces: the weights,
    each plane's t_done and hop records, the accuracy and every residual."""
    cfg = config_from_dict(dict(RAW, scheme=scheme, seed=seed))
    planes, hp, w, test, m = build_simulation(cfg)
    q_count = q_to_count(cfg.q, m.dim)
    t, lines = 0.0, []
    for n in range(1, iterations + 1):
        if between is not None and n > 1:
            between(n)
        w, metrics, t = run_global_iteration(planes, Scheme[scheme], w, hp, t, n, q_count, test)
        residuals = hashlib.sha256(b"".join(node.error.residual.tobytes()
                                            for state in planes for node in state.nodes))
        lines.append((hashlib.sha256(w.tobytes()).hexdigest(), t.hex(), metrics.accuracy.hex(),
                      [(pm.t_done.hex(), pm.hop_records) for pm in metrics.plane_metrics],
                      residuals.hexdigest()))
    return lines


def one_cpu(monkeypatch, scheme: str, iterations: int, seed: int = 0):
    with monkeypatch.context() as m:
        m.setattr(helper, "cpus", lambda: 1)
        return run(scheme, iterations, seed)


@needs_fork
@pytest.mark.parametrize("scheme", SCHEMES)
def test_helper_path_matches_the_one_cpu_path(monkeypatch, served, scheme):
    alone = one_cpu(monkeypatch, scheme, 3)
    assert served == []
    assert run(scheme, 3) == alone
    assert served == [True] * 3 * 2


@needs_fork
def test_a_killed_helper_leaves_the_run_identical(monkeypatch, served, deadline):
    # a draw of its own: its helper stays dead until a new draw replaces it
    alone = one_cpu(monkeypatch, "SIA", 3, seed=21)
    pids = []

    def kill(n):
        if n == 2:
            pids.append(helper._helper.pid)
            os.kill(pids[0], signal.SIGKILL)

    assert run("SIA", 3, seed=21, between=kill) == alone
    # served in iteration 1 only; the dead helper was reaped and not forked again
    assert served[:2] == [True, True] and not any(served[2:])
    assert helper._helper.pid is None
    with pytest.raises(ProcessLookupError):
        os.kill(pids[0], 0)


@needs_fork
def test_a_rebound_training_function_reaches_every_satellite(monkeypatch, served):
    calls = []

    def rebind(n):
        original = learn.sat_learn_proc

        def counted(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(learn, "sat_learn_proc", counted)

    run("SIA", 2, between=rebind)
    assert served == [True, True]
    assert len(calls) == 2 * 8 and len({id(dataset) for dataset in calls}) == 16


@needs_fork
def test_a_helper_that_dies_mid_iteration_leaves_the_run_identical(monkeypatch, served, deadline):
    # a draw of its own, so the helper is forked with a training function that ends it
    alone = one_cpu(monkeypatch, "SIA", 2, seed=22)
    parent, original = os.getpid(), learn.sat_learn_proc

    def dies_in_the_helper(*args):
        if os.getpid() != parent:
            os._exit(1)
        return original(*args)

    monkeypatch.setattr(learn, "sat_learn_proc", dies_in_the_helper)
    assert run("SIA", 2, seed=22) == alone
    assert served == [False, False]  # both planes of iteration 1, then no helper
    assert helper._helper.pid is None


@needs_fork
def test_no_helper_outlives_its_process(tmp_path, deadline):
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
