"""Shared reference models, the randomized valid-model generator, a
traced-memory helper, and a check that no test leaves a child process
or a noise helper thread behind."""

import math
import multiprocessing
import os
import threading
import tracemalloc

import numpy as np
import pytest

from exploratory_lq import LqModel, assumption_bound

# Reference model S1: no diffusion at all (c = d = 0), k2 = (1-sqrt(5))/2.
S1 = LqModel(a=0, b=1, c=0, d=0, m=1, n=1, r=0, p=0, q=0, rho=1, lam=0.2)

# State-independent benchmark with control noise (c = 0 exact-path regime):
# value = q^2/(2 rho n) + lam/(2 rho)(ln(2 pi e lam / n) - 1) = 1.6447299.
BENCH_SI = LqModel(a=0, b=1, c=0, d=1, m=0, n=2, r=0, p=0, q=1, rho=0.5, lam=1.0)

# State-dependent model with both noise channels; Doss-Saussmann applies.
DS_MODEL = LqModel(a=0, b=1, c=0.5, d=1, m=1, n=2, r=0, p=0, q=0, rho=3, lam=0.2)

# d = 0 exact-path regime with state noise (b*q <= 0 branch).
D0_MODEL = LqModel(a=0.2, b=1, c=0.8, d=0, m=0, n=1, r=0, p=0, q=-0.5,
                   rho=2, lam=0.3)

# c = 0 exact-path regime (Ornstein-Uhlenbeck with constant diffusion).
C0_MODEL = LqModel(a=-1, b=1, c=0, d=1, m=0, n=2, r=0, p=0, q=1,
                   rho=0.5, lam=1.0)


def random_valid_model(rng: np.random.Generator, *, state_dependent=True,
                       lam=None, rho=None, rho_margin=(0.2, 2.5)) -> LqModel:
    """Draw a model satisfying every standing assumption.

    Coefficient ranges are kept moderate so closed-form residuals stay
    far above float noise; the discount rate always clears the
    assumption bound by a positive margin (also for m = 0, which keeps
    the decay exponent negative).
    """
    a = rng.uniform(-1.0, 1.0)
    b = rng.uniform(-1.5, 1.5)
    c = rng.uniform(-1.0, 1.0)
    d = rng.uniform(-1.0, 1.0)
    n = rng.uniform(0.3, 3.0)
    if state_dependent:
        m = rng.uniform(0.1, 3.0)
        r_max = 0.9 * math.sqrt(m * n)
        r = rng.uniform(-r_max, r_max)
    else:
        m = 0.0
        r = 0.0
    p = rng.uniform(-1.0, 1.0)
    q = rng.uniform(-1.0, 1.0)
    probe = LqModel(a=a, b=b, c=c, d=d, m=m, n=n, r=r, p=p, q=q,
                    rho=1.0, lam=1.0)
    if rho is None:
        # The bound can be negative; rho must clear it and stay positive.
        rho = max(assumption_bound(probe), 0.0) + rng.uniform(*rho_margin)
    if lam is None:
        lam = rng.uniform(0.05, 2.0)
    return LqModel(a=a, b=b, c=c, d=d, m=m, n=n, r=r, p=p, q=q,
                   rho=float(rho), lam=float(lam))


@pytest.fixture(autouse=True)
def no_child_process_or_helper_thread_left():
    """After every test: no multiprocessing child, no child process of
    any kind (running, or exited and not reaped), and no
    ``normal_block`` helper thread alive."""
    yield
    assert multiprocessing.active_children() == []
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        pass
    else:
        pytest.fail(f"a child process was left behind (waitpid: pid {pid}, "
                    f"status {status}; pid 0 is one still running)")
    assert [t for t in threading.enumerate() if t.name == "normal_block"] == []


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def traced_peak(call) -> int:
    """Peak bytes allocated while ``call()`` runs, as ``tracemalloc``
    sees them (NumPy reports its arrays to it).  Compare two peaks of the
    same call at two sizes rather than one peak with a fixed bound: the
    baseline depends on the interpreter and the library versions."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
