import mpmath
import numpy as np
import pytest

from momentbounds import engine, moments, partition


@pytest.fixture
def factor_calls(monkeypatch) -> list:
    """Log of the moment matrices passed to the engine's factor_psd."""
    calls = []
    original = engine.factor_psd

    def counting(q):
        calls.append(q)
        return original(q)

    # partition binds the name itself, for its dense fallback.
    for module in (engine, partition):
        monkeypatch.setattr(module, "factor_psd", counting)
    return calls


@pytest.fixture
def assemble_calls(monkeypatch) -> list:
    """Log of the arguments passed to moments.assemble_q."""
    calls = []
    original = moments.assemble_q

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(moments, "assemble_q", counting)
    return calls


@pytest.fixture(scope="session")
def mp_positive_eigenvalue_bound():
    """The bound of a positive definite float Q and one row of quantities to
    50 digits: the sum of the positive eigenvalues of S L S^T, with S^T the
    50-digit Cholesky factor of that same Q.  Session-scoped, so hypothesis
    tests may use it."""

    def bound(q, quantities):
        with mpmath.workdps(50):
            s = mpmath.cholesky(mpmath.matrix(np.asarray(q).tolist())).T
            p = s * mpmath.diag([mpmath.mpf(w) for w in np.asarray(quantities).tolist()]) * s.T
            return sum(max(mu, 0) for mu in mpmath.eigsy(p, eigvals_only=True))

    return bound
