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
