import pytest

from momentbounds import engine


@pytest.fixture
def factor_calls(monkeypatch) -> list:
    """Log of the moment matrices passed to the engine's factor_psd."""
    calls = []
    original = engine.factor_psd

    def counting(q, tol=engine.DEFAULT_TOLERANCES):
        calls.append(q)
        return original(q, tol)

    monkeypatch.setattr(engine, "factor_psd", counting)
    return calls
