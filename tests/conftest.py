import pytest

from momentbounds import engine, markets, partition


@pytest.fixture
def factor_calls(monkeypatch) -> list:
    """Log of the moment matrices passed to the engine's factor_psd."""
    calls = []
    original = engine.factor_psd

    def counting(q):
        calls.append(q)
        return original(q)

    # markets binds the name itself, for caplet_basket, and partition for its
    # dense fallback.
    for module in (engine, markets, partition):
        monkeypatch.setattr(module, "factor_psd", counting)
    return calls
