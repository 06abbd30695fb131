import pytest

from momentbounds import engine, markets


@pytest.fixture
def factor_calls(monkeypatch) -> list:
    """Log of the moment matrices passed to the engine's factor_psd."""
    calls = []
    original = engine.factor_psd

    def counting(q):
        calls.append(q)
        return original(q)

    # markets binds the name itself, for the caplet point mass.
    for module in (engine, markets):
        monkeypatch.setattr(module, "factor_psd", counting)
    return calls
