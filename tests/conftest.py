import pytest

from ordspectra import oracle
from ordspectra import torus_spectra as ts
from ordspectra.data import default_store


@pytest.fixture(scope="session")
def get_group():
    """Session-wide cache of oracle constructions (they are expensive)."""
    cache = {}

    def build(kind, n, q):
        key = (kind, n, q)
        if key not in cache:
            cache[key] = oracle.build_classical(kind, n, q)
        return cache[key]

    return build


@pytest.fixture(scope="session")
def store():
    return default_store()


@pytest.fixture
def level_one_passes(monkeypatch):
    """An empty level-1 cache for the test, and the sizes of the passes
    ``_tau_lcm_sums`` runs in it, in order."""
    sizes = []
    tau_lcm_sums = ts._tau_lcm_sums

    def counted(size, kinds):
        sizes.append(size)
        return tau_lcm_sums(size, kinds)

    monkeypatch.setattr(ts, "_level_one_sums", {})
    monkeypatch.setattr(ts, "_tau_lcm_sums", counted)
    return sizes
