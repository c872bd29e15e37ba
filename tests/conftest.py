from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from shintani_forge import cones
from shintani_forge.cli import bundled_config_path
from shintani_forge.cones import Geometry
from shintani_forge.scenario import Runtime, load_config

settings.register_profile(
    "exact", deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=40
)
settings.load_profile("exact")


@pytest.fixture(scope="session")
def config():
    return load_config(bundled_config_path())


@pytest.fixture(scope="session")
def rt(config):
    return Runtime(config)


@pytest.fixture(scope="session")
def spec(config):
    return config.spec


@pytest.fixture(scope="session")
def emb(rt):
    return rt.emb


@pytest.fixture(scope="session")
def geo(rt):
    return rt.geo


@pytest.fixture
def geo_at(emb, monkeypatch):
    """geo_at(w): a fresh geometry on the session's embeddings, with the
    translate cap `cones.WINDOW` set to w for the rest of the test."""

    def at(window):
        monkeypatch.setattr(cones, "WINDOW", window)
        return Geometry(emb)

    return at


@pytest.fixture(scope="session")
def els(config):
    return dict(config.elements)


@pytest.fixture(scope="session")
def pihats(els):
    """Normalized generators for the two identity configurations."""
    e1, e2 = els["eps1"], els["eps2"]
    return {
        "case1": e1**-1 * e2**-2 * els["pi2"],
        "case2": e1**-1 * e2**-2 * els["pi1"],
    }


def rational(rng, max_num=40):
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_num))
