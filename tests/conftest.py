import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

# make `import engine_oracles` work regardless of how pytest is invoked
sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

from ncdiamond import Field, FreeAlgebra, load_presentation  # noqa: E402


@pytest.fixture(scope="session")
def irving():
    return load_presentation("irving")


@pytest.fixture(scope="session")
def cohnsasiada():
    return load_presentation("cohnsasiada")


@pytest.fixture(scope="session")
def alg_q():
    return FreeAlgebra(Field.rationals(), ("x", "y"))


@pytest.fixture(scope="session")
def alg_f7():
    return FreeAlgebra(Field.prime(7), ("x", "y"))


@pytest.fixture(scope="session")
def alg_fbig():
    """Over F_p with p = 2^61 - 1, where a product of residues is far past p."""
    return FreeAlgebra(Field.prime((1 << 61) - 1), ("x", "y"))
