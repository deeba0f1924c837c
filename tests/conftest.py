import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from util import FREE3, K3, PATH3, mixed_system  # noqa: E402


@pytest.fixture(scope="session")
def mixed_free3():
    return mixed_system(FREE3, hecke_q=2.0)


@pytest.fixture(scope="session")
def mixed_path3():
    return mixed_system(PATH3, hecke_q=1.0)


@pytest.fixture(scope="session")
def mixed_k3():
    return mixed_system(K3, hecke_q=2.0)
