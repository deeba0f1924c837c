import sys
from pathlib import Path

import numpy as np
import pytest

from gplab import words

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


@pytest.fixture
def fresh_group(monkeypatch):
    """Empty the process-wide CoxeterGroup cache for one test, so that every
    space the test builds gets a new group with no spheres, covers or
    down-sets from tests that ran before; call counts then do not depend on
    the test order.  The cache is restored afterwards."""
    monkeypatch.setattr(words, "_group_cache", {})


@pytest.fixture
def lapack_calls(monkeypatch):
    """Record (name, shape of the first argument) of every call of
    np.linalg.eigvalsh, svd and norm made during one test, in call order; the
    functions still run.  A test clears the list before the part it
    measures."""
    calls: list[tuple[str, tuple]] = []
    for name in ("eigvalsh", "svd", "norm"):
        fn = getattr(np.linalg, name)

        def recorded(a, *args, _fn=fn, _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return calls
