"""One sha256 over the compiled plans of the five fixtures at depths 0-4 and
of hecke_q1_edgeless3 at depth 7: every lambda/rho pattern (each part, each
cut), the (head, tail) split along every vertex on both sides and along
every vertex set at the front, and the Q_w mask of every nonempty ball word,
which holds the action and shift words of the certificate.

The digest pins the plans byte for byte, dtypes included, so that a change
to how they are compiled that moves any entry shows here even where every
report stays equal.  It was computed before the word maps were rebuilt from
the cover table, and that rebuild left it unchanged."""
import hashlib
import itertools
from pathlib import Path

import numpy as np

from gplab import fock
from gplab.config import load_config

FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.json"))
SPACES = [(p, depth) for p in FIXTURES for depth in range(5)] + [
    (Path(__file__).parent / "fixtures" / "hecke_q1_edgeless3.json", 7)]
DIGEST = "c0b654c4795a5777c4ccd86a67cd859cd613ea5048e3aad8bb3ef7d1f03a25ce"


def _feed(h, label: str, *arrays):
    h.update(label.encode())
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())


def plans_digest() -> str:
    h = hashlib.sha256()
    for path, depth in SPACES:
        space = load_config(path).system.space(depth)
        verts = space.graph.vertices
        at = f"{path.stem}:{depth}"
        for v in verts:
            for left in (True, False):
                for part in fock._PARTS:
                    for cut in range(depth + 1):
                        _feed(h, f"{at}:pattern:{v}:{left}:{part}:{cut}", *fock._side_pattern(space, v, left, part, cut))
                _feed(h, f"{at}:factor:{v}:{left}", *fock._factor(space, (v,), left))
        for k in range(len(verts) + 1):
            for sub in itertools.combinations(verts, k):
                _feed(h, f"{at}:factor:{sub}", *fock._factor(space, sub, True))
        for w in space.group.ball_tuples(depth):
            if w:
                _feed(h, f"{at}:q:{w}", fock.q_mask(space, w))
    return h.hexdigest()


def test_compiled_plans_digest():
    assert plans_digest() == DIGEST
