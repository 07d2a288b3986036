import os
import random
from pathlib import Path

import pytest

from kcut import decomposition
from kcut.graph import MultiGraph

# The CLI determinism tests run ``python -m kcut.cli`` in a subprocess; point
# it at this checkout's sources, as ``pythonpath`` in pyproject.toml does for
# the test process itself.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def connected_multigraph(seed: int, n_lo=5, n_hi=9, extra_hi=6, mult_max=3) -> MultiGraph:
    """Seeded connected multigraph: random spanning tree plus extra edges,
    parallel picks folded into multiplicities."""
    rng = random.Random(seed)
    n = rng.randint(n_lo, n_hi)
    picks = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(rng.randint(0, extra_hi)):
        u, v = rng.sample(range(n), 2)
        picks.append((u, v))
    counts: dict[tuple[int, int], int] = {}
    for u, v in picks:
        key = (min(u, v), max(u, v))
        counts[key] = min(mult_max, counts.get(key, 0) + rng.randint(1, mult_max))
    edges = [(u, v, c) for (u, v), c in sorted(counts.items())]
    return MultiGraph.multi(n, edges)


@pytest.fixture
def refinements(monkeypatch):
    """The (before, after) potentials of every refinement the decomposition
    builder makes during the test, in order."""
    log = []
    refine = decomposition.refine

    def logged(td, w, s):
        out = refine(td, w, s)
        log.append((decomposition.potential(td, s), decomposition.potential(out, s)))
        return out

    monkeypatch.setattr(decomposition, "refine", logged)
    return log
