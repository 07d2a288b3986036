"""Confirm the generators' certified optima by exhaustive enumeration.

    python3 bench/selftest.py

For small members of each family (n <= 10, and one 12-vertex clique
ring, the smallest with k = 3) it enumerates every partition
into k nonempty parts with code of its own (not kcut's oracle) and checks
that the minimum weight equals the certified optimum.  For the clustered
multigraphs it also checks the certified minimum nontrivial 2-cut and, on
the workloads' own circulant shape, the cluster connectivity the
certificate rests on.  Prints one PASS line per family; exits 1 on a
mismatch.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

from instances import (
    Instance,
    balanced_bundles,
    clique_ring,
    clustered_multigraph,
    planted_weighted,
    skewed_bundles,
)


def _labelings(n: int, k: int):
    """Restricted growth strings of length n with exactly k blocks."""
    labels = [0] * n

    def rec(i: int, used: int):
        if n - i < k - used:
            return
        if i == n:
            yield labels
            return
        for c in range(min(used + 1, k)):
            labels[i] = c
            yield from rec(i + 1, used + (c == used))

    yield from rec(1, 1)


def min_kcut(n: int, records, k: int):
    best = None
    for labels in _labelings(n, k):
        w = sum((w for u, v, w in records if labels[u] != labels[v]), 0)
        if best is None or w < best:
            best = w
    return best


def _expect(label: str, inst: Instance, k: int, want, failures: list[str]) -> None:
    got = min_kcut(inst.n, inst.records, k)
    if got != want:
        failures.append(f"{label}: enumeration gives {got}, certified {want}")


def main() -> int:
    failures: list[str] = []
    rng = random.Random("selftest")
    for n in (9, 10):
        for heavy in range(0, 4):
            inst = planted_weighted(rng, rng, n, heavy)
            _expect(f"planted n={n} heavy={heavy}", inst, 3, inst.opt, failures)
        inst = planted_weighted(rng, rng, n, 1, parallel=3)
        _expect(f"planted n={n} parallel", inst, 3, inst.opt, failures)
    print("PASS planted_weighted" if not failures else "FAIL planted_weighted")

    before = len(failures)
    for cliques, size, k in ((3, 3, 2), (2, 5, 2), (4, 3, 2), (3, 4, 3)):
        inst = clique_ring(rng, cliques, size, k)
        _expect(f"clique ring {cliques}x{size} k={k}", inst, k, inst.opt, failures)
    print("PASS clique_ring" if len(failures) == before else "FAIL clique_ring")

    before = len(failures)
    for eps in (Fraction(1, 2), Fraction(1)):
        for bundles in (balanced_bundles(rng, 20), skewed_bundles(rng, 12, eps)):
            inst = clustered_multigraph(rng, rng, (3, 3, 3), bundles, reach=1)
            _expect(f"clustered {bundles}", inst, 3, inst.opt, failures)
            _expect(f"clustered {bundles} 2-cut", inst, 2, min(inst.facts["incident"]), failures)
    for q in (5, 6, 7, 8):
        inst = clustered_multigraph(rng, rng, (q, 5, 5), (4, 4, 4))
        cluster = [(u, v, w) for u, v, w in inst.records if u < q and v < q]
        lightest = min(w for _, _, w in cluster)
        if min_kcut(q, cluster, 2) < 4 * lightest:
            failures.append(f"C_{q}(1,2) is less than 4 times its lightest multiplicity")
    print("PASS clustered_multigraph" if len(failures) == before else "FAIL clustered_multigraph")

    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
