"""Decision invariance under reversal, recoloring and relabeling."""

from __future__ import annotations

import random

from perigid.colored_graph import ColoredGraph, EdgeSubset, z2_rank
from perigid.rigidity import decide_rigidity, is_1d_rigid, is_ross
from perigid.sparsity import is_11k, is_222_sparse, is_colored_laman, is_colored_laman_sparse

from paper_reference import f_value, is_222_graph
from randgen import random_graph, random_potential, random_relabel, random_reversal, with_relabeled, with_reversed


def combinatorial_profile(g: ColoredGraph):
    sub = EdgeSubset.full(g)
    return (
        z2_rank(sub),
        f_value(sub),
        is_11k(sub)[0],
        is_colored_laman_sparse(g),
        is_colored_laman(g),
        is_222_sparse(g),
        is_222_graph(g),
        is_ross(g),
    )


def test_combinatorial_profile_invariance():
    rng = random.Random(61)
    for _ in range(250):
        g = random_graph(rng, nmax=4)
        base = combinatorial_profile(g)
        for transform in (random_reversal, random_potential, random_relabel):
            assert combinatorial_profile(transform(rng, g)) == base


def test_rigidity_status_invariance():
    rng = random.Random(67)
    for _ in range(25):
        g = random_graph(rng, nmax=3)
        base = decide_rigidity(g, seed=1).status
        for transform in (random_reversal, random_potential, random_relabel):
            other = decide_rigidity(transform(rng, g), seed=5)
            assert other.status == base


def test_1d_status_invariance():
    rng = random.Random(71)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(0, n + 2)
        g = ColoredGraph.build(
            n,
            [
                (rng.randrange(n), rng.randrange(n), (rng.randint(-2, 2), 0))
                for _ in range(m)
            ],
        )
        base = is_1d_rigid(g, seed=2).status
        rev = with_reversed(g, [e.id for e in g.edges if rng.random() < 0.5])
        assert is_1d_rigid(rev, seed=7).status == base
        perm = list(range(n))
        rng.shuffle(perm)
        assert is_1d_rigid(with_relabeled(g, perm), seed=8).status == base
