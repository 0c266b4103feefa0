"""Level-by-level brute-force closure, the reference for ``permgrp.closure``.

Level k + 1 is every product of a level-k element with every generator,
less the elements already seen, so level k holds the elements of word
length k.  The cap is checked before each level joins the result:
``ClosureCapExceeded`` is raised exactly when the closure has more than
``cap`` elements.  The library's ``closure`` skips generators that the
earlier ones already reach; the property tests compare the two on
generating sets padded by ``with_redundant``.
"""

from typing import Callable, Sequence

from hypothesis import strategies as st

from weyl_ising.permgrp import ClosureCapExceeded


def level_closure(identity, generators: Sequence, compose: Callable,
                  cap: int = 10_000) -> set:
    if cap < 1:
        raise ClosureCapExceeded(f"closure exceeds cap {cap}")
    seen = {identity}
    frontier = {identity}
    while frontier:
        frontier = {compose(g, x) for x in frontier for g in generators} - seen
        if len(seen) + len(frontier) > cap:
            raise ClosureCapExceeded(f"closure exceeds cap {cap}")
        seen |= frontier
    return seen


def with_redundant(draw, gens: Sequence, identity, compose: Callable) -> list:
    """``gens`` with the identity and duplicates inserted at drawn places,
    and products ``compose(g, h)`` of two earlier entries appended;
    ``draw`` is Hypothesis's ``data.draw``."""
    out = list(gens)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["identity", "duplicate", "product"]))
        if kind == "product":
            out.append(compose(draw(st.sampled_from(out)),
                               draw(st.sampled_from(out))))
            continue
        extra = identity if kind == "identity" else draw(st.sampled_from(out))
        out.insert(draw(st.integers(0, len(out))), extra)
    return out
