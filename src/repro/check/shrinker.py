"""Delta-debugging (ddmin) over fault-clause atoms.

When the explorer finds a failing schedule it usually carries several
clauses that have nothing to do with the bug -- background loss, an
unrelated partition.  :func:`ddmin` reduces the clause list to a
1-minimal subset: removing any single remaining clause makes the
failure disappear.  The classic Zeller/Hildebrandt algorithm, with a
memo so the (expensive: each probe is a full simulated run) predicate
is never evaluated twice on the same subset.
"""

from __future__ import annotations

import typing as _t

__all__ = ["ddmin"]


def ddmin(
    clauses: _t.Sequence[str],
    fails: _t.Callable[[_t.List[str]], bool],
    max_probes: int = 64,
) -> _t.Tuple[_t.List[str], int]:
    """Minimise ``clauses`` while ``fails(subset)`` stays true.

    ``fails`` must be deterministic (the checker replays each candidate
    with a fixed seed).  Returns ``(minimal_clauses, probes_used)``.
    Stops early -- returning the best reduction so far -- if the probe
    budget runs out.  One clause or none is already minimal: it comes
    back as ``(clauses, 0)`` without a call to ``fails``.
    """
    items = list(clauses)
    if len(items) <= 1:
        return items, 0
    if not fails(items):
        raise ValueError("ddmin: initial schedule does not fail")
    memo: _t.Dict[_t.Tuple[str, ...], bool] = {tuple(items): True}
    probes = 0

    def probe(subset: _t.List[str]) -> bool:
        nonlocal probes
        key = tuple(subset)
        if key not in memo:
            probes += 1
            memo[key] = fails(subset)
        return memo[key]

    granularity = 2
    while len(items) >= 2 and probes < max_probes:
        chunk = max(1, len(items) // granularity)
        subsets = [
            items[i:i + chunk] for i in range(0, len(items), chunk)
        ]
        reduced = False
        # Try each subset alone, then each complement.
        for subset in subsets:
            if probes >= max_probes:
                break
            if len(subset) < len(items) and probe(subset):
                items = subset
                granularity = 2
                reduced = True
                break
        if not reduced:
            for i in range(len(subsets)):
                if probes >= max_probes:
                    break
                complement = [
                    c
                    for j, s in enumerate(subsets)
                    if j != i
                    for c in s
                ]
                if complement and len(complement) < len(items) and probe(
                    complement
                ):
                    items = complement
                    granularity = max(granularity - 1, 2)
                    reduced = True
                    break
        if not reduced:
            if granularity >= len(items):
                break
            granularity = min(len(items), granularity * 2)
    return items, probes
