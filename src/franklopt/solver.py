"""Exact search for the union-closed optimization problems.

``solve`` runs a depth-first branch-and-bound over set-inclusion
decisions.  Sets are decided in a fixed order (descending cardinality,
then descending bit pattern), so the union of two distinct
earlier-decided sets is itself already decided, and the leaves reached
are exactly the union-closed families.  A set m is *blocked* once some
included t has t|m excluded: m can then never join the family below that
node.  Only an inclusion blocks new sets (every set is decided before its
proper subsets), so the search keeps the blocked sets as one bitset,
grown on inclusion and restored on undo, and including m needs only the
test that m is not blocked.  The bounds count only *available* sets:
undecided, not blocked, and free of any element already at the degree
cap.  Pruning:

  - per-element inclusion counters against the degree cap (F/FT) or the
    incumbent (G/GT);
  - a symmetry reduction to families whose final element frequencies can
    still be non-increasing in the label (every family has such a
    relabeling, and all four objectives are label-invariant): the bound
    on each element's final frequency is carried down the labels;
  - a tie-break between adjacent labels: among the sorted relabelings of
    a family the search keeps the one it reaches first, so once the sets
    decided so far show that swapping labels i and i+1 would give a
    family the search reaches earlier, the family must end with
    deg[i] > deg[i+1] (swapping two tied labels keeps degrees sorted);
  - an optimistic completion bound combining the per-element capacity
    left among the available sets with the sizes of the cheapest
    available sets, over the cardinalities still undecided, with closure
    counts: k singletons need their k(k-1)/2 pairwise unions, and k pairs
    at one element their k(k-1)/2 triples at it, in the family or still
    available, so no more join than those allow;
  - for the twin kinds, the non-trivial twin pairs (S, S+e) of each
    element, read off the decided-set bitsets with no per-element
    counters: a pair is dead once S or S+e is excluded, and a branch dies
    when some element has no live pair left; a G/GT leaf needs, for every
    element, a pair with S and S+e both in.

The search is one non-recursive loop over a depth counter, for all four
kinds: the objective sets the degree cap, the set count a branch must
still reach, the leaf, the root bound at which the search stops early,
and the child order (include first when maximizing, exclude first when
minimizing).

Each solve is one run of that loop in one process, so runs are fully
deterministic, including the witness and the node count.

``exhaustive_oracle`` answers the same questions for n <= 4 by filtering
every subset of the power set through the family-core predicates.  It
shares none of the search machinery and exists to cross-check ``solve``.
"""

from __future__ import annotations

import enum
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .families import Family, degree, is_union_closed, min_nontrivial_twin_count, sort_by_frequency
from .models import ModelInstance


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ABORTED = "aborted"


@dataclass(frozen=True)
class SearchBudget:
    """Node and wall-time limits, each None (unlimited) or positive."""

    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self):
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ValueError(f"max_nodes must be at least 1, got {self.max_nodes}")
        if self.max_seconds is not None and not self.max_seconds > 0:
            raise ValueError(f"max_seconds must be positive, got {self.max_seconds}")


UNLIMITED = SearchBudget()


@dataclass
class SearchStats:
    """Cost of one solve.

    ``nodes`` counts the search-tree nodes visited, the root included;
    the node budget is checked against it.  ``propagations`` counts three
    prunes only: a node cut by the per-element scan (degree cap, symmetry
    or the tied-label tie-break), an inclusion refused because the set is
    blocked or would break the degree cap, and an exclusion that leaves
    some element with no live twin pair.  It does not count nodes cut by
    the set-count test or the capacity bound, the closure counts in it
    included, nor leaves the twin cover rejects; where the pair closure
    lowers an element's available count, a cut that follows in the scan
    is counted.  ``seconds`` is the wall time of the search, tables
    included.
    """

    nodes: int = 0
    propagations: int = 0
    seconds: float = 0.0


@dataclass(frozen=True)
class SolveOutcome:
    """Result of one exact solve.

    Optimal outcomes carry the exact value and one witness family.
    Aborted outcomes never report a value; the best incumbent found, if
    any, is exposed separately and is only a bound.
    """

    status: Status
    value: Optional[int] = None
    witness: Optional[Family] = None
    stats: SearchStats = field(default_factory=SearchStats)
    incumbent_value: Optional[int] = None
    incumbent_witness: Optional[Family] = None


def _search(inst: ModelInstance, budget: SearchBudget) -> SolveOutcome:
    """One branch-and-bound run over the whole decision tree."""
    started = time.monotonic()
    # a limit that is set is positive, so `or` only replaces None
    max_nodes = budget.max_nodes or float("inf")
    deadline = started + (budget.max_seconds or float("inf"))
    n = inst.n
    size = 1 << n
    half = size >> 1
    param = inst.param
    maximize = inst.kind.maximize
    twin = inst.kind.twin
    order = sorted(range(size), key=lambda s: (-s.bit_count(), -s))
    # tail[k]: total cardinality of the k cheapest (last) sets, for `target`
    tail = [0] * (size + 1)
    for k in range(1, size + 1):
        tail[k] = tail[k - 1] + order[size - k].bit_count()
    order.append(0)  # past the last decision no set is undecided
    elems = [tuple(e for e in range(n) if mask >> e & 1) for mask in range(size)]
    full = size - 1
    # bitsets over masks: the sets containing each element, the sets of
    # each cardinality, and the pairs and the triples at each element
    with_elem = [_subsets(full ^ 1 << e) << (1 << e) for e in range(n)]
    of_card = [1]
    for e in range(n):
        of_card = [a | b << (1 << e) for a, b in zip(of_card + [0], [0] + of_card)]
    singles = of_card[1]
    pairs = of_card[2] if n > 1 else 0
    pairs_at = [with_elem[e] & pairs for e in range(n)]
    triples_at = [with_elem[e] & of_card[3] if n > 2 else 0 for e in range(n)]
    most = _most(n * (n - 1) // 2)
    every = (1 << size) - 1
    deg = [0] * n
    # bitsets over masks: the undecided and the excluded sets (a decided
    # set not excluded is in), and the blocked ones, which some included t
    # closes off (t|m is excluded); a blocked set stays blocked below
    undec = every
    outbits = blocked = 0
    # the tie-break state of each label pair (i, i+1), see `_settle`
    tie = 0
    trail: list[tuple[int, int]] = []  # (blocked, tie) before each decision
    labels = half - 1  # bit i for each pair (i, i+1) with i+1 < n
    first_out = 0 if maximize else 1  # 1 when the first child excludes
    best: Optional[int] = None
    best_masks: Optional[tuple[int, ...]] = None
    aborted = False

    # littles[e]: the little twins S of e's non-trivial twin pairs
    # (S, S+e), the sets without e whose S+e is not the full set
    littles = [_subsets(full ^ 1 << e) ^ 1 << (full ^ 1 << e) for e in range(n)] if twin else []

    # What the objective decides: the degree cap `cap`, the set count
    # `goal` a branch must still be able to reach, the leaf, and the root
    # bound `target` whose attainment ends the search.
    if maximize:
        cap = param
        goal = 1  # incumbent + 1, with no incumbent counted as 0
        target = min(bisect_right(tail, n * min(param, half)) - 1, size)
    else:
        cap = half  # incumbent - 1 once there is one
        goal = param
        target = next(
            (v for v in range(half)
             if v + half >= param and bisect_right(tail, n * v) - 1 >= param),
            half,
        )

    monotonic = time.monotonic
    nodes = props = 0
    depth = 0
    # visit False: the node at `depth` is done, undo the decision above it.
    # An element without any twin pair leaves nothing to search.
    visit = not _twinless(littles, outbits)
    while True:
        if visit:
            nodes += 1
            if nodes > max_nodes or not nodes & 1023 and monotonic() > deadline:
                aborted = True
                break
            avail = undec & ~blocked
            # elements at the cap take their sets out (`in` suffices: a
            # degree past the cap fails the scan anyway)
            if cap in deg:
                for i in range(n):
                    if deg[i] >= cap:
                        avail &= ~with_elem[i]
            n_avail = avail.bit_count()
            inc = every ^ undec ^ outbits
            need = goal - inc.bit_count()
            if need > n_avail and not maximize:  # before the scan, unlike `k < need`
                visit = False
                continue
            caps_left = 0
            limit = n_avail
            # symmetry reduction: explore only families whose final
            # frequencies can still be non-increasing in the label (a
            # relabeling always exists).  `reach` bounds the final deg[i]:
            # the cap for i = 0, then min(reach, deg[i-1] + r), r the sets
            # with i-1 that can still join, less one when the tie-break
            # found the pair (i-1, i) unfavourable.
            reach = cap
            unfav = tie >> n
            cur = order[depth].bit_count()  # no larger set is undecided
            live = avail | inc  # included or available
            # pair closure, while 3- or 2-sets are decided: k pairs at i
            # need their k(k-1)/2 triples at i, so at most most[live
            # triples at i] pairs at i can be in; the live ones over that
            # count cannot all join
            close = 1 < cur < 4
            over = 0  # those pairs, summed over the elements
            for i in range(n):
                d = deg[i]
                if reach < d:
                    visit = False
                    break
                r = (avail & with_elem[i]).bit_count()
                if close:
                    x = (live & pairs_at[i]).bit_count() - most[(live & triples_at[i]).bit_count()]
                    if x > 0:
                        r -= x
                        over += x
                room = reach - d
                if room < r:
                    caps_left += room
                else:
                    caps_left += r
                    reach = d + r
                reach -= unfav >> i & 1
                avoid = room + n_avail - r
                if avoid < limit:
                    limit = avoid
            if not visit:
                props += 1
                continue
            # capacity bound: the cheapest available sets that still fit,
            # over the cardinalities still undecided; the empty set is free.
            # At most most[live pairs] singletons can be in; the pairs that
            # can join fill at most half the room the closure counts leave
            # at the elements, as every pair sits at two.
            k = avail & 1
            for j in range(1, cur + 1):
                c = (avail & of_card[j]).bit_count()
                if j == 1:
                    room = most[(live & pairs).bit_count()] - (live & singles).bit_count() + c
                    if c > room:
                        c = room
                elif j == 2:
                    c -= over + 1 >> 1
                if c * j > caps_left:
                    k += caps_left // j
                    break
                k += c
                caps_left -= c * j
            if k > limit:
                k = limit
            if k < need:
                visit = False
                continue
            if depth == size if maximize else need == 0:
                visit = False
                if maximize:
                    best = inc.bit_count()
                    goal = best + 1
                else:
                    # every element needs a pair with both twins in
                    if twin and not all(s & inc & inc >> (1 << e) for e, s in enumerate(littles)):
                        continue
                    best = max(deg)
                    cap = best - 1
                best_masks = tuple(m for m in range(size) if inc >> m & 1)
                if best == target:
                    break
                continue
            mask = order[depth]
            include = maximize
            second = True  # an untried child remains
        else:
            if depth == 0:
                break
            depth -= 1
            mask = order[depth]
            undec |= 1 << mask
            blocked, tie = trail.pop()
            if not outbits >> mask & 1:
                for e in elems[mask]:
                    deg[e] -= 1
                include = False
            else:
                outbits ^= 1 << mask
                include = True
            if include == maximize:
                continue  # both children tried
            second = False
        if include:
            # decision order makes every union of mask with an included set
            # already decided, so closure holds unless mask is blocked
            if blocked >> mask & 1 or any(deg[e] >= cap for e in elems[mask]):
                props += 1
                if not second:
                    visit = False
                    continue
                include = False  # a refused inclusion leaves the exclusion
        trail.append((blocked, tie))
        undec ^= 1 << mask
        if include:
            if outbits:
                blocked = _block(blocked, outbits, mask, full)
            for e in elems[mask]:
                deg[e] += 1
        else:
            outbits |= 1 << mask
        if mask & ~mask >> 1 & labels & ~tie:  # mask settles a pair
            tie = _settle(tie, mask, outbits, n, first_out)
        depth += 1
        # an exclusion may kill some element's last live twin pair
        visit = include or not (twin and _twinless(littles, outbits))
        if not visit:
            props += 1

    stats = SearchStats(nodes, props, time.monotonic() - started)
    witness = None
    if best_masks is not None:
        witness = Family(n, best_masks)
        if not maximize:
            witness = sort_by_frequency(witness)
    # an aborted search reports its best family only as an incumbent
    if aborted:
        return SolveOutcome(
            Status.ABORTED, stats=stats, incumbent_value=best, incumbent_witness=witness
        )
    if witness is None:
        return SolveOutcome(Status.INFEASIBLE, stats=stats)
    return SolveOutcome(Status.OPTIMAL, best, witness, stats)


def _subsets(t: int) -> int:
    """Bitset over masks of the subsets of t: bit s is set iff s & t == s."""
    bits = 1
    while t:
        low = t & -t
        bits |= bits << low
        t ^= low
    return bits


def _twinless(littles: list[int], outbits: int) -> bool:
    """Whether some element e has no live twin pair: every (S, S+e) with
    S in ``littles[e]`` has S or S+e excluded in ``outbits``."""
    return any(not little & ~(outbits | outbits >> (1 << e)) for e, little in enumerate(littles))


def _most(top: int) -> list[int]:
    """most[t] for t <= top: the largest k with k(k-1)/2 <= t, the most
    sets of one size that t of their pairwise unions leave room for."""
    most = []
    k = 1
    for t in range(top + 1):
        while (k + 1) * k // 2 <= t:
            k += 1
        most.append(k)
    return most


def _settle(tie: int, mask: int, outbits: int, n: int, first_out: int) -> int:
    """``tie`` after deciding ``mask``, excluded iff its bit in ``outbits``.

    ``tie`` holds the tie-break state of each pair of labels i, i+1: bit i
    once the pair is settled, and bit n + i if it settled unfavourable.
    For each set S avoiding i and i+1 the search decides S+{i+1} before
    S+{i}; the first such two sets, in that order, that are decided apart
    settle the pair.  It is favourable if S+{i+1} took the child the
    search tries first (the excluding one iff ``first_out``): the family
    then comes before its copy with i and i+1 swapped.  Otherwise the
    copy comes first, so the family must end with deg[i] > deg[i+1].
    ``mask`` is the S+{i} of every i in it whose i+1 < n is not, and
    settles those pairs that are still open.
    """
    out = outbits >> mask & 1
    pending = mask & ~mask >> 1 & ~tie & (1 << n - 1) - 1
    while pending:
        low = pending & -pending
        if outbits >> (mask + low) & 1 != out:  # S+{i+1} is mask + 2^i
            tie |= low
            if out == first_out:
                tie |= low << n
        pending ^= low
    return tie


def _block(blocked: int, outbits: int, t: int, full: int) -> int:
    """``blocked`` after including t: plus every m whose union with t is
    an excluded set u, that is the subsets of t shifted by u - t.

    The search decides every proper superset of t before t, so these are
    all the sets that t ever blocks.
    """
    hits = outbits & _subsets(full ^ t) << t  # the excluded supersets of t
    if hits:
        below = _subsets(t)
        while hits:
            low = hits & -hits
            blocked |= below << ((low.bit_length() - 1) ^ t)
            hits ^= low
    return blocked


def solve(
    inst: ModelInstance, budget: SearchBudget = UNLIMITED, workers: int = 1
) -> SolveOutcome:
    """Exact optimum of an instance, or Infeasible, or Aborted on budget.

    One deterministic search in the calling process: repeated runs return
    identical outcomes, witness and node count included.  ``workers`` must
    be 1; grids fan whole cells out to processes instead
    (``verify.compute_grid``).
    """
    if workers != 1:
        raise ValueError(f"solve runs one search in one process; workers must be 1, got {workers}")
    return _search(inst, budget)


# -- exhaustive oracle --------------------------------------------------------


@lru_cache(maxsize=8)
def _family_catalog(n: int):
    """Every non-empty union-closed family on [n] with its statistics.

    Enumerates all 2^(2^n) subsets of the power set in increasing
    family-bitmask order and keeps (m, degree, has twin cover, masks) for
    the union-closed ones, judged purely by the family-core predicates.
    """
    catalog = []
    for bits in range(1, 1 << (1 << n)):
        masks = tuple(s for s in range(1 << n) if bits >> s & 1)
        fam = Family(n, masks)
        if not is_union_closed(fam):
            continue
        cover = min_nontrivial_twin_count(fam) >= 1
        catalog.append((len(masks), degree(fam), cover, masks))
    return tuple(catalog)


def exhaustive_oracle(inst: ModelInstance) -> SolveOutcome:
    """Reference optimum by complete enumeration; only for n <= 4."""
    if inst.n > 4:
        raise ValueError(f"exhaustive oracle supports n <= 4, got n={inst.n}")
    started = time.monotonic()
    catalog = _family_catalog(inst.n)
    kind, param = inst.kind, inst.param
    need_cover = kind.twin
    best = None
    best_masks = None
    if kind.maximize:
        for m, deg, cover, masks in catalog:
            if deg <= param and (cover or not need_cover):
                if best is None or m > best:
                    best, best_masks = m, masks
    else:
        for m, deg, cover, masks in catalog:
            if m == param and (cover or not need_cover):
                if best is None or deg < best:
                    best, best_masks = deg, masks
    stats = SearchStats(nodes=len(catalog), seconds=time.monotonic() - started)
    if best is None:
        return SolveOutcome(Status.INFEASIBLE, stats=stats)
    witness = Family(inst.n, best_masks)
    if not kind.maximize:
        witness = sort_by_frequency(witness)
    return SolveOutcome(Status.OPTIMAL, best, witness, stats)
