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
    element, read off the set bitsets with no per-element counters: a
    pair is dead once S or S+e can no longer join the family (it is
    excluded, blocked, or holds an element already at the degree cap),
    and the per-element scan cuts a branch in which some element has no
    live pair left; a G/GT leaf needs, for every element, a pair with S
    and S+e both in.

The search is one non-recursive loop over a depth counter, for all four
kinds: the objective sets the degree cap, the set count a branch must
still reach, the leaf, and the child order (include first when
maximizing, exclude first when minimizing).  Every node closes in one
step that counts why: by a cut, ``count`` (G/GT: fewer available sets
than the set count still needs), ``scan`` (the per-element scan),
``bound`` (the capacity bound), ``cover`` (a G/GT leaf with no twin
cover) or ``refused`` (the last child's inclusion is refused), as a
leaf, or with both children tried.  The search ends only when the root
closes through that step or the budget aborts it, so a solve that is
not aborted has closed every node of its tree exactly once.

Each solve is one run of that loop in one process, so runs are fully
deterministic, including the witness and the node count.

``exhaustive_oracle`` answers the same questions for n <= 4 from the
bitmask of every union-closed family, built from those on [n-1] by
splitting at the top element (``_closed_bits``) and judged by the
family-core predicates.  It shares only the outcome rule (``_outcome``)
with the search and exists to cross-check ``solve``.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from functools import cache
from typing import Optional

from .families import (
    Family,
    _frequencies,
    _subsets,
    _twin_counts,
    _with_element,
    sort_by_frequency,
)
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

CUTS = ("count", "scan", "bound", "cover", "refused")


@dataclass
class SearchStats:
    """Cost of one solve: ``nodes`` counts the search-tree nodes visited,
    the root included, and is checked against the node budget; ``cuts``
    counts the nodes closed by each cut in ``CUTS``.
    """

    nodes: int = 0
    cuts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(CUTS, 0))

    @property
    def propagations(self) -> int:
        """Nodes closed by a cut."""
        return sum(self.cuts.values())


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
    param = inst.param
    maximize = inst.kind.maximize
    twin = inst.kind.twin
    order = sorted(range(size), key=lambda s: (-s.bit_count(), -s))
    order.append(0)  # past the last decision no set is undecided
    elems = [tuple(e for e in range(n) if mask >> e & 1) for mask in range(size)]
    full = size - 1
    # bitsets over masks: the sets containing each element, the sets of
    # each cardinality, and the pairs and the triples at each element
    with_elem = _with_element(n)
    of_card = [1]
    for e in range(n):
        of_card = [a | b << (1 << e) for a, b in zip(of_card + [0], [0] + of_card)]
    singles = of_card[1]
    pairs = of_card[2] if n > 1 else 0
    pairs_at = [with_elem[e] & pairs for e in range(n)]
    triples_at = [with_elem[e] & of_card[3] if n > 2 else 0 for e in range(n)]
    most = _most(n * (n - 1) // 2)
    # the depth of the first 2-set, from which on every triple is decided
    pairs_from = size - 1 - n - n * (n - 1) // 2
    tops: list[int] = []  # see `close`
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
    first_out = 0 if maximize else 1  # 1 when the first child excludes
    best_inc: Optional[int] = None  # the incumbent's sets, as a bitset
    aborted = False

    # littles[e]: the little twins S of e's non-trivial twin pairs
    # (S, S+e), the sets without e whose S+e is not the full set
    littles = [_subsets(full ^ 1 << e) ^ 1 << (full ^ 1 << e) for e in range(n)] if twin else []

    # What the objective decides: the degree cap `cap`, the set count
    # `goal` a branch must still be able to reach, and the leaf.
    if maximize:
        cap = param
        goal = 1  # incumbent + 1, with no incumbent counted as 0
    else:
        cap = size >> 1  # incumbent - 1 once there is one
        goal = param

    monotonic = time.monotonic
    # `closed`: 0 while the node at `depth` is open, then why it closed;
    # the next pass counts that and undoes the decision above the node
    count, scan, bound, cover, refused, leaf, done = range(1, 8)  # CUTS first
    cuts = [0] * 8
    nodes = depth = closed = 0
    while True:
        if not closed:
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
                closed = count
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
            # count cannot all join.  No triple changes while 2-sets are
            # decided, so `tops` counts them once, on entering that phase.
            close = 1 < cur < 4
            if depth == pairs_from:
                tops = [most[(inc & t).bit_count()] for t in triples_at]
            over = 0  # those pairs, summed over the elements
            for i in range(n):
                d = deg[i]
                # a twin kind needs, at each element, a pair (S, S+e) whose
                # twins can both still join
                if reach < d or twin and not littles[i] & live & live >> (1 << i):
                    closed = scan
                    break
                r = (avail & with_elem[i]).bit_count()
                if close:
                    top = tops[i] if cur == 2 else most[(live & triples_at[i]).bit_count()]
                    x = (live & pairs_at[i]).bit_count() - top
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
            if closed:
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
                closed = bound
                continue
            if depth == size if maximize else need == 0:
                if maximize:
                    goal = inc.bit_count() + 1
                else:
                    # every element needs a non-trivial twin pair in
                    if twin and not min(_twin_counts(inc, n)[0]):
                        closed = cover
                        continue
                    cap = max(deg) - 1
                best_inc = inc
                closed = leaf
                continue
            mask = order[depth]
            # decision order makes every union of mask with an included set
            # already decided, so closure holds unless mask is blocked;
            # `avail` drops that and the cap, and a refused inclusion
            # leaves the exclusion
            include = maximize and avail >> mask & 1
        else:
            cuts[closed] += 1
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
                closed = done
                continue
            closed = 0
            # the minimizing include, the last child to try: deg is back to
            # the node's, but cap may have dropped since the node opened
            if include and (blocked >> mask & 1 or any(deg[e] >= cap for e in elems[mask])):
                closed = refused
                continue
        trail.append((blocked, tie))
        undec ^= 1 << mask
        if include:
            blocked = _block(blocked, outbits, mask, full)
            for e in elems[mask]:
                deg[e] += 1
        else:
            outbits |= 1 << mask
        tie = _settle(tie, mask, outbits, n, first_out)
        depth += 1

    stats = SearchStats(nodes, dict(zip(CUTS, cuts[1:])))
    return _outcome(best_inc, goal, cap, n, maximize, stats, aborted)


def _outcome(
    bits: Optional[int], goal: int, cap: int, n: int, maximize: bool, stats: SearchStats,
    aborted: bool = False,
) -> SolveOutcome:
    """The outcome of an engine whose best family, if it found one, has
    member bitset ``bits``.  That family set the goal (maximizing) or the
    cap last, so its value is goal - 1 or cap + 1; a minimizing witness is
    sorted by frequency.  An aborted run reports it only as an incumbent."""
    if bits is None:
        return SolveOutcome(Status.ABORTED if aborted else Status.INFEASIBLE, stats=stats)
    value = goal - 1 if maximize else cap + 1
    witness = Family(n, tuple(s for s in range(1 << n) if bits >> s & 1))
    if not maximize:
        witness = sort_by_frequency(witness)
    if aborted:
        return SolveOutcome(
            Status.ABORTED, stats=stats, incumbent_value=value, incumbent_witness=witness
        )
    return SolveOutcome(Status.OPTIMAL, value, witness, stats)


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


def _closed_bits(n: int) -> list[int]:
    """Bitmask of every union-closed family on [n], the empty family
    included, in increasing order (bit s set when set s is in the family).

    Split a family on [n] by its top element into F0, the sets without
    it, and F1, the sets with it and it removed.  The family is
    union-closed exactly when F0 and F1 are and a|b is in F1 for every a
    in F0 and b in F1; so F0 ranges over the closed families within
    ``allowed``, the sets a with a|b in F1 for every b in F1.  The
    family's bitmask is F0 + F1 * 2^(2^(n-1)), so F1 ascending, then F0
    ascending, is increasing order.
    """
    if n == 0:
        return [0, 1]
    half = 1 << (n - 1)
    parts = _closed_bits(n - 1)
    closed = []
    for f1 in parts:
        members = [b for b in range(half) if f1 >> b & 1]
        allowed = sum(
            1 << a for a in range(half) if all(f1 >> (a | b) & 1 for b in members)
        )
        high = f1 << half
        closed.extend(f0 | high for f0 in parts if not f0 & ~allowed)
    return closed


@cache
def _family_catalog(n: int):
    """(m, degree, has twin cover, bits) for every non-empty union-closed
    family on [n], in increasing bitmask order (``_closed_bits``), judged
    on its bitmask by the family-core predicates."""
    return tuple(
        (bits.bit_count(), max(_frequencies(bits, n)), min(_twin_counts(bits, n)[0]) >= 1, bits)
        for bits in _closed_bits(n)[1:]
    )


def exhaustive_oracle(inst: ModelInstance) -> SolveOutcome:
    """Reference optimum by complete enumeration; only for n <= 4."""
    n, param, maximize, need_cover = inst.n, inst.param, inst.kind.maximize, inst.kind.twin
    if n > 4:
        raise ValueError(f"exhaustive oracle supports n <= 4, got n={n}")
    catalog = _family_catalog(n)
    # As in the search, the objective sets the degree cap and the set
    # counts that beat the best so far, so an entry that passes is the
    # new best and the first best one in catalog order wins.
    cap, goal, most = (param, 1, 1 << n) if maximize else (1 << n, param, param)
    best_bits = None
    for m, deg, cover, bits in catalog:
        if goal <= m and m <= most and deg <= cap and (cover or not need_cover):
            best_bits = bits
            if maximize:
                goal = m + 1
            else:
                cap = deg - 1
    return _outcome(best_bits, goal, cap, n, maximize, SearchStats(nodes=len(catalog)))
