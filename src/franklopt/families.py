"""Set families over a ground set [n] = {1, ..., n}, encoded as bitmasks.

Conventions:
  - A set S subseteq [n] is stored as an int mask with bit k-1 set iff
    element k is in S.  The public API is 1-based (elements 1..n); the
    bit layout is internal.
  - A Family is canonical: its masks are distinct and sorted ascending,
    so two families are equal iff their fields are equal.
  - Ground sets are capped at 16 elements; every mask fits a half-word
    and the power set fits in 65536 entries.

All operations are pure; Family and TwinPair are immutable values and
safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

MAX_GROUND_SET = 16


def mask_from_elements(elements: Iterable[int], n: int) -> int:
    """Build the bitmask of a subset given 1-based element indices."""
    mask = 0
    for e in elements:
        if not 1 <= e <= n:
            raise ValueError(f"element {e} out of range 1..{n}")
        mask |= 1 << (e - 1)
    return mask


def elements_from_mask(mask: int) -> tuple[int, ...]:
    """1-based element indices of a bitmask, ascending."""
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return tuple(out)


@dataclass(frozen=True)
class Family:
    """A duplicate-free collection of subsets of [n], canonically sorted."""

    n: int
    sets: tuple[int, ...]

    @property
    def m(self) -> int:
        """Number of member sets."""
        return len(self.sets)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1


def family_from_masks(n: int, masks: Iterable[int]) -> Family:
    """Canonicalize an iterable of masks into a Family (duplicates merged)."""
    if not 1 <= n <= MAX_GROUND_SET:
        raise ValueError(f"ground-set size {n} out of range 1..{MAX_GROUND_SET}")
    full = (1 << n) - 1
    uniq = sorted(set(masks))
    for mask in uniq:
        if mask < 0 or mask & ~full:
            raise ValueError(f"mask {mask} does not fit in {n} bits")
    return Family(n, tuple(uniq))


def make_family(n: int, sets: Sequence[Iterable[int]]) -> Family:
    """Build a canonical Family from element lists.

    Input order is irrelevant; duplicate sets are rejected rather than
    silently merged.
    """
    if not 1 <= n <= MAX_GROUND_SET:
        raise ValueError(f"ground-set size {n} out of range 1..{MAX_GROUND_SET}")
    masks = [mask_from_elements(s, n) for s in sets]
    seen = set()
    for mask in masks:
        if mask in seen:
            raise ValueError(f"duplicate set {{{','.join(map(str, elements_from_mask(mask)))}}}")
        seen.add(mask)
    return Family(n, tuple(sorted(masks)))


def is_union_closed(fam: Family) -> bool:
    """True iff the union of any two member sets is a member.

    The empty family and any single-set family are union-closed.
    """
    members = set(fam.sets)
    sets = fam.sets
    for i, t in enumerate(sets):
        for u in sets[i + 1 :]:
            if t | u not in members:
                return False
    return True


def union_closure(fam: Family) -> Family:
    """Smallest union-closed superfamily on the same ground set."""
    closed = set(fam.sets)
    frontier = list(closed)
    while frontier:
        fresh = []
        for t in frontier:
            for u in closed:
                v = t | u
                if v not in closed:
                    fresh.append(v)
        for v in fresh:
            closed.add(v)
        frontier = fresh
    return Family(fam.n, tuple(sorted(closed)))


def frequencies(fam: Family) -> tuple[int, ...]:
    """Per-element membership counts: counts[e-1] = |{S in F : e in S}|."""
    counts = [0] * fam.n
    for mask in fam.sets:
        while mask:
            low = mask & -mask
            counts[low.bit_length() - 1] += 1
            mask ^= low
    return tuple(counts)


def degree(fam: Family) -> int:
    """Maximum per-element membership count; 0 for empty or {empty set}."""
    if not fam.sets:
        return 0
    return max(frequencies(fam))


@dataclass(frozen=True)
class TwinPair:
    """Two member sets differing in exactly one element.

    ``big == little | (1 << (diff - 1))``; the pair is trivial when the
    big twin is the full ground set.
    """

    little: int
    big: int
    diff: int
    trivial: bool


def twin_pairs(fam: Family, e: int) -> list[TwinPair]:
    """All member pairs (S, S + {e}) with e not in S, by little mask ascending."""
    if not 1 <= e <= fam.n:
        raise ValueError(f"element {e} out of range 1..{fam.n}")
    bit = 1 << (e - 1)
    members = set(fam.sets)
    full = fam.full_mask
    out = []
    for little in fam.sets:
        if little & bit:
            continue
        big = little | bit
        if big in members:
            out.append(TwinPair(little, big, e, big == full))
    return out


def twin_counts(fam: Family) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-element twin-pair counts as (non-trivial, total) tuples."""
    nontrivial = []
    total = []
    for e in range(1, fam.n + 1):
        pairs = twin_pairs(fam, e)
        total.append(len(pairs))
        nontrivial.append(sum(1 for p in pairs if not p.trivial))
    return tuple(nontrivial), tuple(total)


def min_nontrivial_twin_count(fam: Family) -> int:
    """Min over elements of the number of non-trivial twin pairs.

    Zero means some element is not a non-trivial twin difference.
    """
    nontrivial, _ = twin_counts(fam)
    return min(nontrivial)


def clone_element(fam: Family, e: int) -> Family:
    """Extend the ground set by one element lying in exactly the sets of e.

    Preserves union-closedness, the set count and the degree.
    """
    if not 1 <= e <= fam.n:
        raise ValueError(f"element {e} out of range 1..{fam.n}")
    if fam.n >= MAX_GROUND_SET:
        raise ValueError(f"ground set already at maximum width {MAX_GROUND_SET}")
    bit = 1 << (e - 1)
    new_bit = 1 << fam.n
    masks = tuple(mask | new_bit if mask & bit else mask for mask in fam.sets)
    return Family(fam.n + 1, tuple(sorted(masks)))


def delete_element(fam: Family, e: int) -> Family:
    """Drop element e from every set; sets that collide are merged.

    Elements above e shift down by one so the result is canonical on
    [n-1].  On a union-closed input the result is union-closed, and the
    number of merged collisions equals the number of twin pairs with
    difference e.
    """
    if fam.n < 2:
        raise ValueError("cannot delete from a 1-element ground set")
    if not 1 <= e <= fam.n:
        raise ValueError(f"element {e} out of range 1..{fam.n}")
    low = (1 << (e - 1)) - 1
    new_masks = {(mask & low) | ((mask >> e) << (e - 1)) for mask in fam.sets}
    return Family(fam.n - 1, tuple(sorted(new_masks)))


def add_largest_missing_set(fam: Family) -> Family:
    """Add an absent set of maximum cardinality (ties: largest mask).

    On a union-closed input the result stays union-closed and no element
    frequency grows by more than one.
    """
    members = set(fam.sets)
    if len(members) == 1 << fam.n:
        raise ValueError("family is already the full power set")
    best = -1
    best_size = -1
    for mask in range(fam.full_mask, -1, -1):
        if mask in members:
            continue
        size = mask.bit_count()
        if size > best_size:
            best, best_size = mask, size
    return Family(fam.n, tuple(sorted(members | {best})))


def remove_smallest_set(fam: Family) -> Family:
    """Remove a member of minimum cardinality (ties: smallest mask).

    A smallest member is never the union of two other members, so a
    union-closed input stays union-closed.
    """
    if not fam.sets:
        raise ValueError("family is empty")
    victim = min(fam.sets, key=lambda mask: (mask.bit_count(), mask))
    return Family(fam.n, tuple(mask for mask in fam.sets if mask != victim))


def falgas_ravry_sets(fam: Family) -> Optional[list[int]]:
    """Separating-set construction witnessing degree >= n.

    Expects a union-closed, non-empty family.  Applicable only when the
    elements are pairwise separated (for every ordered pair (u, v) some
    member contains u but not v) and the full ground set is a member.
    When applicable, returns n distinct member masks, all containing the
    most frequent element: rank the elements by decreasing frequency
    (ties: lower index first); the j-th returned mask is the union of
    separating sets containing each of the first j ranks but not rank
    j+1, and the last is the full set.  Returns None when not applicable.
    """
    n = fam.n
    if not fam.sets:
        return None
    if fam.full_mask not in fam.sets:
        return None

    freq = frequencies(fam)
    ranked = sorted(range(1, n + 1), key=lambda e: (-freq[e - 1], e))

    # separator[u][v]: first member containing u but not v, canonical order
    separator: dict[tuple[int, int], int] = {}
    for u in range(1, n + 1):
        ubit = 1 << (u - 1)
        for v in range(1, n + 1):
            if u == v:
                continue
            vbit = 1 << (v - 1)
            for mask in fam.sets:
                if mask & ubit and not mask & vbit:
                    separator[u, v] = mask
                    break
            else:
                return None

    out = []
    for j in range(2, n + 1):
        union = 0
        for i in range(1, j):
            union |= separator[ranked[i - 1], ranked[j - 1]]
        out.append(union)
    out.append(fam.full_mask)
    return out


def relabel_elements(fam: Family, perm: Sequence[int]) -> Family:
    """Apply a permutation of element labels; perm[old-1] = new label."""
    if sorted(perm) != list(range(1, fam.n + 1)):
        raise ValueError("perm must be a permutation of 1..n")
    shift = [perm[i] - 1 for i in range(fam.n)]
    masks = []
    for mask in fam.sets:
        new_mask = 0
        i = 0
        while mask:
            if mask & 1:
                new_mask |= 1 << shift[i]
            mask >>= 1
            i += 1
        masks.append(new_mask)
    return Family(fam.n, tuple(sorted(masks)))


def sort_by_frequency(fam: Family) -> Family:
    """Relabel elements so frequencies are non-increasing in the label.

    Ties keep the original relative order.  The result satisfies the
    frequency-order constraint chain of the minimization models.
    """
    freq = frequencies(fam)
    ranked = sorted(range(1, fam.n + 1), key=lambda e: (-freq[e - 1], e))
    perm = [0] * fam.n
    for new_label, old in enumerate(ranked, start=1):
        perm[old - 1] = new_label
    return relabel_elements(fam, perm)


# --- text format ---------------------------------------------------------
#
# First line "n=<k>"; one set per line as comma-separated ascending element
# indices, "{}" for the empty set; '#' starts a comment.  Written files are
# canonically sorted, so write -> read -> write is byte-identical.


def family_to_text(fam: Family) -> str:
    lines = [f"n={fam.n}"]
    for mask in fam.sets:
        elems = elements_from_mask(mask)
        lines.append(",".join(map(str, elems)) if elems else "{}")
    return "\n".join(lines) + "\n"


def family_from_text(text: str) -> Family:
    n = None
    element_lists: list[list[int]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            if not line.startswith("n="):
                raise ValueError(f"expected 'n=<k>' header, got {line!r}")
            n = int(line[2:])
            continue
        if line == "{}":
            element_lists.append([])
        else:
            element_lists.append([int(tok) for tok in line.split(",")])
    if n is None:
        raise ValueError("missing 'n=<k>' header")
    return make_family(n, element_lists)


def read_family(path) -> Family:
    with open(path, "r", encoding="utf-8") as fh:
        return family_from_text(fh.read())


def write_family(fam: Family, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(family_to_text(fam))
