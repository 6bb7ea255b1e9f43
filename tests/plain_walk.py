"""The free-slot walk as it was before the tight-node step: under every
node it tries each of a menu's entries in turn, and a child that the
rank bound rejects is skipped there.  Kept here as the reference the
search's tight-node step is tested against; it records where each
entry's subtree starts and ends under a tight node, so that tests can
place budget caps inside the runs of entries the search skips by
count."""

from operator import gt

from convertbw.convertible import ConversionScheme
from convertbw.linalg import enumerate_subspaces
from convertbw.search import SearchOutcome, _CutTable, _level


class _Cap(Exception):
    pass


def plain_walk(ens, budget, tight=None):
    """min_bandwidth_exhaustive's outcome by the menu-by-menu walk.  If
    tight is a list, each tight node appends (start, [(i, end, pruned)
    for each entry i]) to it: the position before its first entry, and
    per entry the position after its subtree and whether the child was
    rejected by the rank bound (at the last depth: a leaf that does not
    cover the targets)."""
    p = ens.params
    pk = ens.packing
    insert, modulo = pk.insert, pk.modulo
    subspaces = [enumerate_subspaces(p.alpha, ens.field, d) for d in range(p.alpha + 1)]
    sizes = tuple(map(len, subspaces))
    mapped = [[[ens.times(m.data, v) for m in subs] for subs in subspaces]
              for v in ens.initial_nodes]
    slots = len(mapped)
    targets = modulo([], [r for v in ens.final_parities for r in ens.packed(v)])
    cap = p.ki * p.alpha
    if budget.max_total_dim is not None:
        cap = min(cap, budget.max_total_dim)
    visited = 0

    def skip(schemes):
        nonlocal visited
        if visited + schemes > budget.max_visits:
            visited = budget.max_visits
            raise _Cap
        visited += schemes

    def walk(depth, basis, residual, combo):
        if depth == len(menus):
            skip(1)
            return None if residual else combo
        if len(residual) > left[depth]:
            skip(below[depth])
            return None
        record = None
        if tight is not None and len(residual) == left[depth]:
            record = []
            tight.append((visited, record))
        for i, rows in enumerate(menus[depth]):
            new_basis = insert(list(basis), rows)
            joined = new_basis[len(basis):]
            combo[free[depth]] = i
            child = modulo(joined, residual)
            found = walk(depth + 1, new_basis, child, combo)
            if record is not None:
                last = depth + 1 == len(menus)
                record.append((i, visited, bool(child) if last
                               else len(child) > left[depth + 1]))
            if found is not None:
                return found
        return None

    need = _CutTable(pk, [ens.packed(v) for v in ens.initial_nodes], targets)
    try:
        for gamma in range(len(targets), cap + 1):
            for profile, schemes, masks, sums, free, left, below in \
                    _level(gamma, slots, p.alpha, sizes):
                if any(map(gt, map(need.__getitem__, masks), sums)):
                    skip(schemes)
                    continue
                fixed = insert([], [
                    r for s, d in enumerate(profile) if sizes[d] == 1
                    for r in mapped[s][d][0]])
                menus = [[modulo(fixed, rows) for rows in mapped[s][profile[s]]]
                         for s in free]
                combo = walk(0, [], modulo(fixed, targets), [0] * slots)
                if combo is not None:
                    scheme = ConversionScheme(p, tuple(
                        subspaces[d][i] for d, i in zip(profile, combo)))
                    return SearchOutcome("found", gamma=gamma, scheme=scheme,
                                         visited=visited)
    except _Cap:
        return SearchOutcome("max-visits", visited=visited)
    return SearchOutcome("max-total-dim", visited=visited)
