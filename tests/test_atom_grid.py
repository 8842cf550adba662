"""``intervals.AtomGrid`` against frozen copies of the helpers it replaced.

Canonicalization, map rebuilds and the partition check all number the atoms
of one cut grid: the point atom at cut ``k`` is atom ``2k`` and the open gap
after it atom ``2k + 1``.  That numbering used to be written out several
times: ``atoms_from_cuts`` built the atom lists, ``_atom_indices_in``
scanned them for the atoms inside an interval, ``_run_to_interval`` and
``merge_cells`` joined atom runs back into boxes, and ``_atom_count`` in
``maps`` counted a box's atoms from a second rank dict.  The ``seed_*``
functions below are those helpers as they were; ``AtomGrid.spans``,
``count`` and ``merge`` must agree with them on every box and cell set.
The rebuild and canonical-form oracles in ``test_piece_walk.py`` merge
with ``seed_merge_cells`` so they cannot follow a change to the live grid.
"""

from __future__ import annotations

import itertools
import random

import pytest

from boxcorr.intervals import AtomGrid, FlaggedInterval, box_sort_key

I = FlaggedInterval


# ---------------------------------------------------------------------------
# Frozen helpers
# ---------------------------------------------------------------------------

def seed_atoms_from_cuts(cuts):
    """Point atoms and open gap atoms over the sorted cut values."""
    atoms = []
    for i, v in enumerate(cuts):
        atoms.append(FlaggedInterval.point(v))
        if i + 1 < len(cuts):
            atoms.append(FlaggedInterval.open(v, cuts[i + 1]))
    return atoms


def seed_atom_indices_in(atoms, iv):
    """Indices of atoms contained in ``iv`` (atoms never straddle a cut)."""
    out = []
    for i, a in enumerate(atoms):
        if a.is_point:
            if iv.contains(a.lo):
                out.append(i)
        else:
            if iv.lo <= a.lo and a.hi <= iv.hi:
                out.append(i)
    return out


def seed_run_to_interval(atoms, i0, i1):
    """Merge the consecutive atom run ``atoms[i0..i1]`` into one interval."""
    first, last = atoms[i0], atoms[i1]
    return FlaggedInterval(first.lo, last.hi, first.lo_closed, last.hi_closed)


def seed_merge_cells(atom_lists, cells):
    """Merge a set of atomic cells (tuples of atom indices) back into boxes."""
    dim = len(atom_lists)
    parts = [tuple(c) for c in cells]
    for d in range(dim):
        groups = {}
        for part in parts:
            key = part[:d] + part[d + 1:]
            groups.setdefault(key, []).append(part)
        nxt = []
        for key, members in groups.items():
            idxs = sorted(p[d] for p in members)
            start = prev = idxs[0]
            runs = []
            for i in idxs[1:]:
                if i == prev + 1:
                    prev = i
                else:
                    runs.append((start, prev))
                    start = prev = i
            runs.append((start, prev))
            for i0, i1 in runs:
                iv = seed_run_to_interval(atom_lists[d], i0, i1)
                nxt.append(key[:d] + (iv,) + key[d:])
        parts = nxt
    return sorted((tuple(p) for p in parts), key=box_sort_key)


def seed_atom_count(cut_index, box):
    """The number of atoms in ``box`` on a cut grid that holds its endpoints."""
    count = 1
    for index, iv in zip(cut_index, box):
        count *= 2 * (index[iv.hi] - index[iv.lo]) + 1 - (not iv.lo_closed) - (not iv.hi_closed)
    return count


# ---------------------------------------------------------------------------
# Random grids, boxes and cell sets
# ---------------------------------------------------------------------------

_VALUES = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0)


def _random_box(rng, dim):
    """A flagged box on the ``_VALUES`` grid: point intervals, open and
    closed ends, and ``-0.0`` or ``0.0`` at either end."""
    out = []
    for _ in range(dim):
        lo, hi = sorted(rng.sample(_VALUES, 2))
        if lo == hi or rng.random() < 0.2:
            out.append(I.point(lo))
        else:
            out.append(I(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
    return tuple(out)


def random_grids(seed, count=30):
    """``(axes, boxes)`` pairs in 1-4 D: each axis holds the endpoints of the
    boxes and a few more cuts, listed in random order with repeats."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        dim = rng.randint(1, 4)
        boxes = [_random_box(rng, dim) for _ in range(rng.randint(1, 5))]
        axes = []
        for d in range(dim):
            axis = [e for b in boxes for e in (b[d].lo, b[d].hi)]
            axis += rng.sample(_VALUES, rng.randint(0, 3))
            rng.shuffle(axis)
            axes.append(axis)
        out.append((axes, boxes))
    return out


@pytest.mark.parametrize("seed", range(20))
def test_atom_grid_matches_frozen_helpers(seed):
    rng = random.Random(seed)
    for axes, boxes in random_grids(seed):
        grid = AtomGrid(axes)
        cuts = [sorted(set(axis)) for axis in axes]
        atom_lists = [seed_atoms_from_cuts(c) for c in cuts]
        cut_index = [{v: k for k, v in enumerate(c)} for c in cuts]
        assert grid.atoms == atom_lists
        cells = set()
        for b in boxes:
            want = [seed_atom_indices_in(atoms, iv) for atoms, iv in zip(atom_lists, b)]
            assert [list(span) for span in grid.spans(b)] == want, b
            assert grid.count(b) == seed_atom_count(cut_index, b)
            assert list(grid.cells(b)) == list(itertools.product(*want))
            cells.update(grid.cells(b))
        assert repr(grid.merge(cells)) == repr(seed_merge_cells(atom_lists, cells))
        some = rng.sample(sorted(cells), rng.randint(1, len(cells)))
        assert repr(grid.merge(some)) == repr(seed_merge_cells(atom_lists, some))
        idx = some[0]
        assert grid.atom(idx) == tuple(atom_lists[d][i] for d, i in enumerate(idx))

