"""Per-cell projections onto the Legendre cell basis of a moving mesh, for
many times at once.

A batch of times is one pass: the edges are moved to every time, each
time's cells are split into panels at the kinks of the projected function,
and the nodes of all panels and times go to one call of that function.
A panel whose two breaks are both cell edges spans its whole cell, so its
nodes' reference coordinates are the rule's own: its moments are one
product of its node values with the fixed weighted Legendre table of the
rule (``moment_table``).  The nodes of the split panels of a cell sum into
its (time, cell) bin one moment at a time, in node order.  Either way a
row's sums run in an order that the batch size does not change, so a batch
gives, bit for bit, the values of one-time projections.

The panel geometry comes in two steps.  A ``PanelPlan`` holds what depends
only on the order of the batch's breaks: which kinks lie inside, the sort
and the ties kept, the break indices at each panel's ends, and each
panel's time and cell; integers only.  ``PanelPlan.apply`` computes from
the break values what depends on them: panel midpoints and half-widths,
nodes and node times, the split panels' weights and reference coordinates,
and the cell of a split panel so narrow that its midpoint rounds onto its
right edge.  A plan holds for the next
batch of as many times as long as the breaks of each time keep their
order, rising where they rose and tying where they tied: a fresh sort would
then give the same plan, so a step attempt that moves no kink past an edge
reuses the last attempt's plan, and ``apply`` always returns its points.

The solver's meshes are right halves of the slab, from x = 0, so each kink
radius s is one break, at x = s.
"""

import numpy as np

from .basis import legendre_rows, legendre_table


def breaks(edges, kinks):
    """The breaks of a batch, flat: the (T, K + 1) edge table, then time by
    time each radius of the (T, R) kink table (NaN where a radius is absent,
    R = 0 for a kink-free profile) strictly inside the time's outer edges;
    and the (T, R) mask of those inside."""
    inside = (edges[:, :1] < kinks) & (kinks < edges[:, -1:])
    return np.concatenate([edges.ravel(), kinks[inside]]), inside


class PanelPlan:
    """The panels of a batch's breaks (see ``breaks``) as integers: panels
    join consecutive breaks of one time, sorted by (time, x) with ties kept
    once, an edge before a kink."""

    def __init__(self, brk, inside, shape):
        n_times, n_edges = self.shape = shape
        self.inside = inside
        owner = np.concatenate([np.repeat(np.arange(n_times), n_edges),
                                np.nonzero(inside)[0]])
        order = np.lexsort((brk, owner))
        x, owner, is_edge = brk[order], owner[order], order < n_times * n_edges
        same = owner[1:] == owner[:-1]
        first = np.ones(brk.size, dtype=bool)
        first[1:] = (x[1:] != x[:-1]) | ~same
        # what fits() checks: the breaks of each pair of neighbours of one
        # time, and whether they rise or tie
        self.size, self.rise = brk.size, first[1:][same]
        self.pairs = order[:-1][same], order[1:][same]
        kept = np.flatnonzero(first)
        owner, is_edge = owner[kept], is_edge[kept]
        left = np.flatnonzero(owner[:-1] == owner[1:])
        self.lo, self.hi = order[kept[left]], order[kept[left + 1]]
        self.owner = owner[left]
        self.hi_edge = is_edge[left + 1]
        # a panel from edge to edge spans its whole cell
        self.whole = is_edge[left] & self.hi_edge
        # the cell holding the midpoint, as a search of the edges finds it:
        # the edges at or below the panel's left break
        below = np.cumsum(is_edge)[left] - self.owner * n_edges
        self.cell = np.clip(below - 1, 0, n_edges - 2) + self.owner * n_edges

    def fits(self, brk, inside):
        """Whether the breaks of a batch of as many times keep the order
        this plan was built on."""
        if brk.size != self.size or not np.array_equal(inside, self.inside):
            return False
        lo, hi = brk[self.pairs[0]], brk[self.pairs[1]]
        rise = hi > lo
        return np.array_equal(rise, self.rise) and (rise | (hi == lo)).all()

    def apply(self, brk, times, rule):
        """Nodes of the quadrature rule on every panel, flat, time by time:
        position x and time of every node, the whole-panel mask and those
        panels' (time, cell) bins, then weight, bin and reference coordinate
        z of each split panel's nodes."""
        a, b = brk[self.lo], brk[self.hi]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes = mid[:, None] + half[:, None] * rule.nodes[None, :]
        node_t = np.repeat(times[self.owner], rule.n)
        split = ~self.whole
        owner, cell = self.owner[split], self.cell[split]
        mid, half = mid[split], half[split]
        # a midpoint that rounds onto an edge on the right is in the next cell
        onto = (mid == b[split]) & self.hi_edge[split]
        if onto.any():
            last = owner * self.shape[1] + self.shape[1] - 2
            cell = np.minimum(cell + onto, last)
        # cell edges gathered per panel, not per node
        xl = brk[cell][:, None]
        xr = brk[cell + 1][:, None]
        z = np.clip((2.0 * nodes[split] - xl - xr) / (xr - xl), -1.0, 1.0)
        wts = half[:, None] * rule.weights[None, :]
        bins = np.repeat(cell - owner, rule.n)
        whole_bins = (self.cell - self.owner)[self.whole]
        return nodes.ravel(), node_t, self.whole, whole_bins, wts.ravel(), bins, z.ravel()


def projection_points(plan, edges, kinks, times, rule):
    """Nodes of ``rule`` on the panels of every cell at each time, the cells
    split at the radii of the (T, R) kink table: (plan, (x, node_t, whole,
    whole_bins, wts, bins, z)) as ``PanelPlan.apply`` gives them, through
    ``plan`` if it fits the breaks, else through the new plan returned."""
    brk, inside = breaks(edges, kinks)
    if plan is None or not plan.fits(brk, inside):
        plan = PanelPlan(brk, inside, edges.shape)
    return plan, plan.apply(brk, times, rule)


def moment_table(rule, sq):
    """w_i P_j(node_i) sqrt(2j + 1), (nodes, moments): the moments of one
    whole cell of width 2 from its values at the nodes of ``rule``."""
    return rule.weights[:, None] * legendre_table(rule.nodes, sq.size - 1).T * sq


def cell_moments(values, whole, whole_bins, wts, bins, z, widths, sq, table):
    """Per-cell moments (T, K, J) of the orthonormal Legendre basis, whose
    scale factors sqrt(2j + 1) are ``sq``, from values at the nodes laid out
    as ``PanelPlan.apply`` gives them; ``table`` is ``moment_table`` of the
    panels' rule.

    A whole panel's node values meet the table in one product, scaled by
    sqrt(width) / 2.  np.einsum sums each row in an order that the count of
    rows does not change, which the BLAS product does not keep.  Split
    panels go one moment at a time: ``basis.legendre_rows`` yields the next
    Legendre row and one bincount over the (time, cell) bins reduces it,
    each bin summing its nodes in node order.
    """
    panels = values.reshape(whole.size, -1)
    out = np.zeros((widths.size, sq.size))
    if bins.size:
        weighted = wts * panels[~whole].ravel()
        for j, p in enumerate(legendre_rows(z, sq.size - 1)):
            w = p * weighted if j else weighted
            out[:, j] = np.bincount(bins, weights=w, minlength=widths.size)
        out *= sq / np.sqrt(widths.reshape(-1, 1))
    scale = 0.5 * np.sqrt(widths.ravel()[whole_bins])
    out[whole_bins] = np.einsum("pn,nj->pj", panels[whole], table) * scale[:, None]
    return out.reshape(widths.shape + (sq.size,))
