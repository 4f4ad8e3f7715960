"""Per-cell projections onto the Legendre cell basis of a moving mesh, for
many times at once.

A batch of times is one pass: the edges are moved to every time, each
time's cells are split into panels at the kinks of the projected function,
and the nodes of all panels and times go to one call of that function.
Each (time, cell) bin sums its nodes in node order, so a batch gives, bit
for bit, the values of one-time projections.

On a mesh whose edges and edge velocities are exactly antisymmetric, with
an edge at 0, the panels below 0 mirror those above it exactly, so a
function even in x needs its values on the nodes x > 0 only.
"""

import numpy as np

from .mesh import edge_table


def projection_points(mesh, rule, times, kinks, mirror):
    """Nodes of the quadrature rule on panels of every cell at each time,
    with the cells split at the interior kinks ``kinks(t)`` names for that
    time.

    Returns flat arrays, time by time, of the node position x, its time,
    weight, (time, cell) bin and reference coordinate z, and the (T, K)
    cell widths.  With ``mirror``, on a mirror-symmetric mesh with an edge
    at 0, the panels below 0 come first, the times in reverse, then those
    above 0: x is then the exact negative of its reverse (see
    mirrored_values).  Each bin keeps its nodes in order either way.
    """
    edges, widths = edge_table(mesh, times)
    n_times, k_cells = widths.shape
    n_edges = k_cells + 1
    # panel breaks: each time's edges and the +-kinks strictly inside,
    # sorted by (time, x) with ties kept once, an edge before a kink
    brk = [edges.ravel()]
    owner = [np.repeat(np.arange(n_times), n_edges)]
    if kinks:
        extra = [
            (r, i)
            for i, t in enumerate(times.tolist())
            for s in kinks(t)
            for r in (-s, s)
            if edges[i, 0] < r < edges[i, -1]
        ]
        if extra:
            brk.append(np.array([r for r, _ in extra]))
            owner.append(np.array([i for _, i in extra]))
    brk, owner = np.concatenate(brk), np.concatenate(owner)
    perm = np.lexsort((brk, owner))
    brk, owner, is_edge = brk[perm], owner[perm], perm < edges.size
    first = np.ones(brk.size, dtype=bool)
    first[1:] = (brk[1:] != brk[:-1]) | (owner[1:] != owner[:-1])
    brk, owner, is_edge = brk[first], owner[first], is_edge[first]
    # panels join consecutive breaks of one time
    left = np.flatnonzero(owner[:-1] == owner[1:])
    owner = owner[left]
    a, b = brk[left], brk[left + 1]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    # the cell holding mid, as a search of the edges finds it: the edges
    # at or below a, plus b if mid rounds onto an edge there
    below = np.cumsum(is_edge)[left] - owner * n_edges
    cell = below - 1 + ((mid == b) & is_edge[left + 1])
    cell = np.clip(cell, 0, k_cells - 1) + owner * n_edges
    if mirror:
        side = np.where(mid < 0.0, n_times - 1 - owner, n_times + owner)
        perm = np.argsort(side, kind="stable")
        owner, mid, half, cell = owner[perm], mid[perm], half[perm], cell[perm]
    # cell edges gathered per panel, not per node
    flat = edges.ravel()
    xl = flat[cell][:, None]
    xr = flat[cell + 1][:, None]
    nodes = mid[:, None] + half[:, None] * rule.nodes[None, :]
    wts = half[:, None] * rule.weights[None, :]
    z = np.clip((2.0 * nodes - xl - xr) / (xr - xl), -1.0, 1.0)
    bins = np.repeat(cell - owner, rule.n)
    node_t = np.repeat(times[owner], rule.n)
    return nodes.ravel(), node_t, wts.ravel(), bins, z.ravel(), widths


def mirrored_values(f, x, node_t):
    """f(x, t) at nodes laid out by projection_points with ``mirror``, for
    f even in x bit for bit: f runs once, on the upper half of the nodes
    (x > 0), and the lower half takes their values in reverse."""
    half = x.size // 2
    upper = f(x[half:], node_t[half:])
    return np.concatenate([upper[::-1], upper])


def cell_moments(values, wts, bins, z, widths, sq):
    """Per-cell moments (T, K, J) of the orthonormal Legendre basis, whose
    scale factors sqrt(2j + 1) are ``sq``, from values at the nodes.

    One moment at a time: the Legendre recurrence advances a moment and
    one bincount over the (time, cell) bins reduces it, each bin summing
    its nodes in node order, so temporaries grow with the node count
    only.
    """
    weighted = wts * values
    order = sq.size - 1
    out = np.empty(widths.shape + (order + 1,))

    def reduce(w):
        return np.bincount(bins, weights=w, minlength=widths.size).reshape(widths.shape)

    out[..., 0] = reduce(weighted)
    p_prev, p = 1.0, z
    for j in range(1, order + 1):
        if j > 1:
            p_prev, p = p, ((2 * j - 1) * z * p - (j - 1) * p_prev) / j
        out[..., j] = reduce(p * weighted)
    return out * (sq / np.sqrt(widths)[..., None])
