"""Cascade interpolation kernel in numpy.

Three stages of 1D 12-point Lagrange interpolation:
  1. along the image of each vertical grid line, interpolate the
     x-coordinate to the heights y = b_j of the horizontal lines;
  2. interpolate the carried vorticity along the same images to y = b_j;
  3. along each horizontal line, interpolate the vorticity from the hybrid
     points back to the uniform abscissae a_i.

Stencils take 6 nodes on each side of the target and wrap periodically
(node + 2 pi on index wrap).  Barycentric evaluation (Berrut & Trefethen
2004) makes the identity map reproduce inputs: a target on a node, or so
close to one that its weight overflows, takes its nearest node's value.

Both sweeps first check that their node lines increase strictly over one
period; a fold raises ReversionError, whose report lists the folded lines.

Each numpy call treats LINES lines at once, laid end to end.  Running
products of node differences give each node's barycentric denominator in
every stencil position; the stencil sum gathers node, denominator and values
at start + k, k = 0..11, and accumulates in place in per-target arrays.
"""

import numpy as np

from .errors import ReversionError

TWO_PI = 2.0 * np.pi
STENCIL = 12
HALF = STENCIL // 2
LINES = 64


def _barycentric_denominators(nodes):
    """Inverse barycentric weights of every node in every stencil position.

    nodes: (p,) nodes of one line or of lines laid end to end.  Returns
    d[k, q] = prod_{l != k} (nodes[q] - nodes[q - k + l]), shape (STENCIL, p):
    the inverse weight of node q as the k-th node of the stencil starting at
    q - k.  Entries whose stencil leaves the line are not meaningful.
    """
    den = np.empty((STENCIL, nodes.size))
    den[0] = 1.0
    for d in range(1, STENCIL):  # the factors l < k; unused entries stay finite
        den[d, :d] = 1.0
        np.multiply(den[d - 1, d:], nodes[d:] - nodes[:-d], out=den[d, d:])
    right = np.ones(nodes.size)
    for d in range(1, STENCIL):  # times the factors l > k
        right[:-d] *= nodes[:-d] - nodes[d:]
        den[STENCIL - 1 - d] *= right
    return den


def _interp_periodic_lines(nodes, value_rows, targets):
    """Interpolate along m 2pi-periodic lines at once.

    nodes: (m, n), each line strictly increasing over one period (nodes[i +
    n] = nodes[i] + 2pi).  value_rows: (r, m, n) fields sampled at the
    nodes, periodic in the index.  targets: (t,) arbitrary coordinates,
    shared by all lines; each is reduced mod 2pi into the line's node
    range.  Returns (r, m, t).
    """
    r, m, n = value_rows.shape
    # lines extended by HALF nodes on each side, then flattened
    wrap, base = np.divmod(np.arange(-HALF, n + HALF), n)
    ext = (nodes[:, base] + TWO_PI * wrap).ravel()
    den = _barycentric_denominators(ext)
    vals = value_rows[:, :, base].reshape(r, -1)
    t = nodes[:, :1] + np.mod(targets - nodes[:, :1], TWO_PI)
    # the stencil of a target in [nodes[n0-1], nodes[n0]) starts at
    # extended index n0, i.e. HALF nodes before the bracket
    n0 = np.stack([np.searchsorted(line, tl, side="right") for line, tl in zip(nodes, t)])
    at = (n0 + np.arange(m)[:, None] * (n + STENCIL)).ravel()
    t = t.ravel()
    num = np.zeros((r, t.size))
    total, diff, ratio, v = np.zeros((4, t.size))
    # a target on (or within ~1e-300 of) a node makes its total non-finite.
    # Indices are in range: "clip" only spares take a copy of out.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(STENCIL):
            ext.take(at, out=diff, mode="clip")
            np.subtract(t, diff, out=diff)
            den[k].take(at, out=ratio, mode="clip")
            ratio *= diff
            np.divide(1.0, ratio, out=ratio)
            total += ratio
            for c in range(r):
                vals[c].take(at, out=v, mode="clip")
                v *= ratio
                num[c] += v
            at += 1
        num /= total
    hits = np.flatnonzero(~np.isfinite(total))
    if hits.size:  # hits take the value of their nearest stencil node
        stencil = at[hits, None] - STENCIL + np.arange(STENCIL)
        near = np.argmin(np.abs(ext[stencil] - t[hits, None]), axis=1)
        num[:, hits] = vals[:, stencil[np.arange(hits.size), near]]
    return num.reshape(r, m, -1)


def _check_increasing(lines, kind):
    """Raise ReversionError unless each row of lines increases strictly over
    one period: along the row, and across the wrap (first + 2pi > last)."""
    ok = np.all(np.diff(lines, axis=1) > 0.0, axis=1) & (lines[:, 0] + TWO_PI > lines[:, -1])
    report = np.flatnonzero(~ok).tolist()
    if report:
        raise ReversionError(
            f"monotonicity violated on {len(report)} {kind} line(s)", report=report
        )


def _sweep(nodes, value_rows, targets):
    """_interp_periodic_lines over all m lines of nodes, LINES at a time."""
    r, m, _ = value_rows.shape
    out = np.empty((r, m, targets.size))
    for i in range(0, m, LINES):
        s = slice(i, i + LINES)
        out[:, s] = _interp_periodic_lines(nodes[s], value_rows[:, s], targets)
    return out


def cascade(x, y, w):
    """Revert vorticity from the distorted grid to the uniform grid.

    x, y: (n, n) raw arrival coordinates indexed [i, j] (vertical line i,
    node j along it); w: (n, n) vorticity carried by the particles.
    Returns the (n, n) vorticity on the uniform grid, or raises
    ReversionError when a vertical or a horizontal line folds.
    """
    n = x.shape[0]
    b = TWO_PI * np.arange(n) / n
    _check_increasing(y, "vertical")
    x_hybrid, w_hybrid = _sweep(y, np.stack([x, w]), b)
    # horizontal line j holds the hybrid points x_hybrid[:, j]
    _check_increasing(x_hybrid.T, "horizontal")
    return np.ascontiguousarray(_sweep(x_hybrid.T, w_hybrid.T[None], b)[0].T)
