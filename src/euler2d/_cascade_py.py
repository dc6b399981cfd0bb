"""Cascade interpolation kernel in numpy.

Three stages of 1D 12-point Lagrange interpolation:
  1. along the image of each vertical grid line, interpolate the
     x-coordinate to the heights y = b_j of the horizontal lines;
  2. interpolate the carried vorticity along the same images to y = b_j;
  3. along each horizontal line, interpolate the vorticity from the hybrid
     points back to the uniform abscissae a_i.

Stencils take 6 nodes on each side of the target and wrap periodically
(node + period on index wrap).  Barycentric evaluation with an exact-node
shortcut makes the identity map reproduce inputs to rounding.

Each numpy call treats LINES lines at once.  The barycentric weights are
formed once per node and stencil position from running products of node
differences, so a target costs O(STENCIL) work instead of O(STENCIL^2).
"""

import numpy as np

TWO_PI = 2.0 * np.pi
STENCIL = 12
HALF = STENCIL // 2
LINES = 8


def _barycentric_weights(nodes):
    """Weights of every node in every stencil position it can take.

    nodes: (m, p) lines of consecutive nodes.  Returns w of shape
    (STENCIL, m, p) with w[k, i, q] = 1 / prod_{l != k} (nodes[i, q] -
    nodes[i, q - k + l]): the weight of node q as the k-th node of the
    stencil starting at q - k.  Entries whose stencil leaves the line are
    not meaningful.
    """
    m, p = nodes.shape
    left = np.ones((STENCIL, m, p))
    right = np.ones((STENCIL, m, p))
    for d in range(1, STENCIL):
        step = nodes[:, d:] - nodes[:, :-d]
        left[d, :, d:] = step
        right[d, :, :-d] = -step
    np.cumprod(left, axis=0, out=left)
    np.cumprod(right, axis=0, out=right)
    left *= right[::-1]
    return np.divide(1.0, left, out=left)


def _interp_periodic_lines(nodes, value_rows, targets, period=TWO_PI):
    """Interpolate along m periodic lines at once.

    nodes: (m, n), each line strictly increasing over one period (nodes[i +
    n] = nodes[i] + period).  value_rows: (r, m, n) fields sampled at the
    nodes, periodic in the index.  targets: (t,) arbitrary coordinates,
    shared by all lines; each is reduced mod period into the line's node
    range.  Returns (r, m, t).
    """
    m, n = nodes.shape
    r = value_rows.shape[0]
    # lines extended by HALF nodes on each side; channel 1 receives weights
    wrap, base = np.divmod(np.arange(-HALF, n + HALF), n)
    ext = np.empty((2 + r, m, n + STENCIL))
    ext[0] = nodes[:, base] + period * wrap
    ext[2:] = value_rows[:, :, base]
    weights = _barycentric_weights(ext[0])
    # table[k, :, i, e]: node, weight and values of the k-th node of the
    # stencil that starts at extended index e
    table = np.empty((STENCIL, 2 + r, m, n + 1))
    for k in range(STENCIL):
        window = slice(k, k + n + 1)
        table[k] = ext[:, :, window]
        table[k, 1] = weights[k, :, window]

    t = nodes[:, :1] + np.mod(targets - nodes[:, :1], period)
    # the stencil of a target in [nodes[n0-1], nodes[n0]) starts at
    # extended index n0, i.e. HALF nodes before the bracket
    n0 = np.stack([np.searchsorted(line, tl, side="right") for line, tl in zip(nodes, t)])
    starts = (n0 + np.arange(m)[:, None] * (n + 1)).ravel()
    st = table.reshape(STENCIL, 2 + r, -1).take(starts, axis=-1)
    diff = t.ravel() - st[:, 0]
    exact = diff == 0.0
    vals = st[:, 2:]
    if exact.any():
        ratio = st[:, 1] / np.where(exact, 1.0, diff)
        interp = np.einsum("kj,krj->rj", ratio, vals) / ratio.sum(axis=0)
        exact_vals = np.sum(np.where(exact[:, None], vals, 0.0), axis=0)
        interp = np.where(exact.any(axis=0), exact_vals, interp)
    else:
        ratio = st[:, 1] / diff
        interp = np.einsum("kj,krj->rj", ratio, vals) / ratio.sum(axis=0)
    return interp.reshape(r, m, -1)


def cascade(x, y, w):
    """Revert vorticity from the distorted grid to the uniform grid.

    x, y: (n, n) raw arrival coordinates indexed [i, j] (vertical line i,
    node j along it); w: (n, n) vorticity carried by the particles.
    Returns the (n, n) vorticity on the uniform grid, or raises ValueError
    when the hybrid abscissae are not strictly increasing.
    """
    n = x.shape[0]
    b = TWO_PI * np.arange(n) / n
    x_hybrid = np.empty((n, n))
    w_hybrid = np.empty((n, n))
    for i in range(0, n, LINES):
        s = slice(i, i + LINES)
        x_hybrid[s], w_hybrid[s] = _interp_periodic_lines(y[s], np.stack([x[s], w[s]]), b)

    # horizontal line j holds the hybrid points x_hybrid[:, j]
    lines = np.ascontiguousarray(x_hybrid.T)
    w_lines = np.ascontiguousarray(w_hybrid.T)
    bad = np.any(np.diff(lines, axis=1) <= 0.0, axis=1) | (lines[:, 0] + TWO_PI <= lines[:, -1])
    if np.any(bad):
        raise ValueError(f"hybrid abscissae not strictly increasing on line {np.argmax(bad)}")
    out = np.empty((n, n))
    for j in range(0, n, LINES):
        s = slice(j, j + LINES)
        out[s] = _interp_periodic_lines(lines[s], w_lines[None, s], b)[0]
    return np.ascontiguousarray(out.T)
