"""Dependence on networks: shells, denseness measures, and network HAC.

Nodes are labeled 1..n (matching the edge-list file format); matrices
returned by these functions are indexed by label minus one.  Distances
are unweighted shortest-path lengths, infinite across components.

Every consumer takes a `Graph` or its `Shells` as its first argument and
reads distances only up to the radius it needs: floor(bandwidth) for
`network_hac`, len(weights) - 1 for `simulate_graph_ma`, max(s, m) for
`denseness_stats`, and none past the graph's last shell, however far a
bandwidth or reach goes.  `graph_shells` builds the 0/1 sparse matrix
S_s of the node pairs at each distance s up to that radius by sparse
products of the adjacency, stopping at the first empty shell, and
consumers read S_s only as a sparse matrix, never as per-pair index
arrays, so memory grows with the neighborhoods, not with n^2.  Shells
built once by `graph_shells(g, radius)` can be passed in place of the
graph and are reused across calls, as the Monte Carlo harness does.
Anything else, a dense distance matrix included, is a TypeError.

The denseness functionals quantify how fast s-step neighborhoods grow:
delta^shell(s; k) is the k-th moment of shell sizes, Delta(s, m; k) the
worst-case mass of an m-neighborhood not explained by a neighbor's
(s-1)-neighborhood, and c_n(s, m; k) their Hölder interpolation, the
quantity that controls covariance tail sums on the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ._checks import FINITE_RESULT, as_panel, check_finite_result, check_positive_int
from ._panel import as_reps
from .lrv import _COMPACT_FAMILIES, KernelSpec, kernel_weight
from .series import _simulate

__all__ = [
    "Graph",
    "cycle_graph",
    "star_graph",
    "graph_distance",
    "Shells",
    "graph_shells",
    "NetStats",
    "denseness_stats",
    "simulate_graph_ma",
    "network_hac",
    "network_hac_radius",
    "read_edgelist",
    "write_edgelist",
]

# the fewest nodes of a cycle graph
_MIN_CYCLE = 3

# Exponent grid for the Hölder infimum in c_n.
_HOLDER_GRID = tuple(np.concatenate([[1.01], np.arange(1.05, 8.0 + 1e-9, 0.05), [16.0, 32.0]]))

# node pairs the product forming one shell of `graph_shells` may hold.  Its
# peak is about 20 bytes a pair, so some 330 MB: a 4000-leaf star fits at
# radius 2 (16 million pairs), a 10^5-leaf star (10^10) raises at once.
_SHELL_PAIRS = 2**24

# S_s pairs plus B_m B_{s-1} terms that one block of `_worst_uncovered` may form
_PAIR_BUDGET = 2**18


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 1..n.

    Edges, given as pairs or an (E, 2) array, are stored canonically as
    (min, max) pairs of ints, deduplicated and sorted; self-loops are
    rejected.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = check_positive_int(self.n, "n")
        edges = self.edges if isinstance(self.edges, np.ndarray) else tuple(self.edges)
        ends = _edge_array(edges)
        if ends is None:
            ok = np.zeros(len(edges), dtype=bool)
        else:
            inside = (ends == np.floor(ends)) & (ends >= 1) & (ends <= n)
            ok = inside.all(axis=1) & (ends[:, 0] != ends[:, 1])
        # the first bad edge in input order raises its own error
        for k in np.flatnonzero(~ok):
            _check_edge(n, edges[k])
        if ends is None:  # endpoints of other types, each checked above
            ends = np.array([[int(v) for v in edge] for edge in edges])
        lo, hi = np.sort(ends.astype(np.int64), axis=1).T
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        first = np.ones(len(lo), dtype=bool)
        first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        object.__setattr__(self, "edges", tuple(zip(lo[first].tolist(), hi[first].tolist())))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> sparse.csr_matrix:
        """Symmetric 0/1 adjacency in CSR form (0-based)."""
        ends = np.array(self.edges, dtype=np.int64).reshape(-1, 2) - 1
        rows = np.concatenate([ends[:, 0], ends[:, 1]])
        cols = np.concatenate([ends[:, 1], ends[:, 0]])
        return sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(self.n, self.n))


def _edge_array(edges) -> np.ndarray | None:
    """`edges` as an (E, 2) array of real numbers, or None if they are not one."""
    if len(edges) == 0:
        return np.empty((0, 2), dtype=np.int64)
    try:
        ends = np.asarray(edges)
    except ValueError:  # ragged
        return None
    if ends.ndim != 2 or ends.shape[1] != 2 or ends.dtype.kind not in "iuf":
        return None
    return ends


def _check_edge(n: int, edge) -> None:
    """Raise the error for an edge that is not two distinct integers in 1..n."""
    i, j = (check_positive_int(v, "edges endpoint") for v in edge)
    if i == j:
        raise ValueError(f"self-loop at node {i}")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"edge ({i}, {j}) outside 1..{n}")


def cycle_graph(n: int) -> Graph:
    """Cycle C_n (n >= 3)."""
    n = check_positive_int(n, "n", minimum=_MIN_CYCLE)
    return Graph(n=n, edges=np.column_stack([np.r_[1:n, 1], np.r_[2:n + 1, n]]))


def star_graph(leaves: int) -> Graph:
    """Star K_{1,leaves} with hub node 1."""
    leaves = check_positive_int(leaves, "leaves")
    return Graph(n=leaves + 1, edges=np.column_stack([np.ones(leaves, dtype=int),
                                                      np.arange(2, leaves + 2)]))


def graph_distance(g: Graph) -> np.ndarray:
    """(n, n) matrix of shortest-path distances; inf across components.

    All pairs, so O(n^2) memory; the consumers below only ever need
    `graph_shells` out to a small radius.  Kept as the dense oracle that
    tests/test_netdep.py checks `graph_shells` against, and named in the
    benchmark tracer's table (perfbench/tracer.py).  Loads
    scipy.sparse.csgraph on its first call.
    """
    # csgraph drags in scipy.sparse.linalg: about 3 MB and 6-8 ms per
    # process, which no command or experiment needs
    from scipy.sparse.csgraph import shortest_path

    if g.num_edges == 0:
        d = np.full((g.n, g.n), np.inf)
        np.fill_diagonal(d, 0.0)
        return d
    return shortest_path(g.adjacency(), method="D", directed=False, unweighted=True)


@dataclass(frozen=True, eq=False)
class Shells:
    """Node pairs grouped by graph distance, for distances 0..radius.

    matrices[s] is the sparse 0/1 matrix S_s with (S_s)_ij = 1 iff
    d(i, j) = s: CSR with float data 1.0 and sorted column indices, for s
    up to the radius or the last nonempty shell, whichever comes first.
    `complete` tells whether every shell past the radius is empty.
    """

    matrices: tuple[sparse.csr_matrix, ...]
    radius: int
    complete: bool

    @property
    def n(self) -> int:
        return self.matrices[0].shape[0]

    def matrix(self, s: int) -> sparse.csr_matrix:
        """S_s, the pairs at distance exactly s (read-only by convention)."""
        if s < 0 or (s > self.radius and not self.complete):
            raise ValueError(f"distance {s} outside the shells' range 0..{self.radius}")
        return self.matrices[s] if s < len(self.matrices) else sparse.csr_matrix((self.n, self.n))

    def sizes(self, s: int) -> np.ndarray:
        """Shell size |{j: d(i, j) = s}| for every node i."""
        return np.diff(self.matrix(s).indptr)

    def ball(self, r: int) -> sparse.csr_matrix:
        """Sparse 0/1 matrix of the pairs within distance r."""
        self.matrix(r)  # raises past the radius
        return sum(self.matrices[1:r + 1], self.matrices[0])


def graph_shells(g: Graph, radius: int) -> Shells:
    """Shells S_0..S_radius, by a radius-limited BFS.

    Shell s is the pattern of S_{s-1} A minus S_{s-1} and S_{s-2}: in an
    undirected graph a neighbor of a node at distance s-1 lies at
    distance s-2, s-1 or s, so every shell past an empty one is empty and
    the search stops there.  Boolean sparse products keep the cost at
    O(n * ball size * degree), with no n x n array.  Before shell s is
    built, the pairs of S_{s-1} A are bounded by S_{s-1} times the
    degrees, summed; past `_SHELL_PAIRS` it raises a ValueError.  Shells
    that reach the radius are `complete` when each ball is its node's
    whole component (`_whole_components`), so shell radius + 1 is never
    built.
    """
    radius = check_positive_int(radius, "radius", minimum=0)
    n = g.n
    adj = g.adjacency().astype(bool)
    degrees = np.diff(adj.indptr).astype(float)
    prev = sparse.csr_matrix((n, n), dtype=bool)
    cur = sparse.identity(n, dtype=bool, format="csr")
    matrices = [cur.astype(float)]
    for s in range(1, radius + 1):
        pairs = float((cur @ degrees).sum())
        if pairs > _SHELL_PAIRS:
            raise ValueError(f"graph_shells: radius {radius} needs shell {s}, predicted at "
                             f"up to {pairs:.0f} node pairs, over the {_SHELL_PAIRS} a "
                             f"shell may hold")
        prev, cur = cur, (cur @ adj) > (cur + prev)
        if cur.nnz == 0:
            break
        cur.sort_indices()
        matrices.append(cur.astype(float))
    complete = len(matrices) <= radius or _whole_components(matrices, adj)
    return Shells(matrices=tuple(matrices), radius=radius, complete=complete)


def _whole_components(matrices, adj: sparse.csr_matrix) -> bool:
    """Whether the ball of shells S_0..S_r about each node is its whole component.

    Label each node i by m(i), the least node of its ball.  If every edge
    joins two nodes of one label, m is constant on each component, and as
    m(i) lies in i's component, no two components share a label; then a
    ball that holds as many nodes as carry its label is the component.
    Conversely, whole components pass both tests.
    """
    n = adj.shape[0]
    least = np.arange(n)
    for shell in matrices[1:]:
        rows = np.flatnonzero(np.diff(shell.indptr))
        least[rows] = np.minimum(least[rows], shell.indices[shell.indptr[rows]])
    ends = np.repeat(least, np.diff(adj.indptr))
    ball_sizes = sum(np.diff(shell.indptr) for shell in matrices)
    return bool(np.all(ends == least[adj.indices])
                and np.all(ball_sizes == np.bincount(least, minlength=n)[least]))


def _shells_of(graph, radius: int) -> Shells:
    """Shells out to `radius` from a Graph or its Shells."""
    if isinstance(graph, Graph):
        return graph_shells(graph, radius)
    if not isinstance(graph, Shells):
        raise TypeError(f"graph must be a Graph or its Shells, got {type(graph).__name__}")
    if graph.radius < radius and not graph.complete:
        raise ValueError(f"shells reach distance {graph.radius}, "
                         f"but distance {radius} is needed")
    return graph


def _log_power_mean(sizes: np.ndarray, exponent: float) -> float:
    """log( n^{-1} sum_i sizes_i^exponent ), stable for large exponents.

    sizes_i = 0 terms contribute 0 to the sum (0^k = 0 for k > 0).
    """
    n = sizes.shape[0]
    pos = sizes[sizes > 0]
    if pos.size == 0:
        return -np.inf
    logs = exponent * np.log(pos)
    mx = logs.max()
    return float(mx + np.log(np.sum(np.exp(logs - mx))) - np.log(n))


@dataclass(frozen=True)
class NetStats:
    """Denseness summary at shell depth s, reach m, moment order k."""

    s: int
    m: int
    k: float
    delta_shell: float
    delta_overlap: float
    c_n: float


def denseness_stats(graph: Graph | Shells, s: int, m: int, k: float = 1.0) -> NetStats:
    """Shell-growth moments and the Hölder bound c_n(s, m; k).

        delta_shell   = n^{-1} sum_i |shell(i, s)|^k
        delta_overlap = n^{-1} sum_i max_{j in shell(i,s)}
                          |N(i; m) \\ N(j; s-1)|^k
        c_n           = inf_a Delta(s,m; k a)^{1/a}
                          * delta_shell(s; a/(a-1))^{1 - 1/a}

    with N(j; -1) empty when s = 0 and empty shells contributing 0 to
    the max.  The infimum runs over a fixed grid of exponents
    {1.01, 1.05, ..., 8} plus {16, 32}; moments are evaluated in log
    space so large exponents do not overflow.  k must be finite and
    > 0, and a moment past the largest float raises ValueError.
    """
    s = check_positive_int(s, "s", minimum=0)
    m = check_positive_int(m, "m", minimum=0)
    if not (np.isfinite(k) and k > 0):
        raise ValueError(f"k must be finite and > 0, got {k!r}")
    sh = _shells_of(graph, max(s, m))
    shell_sizes = sh.sizes(s).astype(float)
    # |N(i; m)|; shell(i, 0) = {i} and N(i; -1) is empty
    ball_sizes = sum(np.diff(shell.indptr) for shell in sh.matrices[:m + 1]).astype(float)
    overlap_sizes = ball_sizes if s == 0 else _worst_uncovered(sh, s, m, ball_sizes)

    with np.errstate(over="ignore", invalid="ignore"):
        delta_shell = float(np.exp(_log_power_mean(shell_sizes, k)))
        delta_overlap = float(np.exp(_log_power_mean(overlap_sizes, k)))
        best = np.inf
        for a in _HOLDER_GRID:
            log_delta = _log_power_mean(overlap_sizes, k * a)
            log_shell = _log_power_mean(shell_sizes, a / (a - 1.0))
            if log_delta == -np.inf:
                best = 0.0
                break
            val = np.exp(log_delta / a + (1.0 - 1.0 / a) * log_shell)
            best = min(best, float(val))
    if not np.all(np.isfinite([delta_shell, delta_overlap, best])):
        raise ValueError(f"the moments of order k = {k!r} overflow the floats")
    return NetStats(s=s, m=m, k=k, delta_shell=delta_shell,
                    delta_overlap=delta_overlap, c_n=best)


def _worst_uncovered(sh: Shells, s: int, m: int, ball_sizes: np.ndarray) -> np.ndarray:
    """max_{j in shell(i, s)} |N(i; m) \\ N(j; s-1)| for every node i, s >= 1.

    For j in shell(i, s) the set has |N(i; m)| - (B_m B_{s-1})_ij nodes,
    with B_r the 0/1 ball matrix (symmetric, so the product counts the
    overlap), read on the pattern of S_s; an empty row's max is 0.  Rows
    go in blocks whose S_s pairs and product terms, sum_{k in N(i; m)}
    |N(k; s-1)| per row, stay under `_PAIR_BUDGET` (a block holds at
    least one row), so neither B_m nor the whole product is formed.
    """
    ball_prev = sh.ball(s - 1)
    prev_sizes = np.diff(ball_prev.indptr).astype(float)
    cost = np.cumsum(sh.sizes(s) + sum(shell @ prev_sizes for shell in sh.matrices[:m + 1]))
    out = np.empty(sh.n)
    lo = 0
    while lo < sh.n:
        spent = cost[lo - 1] if lo else 0.0
        hi = max(lo + 1, int(np.searchsorted(cost, spent + _PAIR_BUDGET, side="right")))
        shell_s = sh.matrix(s)[lo:hi]
        ball_m = sum(shell[lo:hi] for shell in sh.matrices[:m + 1])
        uncovered = (shell_s.multiply(ball_sizes[lo:hi, None])
                     - shell_s.multiply(ball_m @ ball_prev))
        out[lo:hi] = uncovered.max(axis=1).toarray().ravel()
        lo = hi
    return out


def simulate_graph_ma(graph: Graph | Shells, weights, rng) -> np.ndarray:
    """Graph moving average Y_i = sum_{d(i,j) <= m} weights[d(i,j)] eps_j.

    weights = (w_0, ..., w_m) taper the iid standard normal field eps by
    graph distance; dependence has exact radius m.  Returns the (n,)
    vector of node values.  rng may be the field itself
    (`series._simulate`): (n,), or an (R, n) panel of fields for the
    (R, n) panel of moving averages.  Each shell is one sparse product on
    the (n, R) transpose, which sums every column as the product with one
    field would, so each row is bit-identical to a single-field run.
    Weights past the graph's last shell add nothing.  A field that leaves
    the finite floats raises ValueError.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    sh = _shells_of(graph, w.size - 1)

    def path(eps):
        eps_t = np.ascontiguousarray(eps.T)
        y = sum(wi * (shell @ eps_t) for wi, shell in zip(w, sh.matrices))
        return np.ascontiguousarray(y.T)

    return _simulate(path, rng, (sh.n,), f"weights={tuple(w.tolist())!r} on {sh.n} nodes")


@FINITE_RESULT
def network_hac(graph: Graph | Shells, y, kernel: KernelSpec | None = None) -> np.ndarray:
    """Kernel HAC estimate of the network long-run variance.

        V = sum_{s=0}^{floor(b)} w(s/b) Omega(s),
        Omega(s) = n^{-1} sum_i sum_{j: d(i,j)=s} (Y_i - Ybar)(Y_j - Ybar)'
                 = n^{-1} Y_c' S_s Y_c,

    symmetrized as (V + V') / 2, with Y_c = Y - Ybar and S_s the shell
    matrix.  The kernel must vanish beyond 1 (truncated, bartlett, or
    parzen); bandwidth=None applies the default rule in shell units.  Y
    may be (n,) or (n, v).  Shells passed in place of the graph must
    reach `network_hac_radius(kernel, n)` or be `complete`.  A V that is
    not finite raises.

    A 3-d y is an (R, n, v) panel of R reps, and the result is the
    (R, v, v) stack of their estimates.  Each shell is one sparse product
    on the (n, R v) stack of the centered reps, which sums every column
    as the product with one rep would, and the quadratic forms are one
    stacked `matmul` over contiguous per-rep blocks, so each rep's
    estimate is bit-identical to that rep's alone.
    """
    spec = kernel if kernel is not None else KernelSpec()
    y, one = as_reps(y, rank=2)
    y = as_panel(y, "y", min_len=2, matrix=True)
    R, n, v = y.shape
    reach = network_hac_radius(spec, n)
    sh = _shells_of(graph, reach)
    if sh.n != n:
        raise ValueError(f"y has {n} rows but the graph has {sh.n} nodes")
    b = spec.resolve_bandwidth(n)
    yc = y - y.mean(axis=1, keepdims=True)
    yc_t = np.ascontiguousarray(yc.transpose(1, 0, 2)).reshape(n, R * v)
    out = np.zeros((R, v, v))
    for s_val, shell in enumerate(sh.matrices[:reach + 1]):
        w = kernel_weight(spec.family, s_val / b)
        if w != 0.0:
            sy = (shell @ yc_t).reshape(n, R, v).transpose(1, 0, 2)
            out += w * (yc.transpose(0, 2, 1) @ np.ascontiguousarray(sy)) / n
    out = (out + out.transpose(0, 2, 1)) / 2.0
    check_finite_result("network_hac", out)
    return out[0] if one else out


def network_hac_radius(kernel: KernelSpec | None, n: int) -> int:
    """Largest graph distance `network_hac` reads with this kernel on n nodes,
    its reach, unless the graph's last shell comes first."""
    spec = kernel if kernel is not None else KernelSpec()
    if spec.family not in _COMPACT_FAMILIES:
        raise ValueError("network HAC requires a kernel vanishing beyond 1")
    return spec.reach(n)


def write_edgelist(g: Graph, path) -> None:
    """Write "n=<count>" then one "i j" line per edge (labels 1-based)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n={g.n}\n")
        for i, j in g.edges:
            fh.write(f"{i} {j}\n")


def read_edgelist(path) -> Graph:
    """Parse the edge-list format written by `write_edgelist`.

    Blank lines and lines starting with '#' are ignored.  A malformed
    line, or an edge that is not two distinct nodes in 1..n, raises a
    ValueError that starts with "<path>:<lineno>:".  An edge given more
    than once, in either orientation, is kept once, as `Graph` keeps it.
    """
    n = None
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                if n is None:
                    if not line.startswith("n="):
                        raise ValueError("expected header 'n=<count>'")
                    n = check_positive_int(int(line[2:]), "n")
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ValueError(f"expected 'i j', got {line!r}")
                edges.append((int(parts[0]), int(parts[1])))
                _check_edge(n, edges[-1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if n is None:
        raise ValueError(f"{path}: missing 'n=<count>' header")
    return Graph(n=n, edges=tuple(edges))
