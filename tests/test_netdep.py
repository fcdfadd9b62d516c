"""Tests for graph utilities, denseness measures, graph MA, network HAC."""

import ast
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy import stats as st

import tsnet as T
from tsnet._checks import check_positive_int


def test_graph_canonical_edges():
    g = T.Graph(n=4, edges=((2, 1), (1, 2), (3, 4)))
    assert g.edges == ((1, 2), (3, 4))
    assert g.num_edges == 2
    with pytest.raises(ValueError, match="self-loop"):
        T.Graph(n=3, edges=((1, 1),))
    with pytest.raises(ValueError, match="outside"):
        T.Graph(n=3, edges=((1, 4),))
    with pytest.raises(ValueError, match="edges endpoint must be an integer"):
        T.Graph(n=3, edges=((1.5, 2.7),))


def _canonical_edges_loop(n, edges):
    """The edge checks and canonical form, one edge at a time: the reference."""
    canon = set()
    for edge in edges:
        i, j = (check_positive_int(v, "edges endpoint") for v in edge)
        if i == j:
            raise ValueError(f"self-loop at node {i}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"edge ({i}, {j}) outside 1..{n}")
        canon.add((min(i, j), max(i, j)))
    return tuple(sorted(canon))


def _outcome(fn):
    try:
        return "edges", fn()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(4))
def test_graph_edges_equal_the_edge_loop(seed):
    gen = np.random.default_rng(seed)
    n = 25
    bad_edges = [(3, 3), (0, 4), (2, n + 1), (1.5, 2), (2, "3"), (float("nan"), 1),
                 (-1, 2), (1, 2, 3)]
    for _ in range(60):
        ends = gen.integers(1, n + 1, size=(int(gen.integers(0, 50)), 2))
        edges = [tuple(map(int, e)) for e in ends]
        edges += [(j, i) for i, j in edges[::3]]  # reversed duplicates
        gen.shuffle(edges)
        for _ in range(int(gen.integers(0, 3))):
            edges.insert(int(gen.integers(0, len(edges) + 1)),
                         bad_edges[int(gen.integers(len(bad_edges)))])
        inputs = [tuple(edges)]
        if all(len(e) == 2 and all(isinstance(v, (int, float)) for v in e) for e in edges):
            inputs += [np.array(edges, dtype=float).reshape(-1, 2)]
            if all(isinstance(v, int) for e in edges for v in e):
                inputs += [np.array(edges, dtype=np.int64).reshape(-1, 2)]
        for given in inputs:
            want = _outcome(lambda: _canonical_edges_loop(n, given))
            got = _outcome(lambda: T.Graph(n, given).edges)
            assert got == want, given
            if got[0] == "edges":
                assert all(type(v) is int for e in got[1] for v in e)


def test_graph_distance_paths_and_components():
    path4 = T.Graph(n=4, edges=((1, 2), (2, 3), (3, 4)))
    d = T.graph_distance(path4)
    assert d[0, 2] == 2.0
    assert d[0, 3] == 3.0
    assert d[0, 0] == 0.0
    split = T.Graph(n=3, edges=((1, 2),))
    ds = T.graph_distance(split)
    assert np.isinf(ds[0, 2])
    c6 = T.cycle_graph(6)
    dc = T.graph_distance(c6)
    assert dc[0, 3] == 3.0  # antipodal pair
    assert dc[0, 5] == 1.0  # wrap-around edge


def test_denseness_cycle_closed_form():
    # every C8 node has a 2-node shell at s=1 and 2 uncovered neighbors,
    # so both moments are 2 and the Holder product collapses to 4
    res = T.denseness_stats(T.cycle_graph(8), s=1, m=1, k=1.0)
    assert res.delta_shell == pytest.approx(2.0, rel=1e-12)
    assert res.delta_overlap == pytest.approx(2.0, rel=1e-12)
    assert res.c_n == pytest.approx(4.0, rel=1e-10)


def test_denseness_star_closed_form():
    # star with 5 leaves: hub shell has 5 nodes, leaf shells 1, so the
    # first moment is 10/6; the worst uncovered mass mirrors it
    res = T.denseness_stats(T.star_graph(5), s=1, m=1, k=1.0)
    assert res.delta_shell == pytest.approx(10.0 / 6.0, rel=1e-12)
    assert res.delta_overlap == pytest.approx(10.0 / 6.0, rel=1e-12)
    # any single Holder exponent upper-bounds the infimum: check a=2
    d = T.graph_distance(T.star_graph(5))
    shell_sizes = np.sum(d == 1, axis=1).astype(float)
    within = d <= 1
    over = np.zeros(6)
    for i in range(6):
        js = np.nonzero(d[i] == 1)[0]
        over[i] = (within[i][None, :] & ~(d[js] <= 0)).sum(axis=1).max()
    bound = np.mean(over**2.0) ** 0.5 * np.mean(shell_sizes**2.0) ** 0.5
    assert res.c_n <= bound + 1e-12
    assert res.c_n > 0.0


def test_denseness_empty_graph():
    res = T.denseness_stats(T.Graph(n=5, edges=()), s=1, m=1, k=1.0)
    assert res.delta_shell == 0.0
    assert res.delta_overlap == 0.0
    assert res.c_n == 0.0
    for k in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match=f"^k must be finite and > 0, got {k!r}$"):
            T.denseness_stats(T.cycle_graph(4), s=1, m=1, k=k)
    with pytest.raises(ValueError, match=">= 0"):
        T.denseness_stats(T.cycle_graph(4), s=-1, m=1)
    with pytest.raises(ValueError, match="s must be an integer"):
        T.denseness_stats(T.cycle_graph(4), s=1.5, m=1)
    with pytest.raises(ValueError, match="m must be an integer"):
        T.denseness_stats(T.cycle_graph(4), s=1, m=0.5)


def test_graph_ma_radius_zero_is_iid():
    g = T.cycle_graph(10)
    y = T.simulate_graph_ma(g, (1.0,), T.RngSpec(5, 0))
    eps = T.RngSpec(5, 0).generator().standard_normal(10)
    # weight vector (1,) makes the taper matrix the identity
    np.testing.assert_allclose(y, eps, rtol=0, atol=1e-15)
    # an explicit zero on the first shell changes nothing
    y2 = T.simulate_graph_ma(g, (1.0, 0.0), T.RngSpec(5, 0))
    np.testing.assert_allclose(y2, eps, rtol=0, atol=1e-15)


def test_graph_ma_cycle_covariances():
    # Y_i = e_i + w1 (e_{i-1} + e_{i+1}) on the cycle: var = 1 + 2 w1^2,
    # lag-1 cov = 2 w1
    n, w1 = 200, 0.5
    g = T.cycle_graph(n)
    # 4000 fields at once, one per row
    eps = T.RngSpec(67, 0).generator().standard_normal((4000, n))
    y = T.simulate_graph_ma(T.graph_shells(g, 1), (1.0, w1), eps)
    assert y.shape == (4000, n)
    assert np.mean(y[:, 0] * y[:, 1]) == pytest.approx(2.0 * w1 * 1.0, abs=0.12)
    assert np.mean(y[:, 0] ** 2) == pytest.approx(1.0 + 2.0 * w1**2, abs=0.12)
    # distance-2 pairs share one generator: cov = w1^2
    assert np.mean(y[:, 0] * y[:, 2]) == pytest.approx(w1**2, abs=0.12)
    with pytest.raises(ValueError, match="weights"):
        T.simulate_graph_ma(g, np.empty(0), T.RngSpec(0))
    with pytest.raises(ValueError, match="weights must be finite"):
        T.simulate_graph_ma(g, (1.0, np.nan), T.RngSpec(0))


def test_graph_ma_mean_clt():
    # scaled field mean is asymptotically N(0, (1 + 2 w1)^2) on the cycle
    n, w1, reps = 500, 0.3, 1500
    sh = T.graph_shells(T.cycle_graph(n), 1)
    z = np.empty(reps)
    for i in range(reps):
        y = T.simulate_graph_ma(sh, (1.0, w1), T.RngSpec(66, i))
        z[i] = np.sqrt(n) * y.mean() / (1.0 + 2.0 * w1)
    assert st.kstest(z, "norm").statistic < 0.032
    assert z.var() == pytest.approx(1.0, abs=0.1)


def test_network_hac_matches_hand_sum():
    n = 200
    g = T.cycle_graph(n)
    d = T.graph_distance(g)
    y = T.simulate_graph_ma(g, (1.0, 0.25), T.RngSpec(67, 1))
    V = T.network_hac(g, y, T.KernelSpec("bartlett", 3.0))
    yc = y - y.mean()
    hand = 0.0
    for s in range(3):
        w = 1.0 - s / 3.0
        ii, jj = np.nonzero(d == s)
        hand += w * np.sum(yc[ii] * yc[jj]) / n
    assert V.shape == (1, 1)
    assert V[0, 0] == pytest.approx(hand, rel=1e-10)
    assert V[0, 0] > 0.0


def test_network_hac_no_edges_is_variance():
    g = T.Graph(n=50, edges=())
    y = np.random.default_rng((67, 2)).standard_normal(50)
    V = T.network_hac(g, y)
    assert V[0, 0] == pytest.approx(np.mean((y - y.mean()) ** 2), rel=1e-12)


def test_network_hac_small_bandwidth_keeps_s0_only():
    g = T.cycle_graph(30)
    y = np.random.default_rng((67, 3)).standard_normal(30)
    V = T.network_hac(g, y, T.KernelSpec("bartlett", 0.5))
    assert V[0, 0] == pytest.approx(np.mean((y - y.mean()) ** 2), rel=1e-12)


def test_network_hac_rejects_unbounded_kernel_and_mismatch():
    g = T.cycle_graph(10)
    y = np.random.default_rng((67, 4)).standard_normal(10)
    with pytest.raises(ValueError, match="vanishing beyond 1"):
        T.network_hac(g, y, T.KernelSpec("quadratic-spectral", 2.0))
    with pytest.raises(ValueError, match="rows"):
        T.network_hac(g, y[:-1])
    # the radius holds the support check, so no shells are sized for such a kernel
    with pytest.raises(ValueError, match="vanishing beyond 1"):
        T.network_hac_radius(T.KernelSpec("quadratic-spectral", 3.0), 200)


def test_network_hac_multivariate_shape():
    g = T.cycle_graph(40)
    y = np.column_stack([T.simulate_graph_ma(g, (1.0, 0.2), T.RngSpec(67, 5 + i))
                         for i in range(3)])
    V = T.network_hac(g, y, T.KernelSpec("parzen", 2.0))
    assert V.shape == (3, 3)
    np.testing.assert_array_equal(V, V.T)


def test_edgelist_round_trip(tmp_path):
    g = T.Graph(n=6, edges=((1, 2), (2, 5), (3, 6)))
    path = tmp_path / "g.edges"
    T.write_edgelist(g, path)
    g2 = T.read_edgelist(path)
    assert g2.n == g.n
    assert g2.edges == g.edges


def test_edgelist_comments_and_errors(tmp_path):
    path = tmp_path / "ok.edges"
    # an edge given twice, in either orientation, is kept once
    path.write_text("# comment\n\nn=4\n1 2\n\n# another\n3 4\n2 1\n1 2\n")
    g = T.read_edgelist(path)
    assert g.n == 4 and g.edges == ((1, 2), (3, 4))

    bad1 = tmp_path / "nohdr.edges"
    bad1.write_text("1 2\n")
    with pytest.raises(ValueError, match="header"):
        T.read_edgelist(bad1)
    bad2 = tmp_path / "badline.edges"
    bad2.write_text("n=3\n1 2 3\n")
    with pytest.raises(ValueError, match="expected"):
        T.read_edgelist(bad2)
    empty = tmp_path / "empty.edges"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError, match="missing"):
        T.read_edgelist(empty)


# --- sparse shells against the dense all-pairs distance matrix -------------

_GRAPHS = {
    "cycle7": T.cycle_graph(7),
    "cycle10": T.cycle_graph(10),
    "path6": T.Graph(n=6, edges=((1, 2), (2, 3), (3, 4), (4, 5), (5, 6))),
    "star5": T.star_graph(5),
    "two-components": T.Graph(n=8, edges=((1, 2), (2, 3), (3, 1), (4, 5),
                                          (5, 6), (6, 7), (7, 8))),
    "edgeless": T.Graph(n=5, edges=()),
}


def _dense_hac(d, y, spec):
    """The all-pairs network HAC: pairs by scanning the dense matrix."""
    ym = np.asarray(y, dtype=float)
    ym = (ym[:, None] if ym.ndim == 1 else ym)
    ym = ym - ym.mean(axis=0)
    n = d.shape[0]
    b = spec.resolve_bandwidth(n)
    v = np.zeros((ym.shape[1], ym.shape[1]))
    for s in range(int(np.floor(b + 1e-12)) + 1):
        w = T.kernel_weight(spec.family, s / b)
        ii, jj = np.nonzero(d == s)
        if w == 0.0 or ii.size == 0:
            continue
        v += w * (ym[ii].T @ ym[jj]) / n
    return (v + v.T) / 2.0


def _dense_overlap(d, s, m):
    """Per-node worst uncovered m-neighborhood mass, node by node."""
    n = d.shape[0]
    over = np.zeros(n)
    within_m = d <= m
    for i in range(n):
        js = np.nonzero(d[i] == s)[0]
        if js.size == 0:
            continue
        if s == 0:
            over[i] = within_m[i].sum()
            continue
        over[i] = (within_m[i][None, :] & ~(d[js] <= s - 1)).sum(axis=1).max()
    return over


@pytest.mark.parametrize("name", sorted(_GRAPHS))
def test_graph_shells_match_dense_distance(name):
    g = _GRAPHS[name]
    d = T.graph_distance(g)
    # radius runs past every diameter here (the longest is 5 on path6)
    sh = T.graph_shells(g, 7)
    assert sh.n == g.n and sh.radius == 7
    for s in range(8):
        np.testing.assert_array_equal(sh.sizes(s), np.sum(d == s, axis=1))
        m = sh.matrix(s)
        np.testing.assert_array_equal(m.toarray(), d == s)
        np.testing.assert_array_equal(sh.ball(s).toarray(), d <= s)
        # each node's row lists the nodes at distance s, in order
        for i in range(g.n):
            np.testing.assert_array_equal(m.indices[m.indptr[i]:m.indptr[i + 1]],
                                          np.nonzero(d[i] == s)[0])
        # a shorter radius is a prefix of the longer one
        short = T.graph_shells(g, s)
        for t in range(s + 1):
            a, b = short.matrix(t), sh.matrix(t)
            for part in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(a, part), getattr(b, part))


def test_shell_matrices_are_built_once_per_shells_object():
    g = T.cycle_graph(50)
    d = T.graph_distance(g)
    sh = T.graph_shells(g, 2)
    weights = (1.0, 0.4, 0.1)
    first = T.simulate_graph_ma(sh, weights, T.RngSpec(9, 2))
    again = T.simulate_graph_ma(sh, weights, T.RngSpec(9, 2))
    # the same sum over CSR matrices built afresh from the dense distances
    eps = T.RngSpec(9, 2).generator().standard_normal(g.n)
    fresh = []
    for s in range(3):
        ii, jj = np.nonzero(d == s)
        indptr = np.searchsorted(ii, np.arange(g.n + 1))
        fresh.append(sparse.csr_matrix((np.ones(jj.size), jj, indptr), shape=(g.n, g.n)))
    want = sum(w * (m @ eps) for w, m in zip(weights, fresh))
    assert np.array_equal(first, want) and np.array_equal(again, want)


def test_graph_shells_validation():
    g = T.cycle_graph(6)
    with pytest.raises(ValueError, match="radius"):
        T.graph_shells(g, -1)
    sh = T.graph_shells(g, 1)
    with pytest.raises(ValueError, match="range 0..1"):
        sh.matrix(2)
    with pytest.raises(ValueError, match="range 0..1"):
        sh.ball(2)
    assert not sh.complete
    # consumers refuse shells that stop short of the radius they read
    y = np.random.default_rng((67, 6)).standard_normal(6)
    with pytest.raises(ValueError, match="^shells reach distance 1, but distance 3 is needed$"):
        T.network_hac(sh, y, T.KernelSpec("bartlett", 3.5))
    with pytest.raises(ValueError, match="distance 2 is needed"):
        T.simulate_graph_ma(sh, (1.0, 0.5, 0.2), T.RngSpec(0))
    with pytest.raises(ValueError, match="distance 2 is needed"):
        T.simulate_graph_ma(sh, (1.0, 0.5, 0.2), y[None])
    with pytest.raises(ValueError, match="distance 2 is needed"):
        T.denseness_stats(sh, s=2, m=1)
    with pytest.raises(ValueError, match="rows"):
        T.network_hac(sh, y[:-1], T.KernelSpec("bartlett", 1.0))


def test_consumers_reject_a_dense_distance_matrix():
    d = T.graph_distance(T.cycle_graph(6))
    y = np.random.default_rng((67, 8)).standard_normal(6)
    for call in (lambda: T.denseness_stats(d, s=1, m=1),
                 lambda: T.simulate_graph_ma(d, (1.0, 0.5), T.RngSpec(0)),
                 lambda: T.network_hac(d, y)):
        with pytest.raises(TypeError, match="Graph or its Shells, got ndarray"):
            call()


@pytest.mark.parametrize("name", sorted(_GRAPHS))
def test_network_hac_from_shells_equals_from_graph(name):
    g = _GRAPHS[name]
    y = np.random.default_rng((67, 9)).standard_normal((g.n, 2))
    for spec in (None, T.KernelSpec("parzen", 2.5)):
        r = T.network_hac_radius(spec or T.KernelSpec(), g.n)
        for radius in (r, r + 2):
            assert np.array_equal(T.network_hac(T.graph_shells(g, radius), y, spec),
                                  T.network_hac(g, y, spec))


@pytest.mark.parametrize("name", sorted(_GRAPHS))
@pytest.mark.parametrize("v", [1, 3])
def test_network_hac_equals_dense_pair_sum(name, v):
    g = _GRAPHS[name]
    d = T.graph_distance(g)
    y = np.random.default_rng((67, 7, v)).standard_normal((g.n, v))
    if v == 1:
        y = y[:, 0]
    sh = T.graph_shells(g, 4)
    for spec in (T.KernelSpec("bartlett", 3.0), T.KernelSpec("parzen", 2.5),
                 T.KernelSpec("truncated", 2.0), T.KernelSpec("bartlett", 0.5),
                 T.KernelSpec("bartlett", 4.0)):
        ref = _dense_hac(d, y, spec)
        # summed as quadratic forms, not pair by pair: equal up to roundoff
        # on the scale of Gamma(0); V itself may be roundoff (star5, truncated)
        yc = y.reshape(g.n, -1) - y.reshape(g.n, -1).mean(axis=0)
        atol = 1e-13 * np.abs(yc.T @ yc / g.n).max()
        for graph in (g, sh):
            np.testing.assert_allclose(T.network_hac(graph, y, spec), ref, rtol=0, atol=atol)


@pytest.mark.parametrize("name", sorted(_GRAPHS))
@pytest.mark.parametrize("v", [1, 4])
def test_graph_ma_matches_dense_taper(name, v):
    g = _GRAPHS[name]
    d = T.graph_distance(g)
    weights = (1.0, 0.4, -0.25, 0.1)
    coef = np.zeros_like(d)
    for s, w in enumerate(weights):
        coef[d == s] = w
    gen = T.RngSpec(68, v).generator()
    if v == 1:
        ref = coef @ gen.standard_normal(g.n)
        ys = [T.simulate_graph_ma(graph, weights, T.RngSpec(68, v))
              for graph in (g, T.graph_shells(g, 3))]
    else:
        # v fields at once, one per row of the panel
        eps = gen.standard_normal((v, g.n))
        ref = eps @ coef.T
        ys = [T.simulate_graph_ma(T.graph_shells(g, 3), weights, eps)]
    for y in ys:
        assert y.shape == ref.shape
        np.testing.assert_allclose(y, ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("name", sorted(_GRAPHS))
def test_denseness_equals_dense_loop(name):
    g = _GRAPHS[name]
    d = T.graph_distance(g)
    sh = T.graph_shells(g, 3)
    for s in range(4):
        for m in range(4):
            shell_sizes = np.sum(d == s, axis=1).astype(float)
            over = _dense_overlap(d, s, m)
            for k in (1.0, 2.5):
                res = T.denseness_stats(g, s=s, m=m, k=k)
                assert res == T.denseness_stats(sh, s=s, m=m, k=k)
                assert res.delta_shell == float(np.exp(
                    T.netdep._log_power_mean(shell_sizes, k)))
                assert res.delta_overlap == float(np.exp(
                    T.netdep._log_power_mean(over, k)))
                if not over.any():
                    assert res.c_n == 0.0


def test_denseness_moment_past_the_floats_raises_naming_k():
    g = T.cycle_graph(20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^the moments of order k = 1e\+308 overflow"):
            T.denseness_stats(g, s=1, m=1, k=1e308)
        res = T.denseness_stats(g, s=1, m=1, k=50.0)
    assert np.isfinite([res.delta_shell, res.delta_overlap, res.c_n]).all()


def test_reach_past_the_largest_distance_reads_no_further_shell(monkeypatch):
    # the 30-cycle's farthest distance is 15: no shell past it is built, however far
    # a bandwidth or reach goes
    g = T.cycle_graph(30)
    d = T.graph_distance(g)
    built = []

    def shells(graph, radius):
        built.append(graph_shells(graph, radius))
        return built[-1]

    graph_shells = T.netdep.graph_shells
    monkeypatch.setattr(T.netdep, "graph_shells", shells)
    y = np.random.default_rng((67, 11)).standard_normal(30)
    spec = T.KernelSpec("bartlett", 1000.0)
    assert T.network_hac_radius(spec, 30) == 1000
    yc = y - y.mean()
    np.testing.assert_allclose(T.network_hac(g, y, spec), _dense_hac(d, y, spec), rtol=0,
                               atol=1e-13 * (yc @ yc / 30))
    # a truncated kernel past every distance weighs each pair once
    assert np.array_equal(T.network_hac(g, y, T.KernelSpec("truncated", 1e308)),
                          T.network_hac(g, y, T.KernelSpec("truncated", 20.0)))
    # denseness past distance 15 reads only empty shells
    for s, m in ((1, 10**9), (40, 2), (10**9, 10**9)):
        want = T.denseness_stats(g, s=min(s, 16), m=min(m, 15))
        assert T.denseness_stats(g, s=s, m=m) == replace(want, s=s, m=m)
    assert {len(sh.matrices) for sh in built} == {16}


def test_graph_shells_stop_at_the_last_shell():
    g = T.cycle_graph(30)
    d = T.graph_distance(g)
    start = time.perf_counter()
    sh = T.graph_shells(g, 10_000)
    assert time.perf_counter() - start < 0.5
    assert len(sh.matrices) == 16 and sh.radius == 10_000 and sh.complete
    for s in (0, 15, 16, 10_000):
        np.testing.assert_array_equal(sh.matrix(s).toarray(), d == s)
    np.testing.assert_array_equal(sh.ball(10_000).toarray(), np.ones((30, 30)))


@pytest.mark.parametrize("name", sorted(_GRAPHS) + ["cycle30"])
def test_shells_out_to_the_farthest_distance_are_complete(name):
    # decided from the balls and the components, without building the empty
    # shell past the radius
    g = _GRAPHS.get(name, T.cycle_graph(30))
    d = T.graph_distance(g)
    far = int(d[np.isfinite(d)].max())
    y = np.random.default_rng((67, 14)).standard_normal(g.n)
    spec = T.KernelSpec("bartlett", 100.0)
    ref = _dense_hac(d, y, spec)
    atol = 1e-13 * np.abs((y - y.mean()) @ (y - y.mean()) / g.n)
    for radius in range(far + 2):
        sh = T.graph_shells(g, radius)
        assert sh.complete == (radius >= far), radius
        if sh.complete:
            np.testing.assert_allclose(T.network_hac(sh, y, spec), ref, rtol=0, atol=atol)
        else:
            with pytest.raises(ValueError, match=f"^shells reach distance {radius}, but"):
                T.network_hac(sh, y, spec)


def test_weights_past_the_last_shell_add_nothing():
    # the 20-cycle's farthest distance is 10, so weights 11..3000 meet no pair
    g = T.cycle_graph(20)
    weights = np.random.default_rng((67, 13)).uniform(-1.0, 1.0, 3001)
    start = time.perf_counter()
    y = T.simulate_graph_ma(g, weights, T.RngSpec(70, 1))
    assert time.perf_counter() - start < 0.5
    assert y.tobytes() == T.simulate_graph_ma(g, weights[:11], T.RngSpec(70, 1)).tobytes()


def test_network_dependence_on_large_cycle():
    # 10^5 nodes: the dense distance matrix would take 80 GB, the shells
    # out to distance 3 hold 7 * 10^5 pairs
    n, w1 = 100_000, 0.3
    g = T.cycle_graph(n)
    sh = T.graph_shells(g, 3)
    assert [sh.matrix(s).nnz for s in range(4)] == [n, 2 * n, 2 * n, 2 * n]
    y = T.simulate_graph_ma(sh, (1.0, w1), T.RngSpec(69, 0))
    eps = T.RngSpec(69, 0).generator().standard_normal(n)
    ma = eps + w1 * (np.roll(eps, 1) + np.roll(eps, -1))
    np.testing.assert_allclose(y, ma, rtol=1e-12, atol=1e-12)
    V = T.network_hac(sh, y, T.KernelSpec("bartlett", 3.0))[0, 0]
    yc = y - y.mean()
    hand = np.mean(yc * yc) + sum(
        2.0 * (1.0 - s / 3.0) * np.mean(yc * np.roll(yc, s)) for s in (1, 2))
    assert V == pytest.approx(hand, rel=1e-10)
    # the same estimate without precomputed shells
    assert T.network_hac(g, y, T.KernelSpec("bartlett", 3.0))[0, 0] == V


def test_network_hac_allocates_no_pair_arrays():
    # radius 2 of a 2000-leaf star holds about 4 * 10^6 pairs: two int64
    # index arrays per shell would take 64 MB, the quadratic forms take
    # a few n-vectors
    g = T.star_graph(2000)
    sh = T.graph_shells(g, 2)
    y = np.random.default_rng((67, 10)).standard_normal(g.n)
    spec = T.KernelSpec("bartlett", 2.5)
    tracemalloc.start()
    try:
        T.network_hac(sh, y, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _random_graph(n, edges, seed):
    ends = np.random.default_rng(seed).integers(1, n + 1, size=(edges, 2))
    return T.Graph(n=n, edges=ends[ends[:, 0] != ends[:, 1]])


def test_network_hac_of_a_panel_equals_each_rep():
    # the one shell loop: each rep's (v, v) block of an (R, n, v) panel is
    # that rep's `network_hac`, bit for bit
    g = _random_graph(120, 200, seed=72)
    y = np.random.default_rng(73).standard_normal((5, g.n, 3))
    for spec in (T.KernelSpec("bartlett", 3.0), T.KernelSpec("parzen", 2.5),
                 T.KernelSpec("truncated", 1.5)):
        sh = T.graph_shells(g, T.network_hac_radius(spec, g.n))
        panel = T.network_hac(sh, y, spec)
        assert panel.shape == (5, 3, 3)
        for r in range(5):
            assert panel[r].tobytes() == T.network_hac(sh, y[r], spec).tobytes()


@pytest.mark.parametrize("budget", [1, 50])
def test_denseness_row_blocks_change_nothing(monkeypatch, budget):
    # one row per block, or a few: the same overlap sizes as one block
    g = _random_graph(80, 110, seed=74)
    sh = T.graph_shells(g, 3)
    want = [T.denseness_stats(sh, s, m, 2.5) for s in range(4) for m in range(4)]
    monkeypatch.setattr(T.netdep, "_PAIR_BUDGET", budget)
    assert [T.denseness_stats(sh, s, m, 2.5) for s in range(4) for m in range(4)] == want


def test_denseness_overlap_memory_is_bounded():
    # S_2 of a 1500-leaf star holds 2.25 * 10^6 pairs, and so do the ball
    # B_2 and the product B_2 B_1; walking S_2 in row blocks forms neither
    sh = T.graph_shells(T.star_graph(1500), 2)
    s2 = sh.matrix(2)
    csr_bytes = s2.data.nbytes + s2.indices.nbytes + s2.indptr.nbytes
    tracemalloc.start()
    try:
        res = T.denseness_stats(sh, s=2, m=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * csr_bytes
    # a leaf's 2-ball is the whole star, and each other leaf's 1-ball
    # covers two of its nodes; the hub's 2-shell is empty
    assert res.delta_overlap == pytest.approx(1500 * 1499 / 1501, rel=1e-12)



def test_graph_shells_refuses_a_shell_past_the_pair_budget():
    # S_2 of a 10^5-leaf star holds about 10^10 pairs.  S_1 times the
    # degrees predicts them (the hub reaches each leaf's one edge, each
    # leaf the hub's 10^5) and the guard raises before any is formed
    leaves = 10**5
    g = T.star_graph(leaves)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"radius 2 needs shell 2, predicted at up to "
                                             f"{leaves + leaves**2} node pairs, over the "
                                             f"{2**24} a shell may hold"):
            T.graph_shells(g, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 100 * leaves * 8


def test_graph_shells_budget_is_inclusive(monkeypatch):
    # a 5-leaf star's S_2 is predicted at 5 + 5 * 5 = 30 pairs (it holds 20)
    monkeypatch.setattr(T.netdep, "_SHELL_PAIRS", 30)
    assert T.graph_shells(T.star_graph(5), 2).matrix(2).nnz == 20
    monkeypatch.setattr(T.netdep, "_SHELL_PAIRS", 29)
    with pytest.raises(ValueError, match="radius 2 needs shell 2, predicted at up to 30 "):
        T.graph_shells(T.star_graph(5), 2)
    assert T.graph_shells(T.star_graph(5), 1).radius == 1


# --- source guard: the library never builds the n x n distance matrix ------

def _graph_distance_calls(source: str) -> list[int]:
    """Line numbers of the calls to `graph_distance` in `source`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and (getattr(node.func, "id", None) == "graph_distance"
                       or getattr(node.func, "attr", None) == "graph_distance"))


def test_guard_flags_each_graph_distance_call():
    for src in ("d = graph_distance(g)", "d = netdep.graph_distance(g)",
                "def f(g):\n    return T.graph_distance(g)[0]"):
        assert len(_graph_distance_calls(src)) == 1, src
    # naming, importing, exporting or defining it is no call
    assert _graph_distance_calls(
        "from .netdep import graph_distance\n__all__ = ['graph_distance']\n"
        "def graph_distance(g):\n    return shortest_path(g.adjacency())\n"
        "f = graph_distance\n") == []


def test_no_library_module_calls_graph_distance():
    # every consumer reads radius-limited shells: an all-pairs matrix of a
    # 10^5-node graph would take 80 GB
    src = Path(T.__file__).parent
    offenders = {path.name: _graph_distance_calls(path.read_text())
                 for path in sorted(src.glob("*.py"))}
    assert {k: v for k, v in offenders.items() if v} == {}
