import json
import os
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tide import graph
from tide.detection import (EnergyScores, propagate_energy,
                            propagation_operator)
from tide.graph import (Graph, GraphError, GraphFormatError, canonical_edges,
                        load_bundle, make_graph, save_bundle,
                        sym_normalized_adjacency)
from conftest import random_graph
import oracles


def write_bundle(tmp_path, features, edges, labels, splits):
    path = tmp_path / "g.json"
    full = {"train": [], "val": [], "test_id": [], "test_ood": []} | splits
    path.write_text(json.dumps({
        "n": len(features), "d": len(features[0]), "C": max(labels) + 1,
        "features": features, "edges": edges, "labels": labels,
        "splits": full}))
    return path


class TestLoadGraph:
    def test_two_node_example(self, tmp_path):
        path = write_bundle(tmp_path, [[1.0], [2.0]], [[0, 1]], [0, 1],
                            {"train": [0], "test_id": [1]})
        g = load_bundle(path)
        assert (g.n, g.d, g.C) == (2, 1, 2)
        assert g.edges.tolist() == [[0, 1]]

    def test_out_of_range_edge_rejected(self, tmp_path):
        path = write_bundle(tmp_path, [[1.0], [2.0]], [[0, 5]], [0, 1],
                            {"train": [0]})
        with pytest.raises(GraphError, match="5"):
            load_bundle(path)

    def test_parse_error_names_line(self, tmp_path):
        path = write_bundle(tmp_path, [[1.0], [2.0]], [[0, 1]], [0, 1],
                            {"train": [0]})
        path.write_text('{"n": 2,\n "d": x}\n')
        with pytest.raises(GraphFormatError, match=r"g\.json: .*line 2"):
            load_bundle(path)

    def test_round_trip_identical(self, tmp_path, rng):
        g = random_graph(rng, n=9, d=3)
        path = tmp_path / "g.json"
        save_bundle(g, path)
        h = load_bundle(path)
        assert g.n == h.n and g.d == h.d and g.C == h.C
        np.testing.assert_array_equal(g.edges, h.edges)
        np.testing.assert_array_equal(g.y, h.y)
        np.testing.assert_allclose(g.X, h.X, rtol=0, atol=0)
        for name in g.masks:
            np.testing.assert_array_equal(g.mask(name), h.mask(name))


class TestBundle:
    def test_round_trip(self, tmp_path, rng):
        g = random_graph(rng, n=7, d=2)
        path = tmp_path / "g.json"
        save_bundle(g, path)
        h = load_bundle(path)
        np.testing.assert_array_equal(g.X, h.X)
        np.testing.assert_array_equal(g.edges, h.edges)

    @pytest.mark.parametrize("case", ["random", "edgeless"])
    def test_bytes_are_sorted_compact_json_of_the_document(self, case,
                                                           tmp_path, rng):
        if case == "random":
            g = random_graph(rng, n=9, d=3)
        else:  # no edges, empty val/test_ood masks, awkward float reprs
            g = make_graph([[1e-05, 1e+16], [-0.0, 2.5]], [], [0, 1],
                           masks={"train": [0], "test_id": [1]})
        path = tmp_path / "g.json"
        save_bundle(g, path)
        assert path.read_text() == json.dumps(
            oracles.bundle_doc(g), sort_keys=True, separators=(",", ":")) + "\n"

    def test_shared_memo_encodes_a_shared_array_once(self, tmp_path, rng,
                                                      monkeypatch):
        g = make_graph(rng.normal(size=(6, 2)), [[0, 1], [2, 3]],
                       [0, 1, 0, 1, 0, 1],
                       masks={"train": [0, 1], "val": [2], "test_id": [3],
                              "test_ood": [4, 5]})
        twin = replace(g, edges=np.array([[1, 4]]))   # shares every other array
        expected = [json.dumps(oracles.bundle_doc(h), sort_keys=True,
                               separators=(",", ":")) + "\n" for h in (g, twin)]
        encoded = []
        dumps = json.dumps
        monkeypatch.setattr(json, "dumps",
                            lambda obj, **kw: encoded.append(obj) or dumps(obj, **kw))
        memo = {}
        save_bundle(g, tmp_path / "g.json", memo)
        assert len(encoded) == 7                      # X, edges, y, 4 masks
        save_bundle(twin, tmp_path / "twin.json", memo)
        assert encoded[7:] == [[[1, 4]]]
        assert [(tmp_path / f).read_text() for f in ("g.json", "twin.json")] \
            == expected

    def test_failed_write_keeps_old_file_and_leaves_no_temporary(
            self, tmp_path, rng, monkeypatch):
        path = tmp_path / "g.json"
        path.write_text("old")

        def refuse(src, dst):
            raise OSError("disk full")
        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            save_bundle(random_graph(rng, n=5), path)
        assert [p.name for p in tmp_path.iterdir()] == ["g.json"]
        assert path.read_text() == "old"

    def test_save_is_deterministic(self, tmp_path, rng):
        g = random_graph(rng, n=7, d=2)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_bundle(g, a)
        save_bundle(g, b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, "d": 1}))
        with pytest.raises(GraphFormatError, match="missing"):
            load_bundle(path)


class TestValidation:
    def test_overlapping_supervised_masks_rejected(self):
        with pytest.raises(GraphError, match="overlap"):
            make_graph([[0.0], [1.0]], [[0, 1]], [0, 1],
                       masks={"train": [0], "test_ood": [0]})

    def test_unknown_mask_name_rejected(self):
        with pytest.raises(GraphError, match="unknown mask"):
            make_graph([[0.0]], [], [0], masks={"holdout": [0]})

    def test_label_count_mismatch(self):
        with pytest.raises(GraphError):
            make_graph([[0.0], [1.0]], [], [0], C=1)

    def test_canonical_edges_dedupes_and_orients(self):
        out = canonical_edges(np.array([[1, 0], [0, 1], [2, 2], [1, 2]]), 3)
        assert out.tolist() == [[0, 1], [1, 2]]

    @pytest.mark.parametrize("pairs", [[], [[1, 1], [0, 0]]],
                             ids=["no_pairs", "self_loops_only"])
    def test_no_edge_left_gives_an_edgeless_graph(self, pairs):
        """Every node is isolated: degree 0, and propagation keeps each
        node's energy as it is."""
        out = canonical_edges(pairs, 3)
        assert out.shape == (0, 2) and out.dtype == np.int64
        g = make_graph(np.zeros((3, 1)), pairs, [0, 1, 0])
        assert g.edges.shape == (0, 2) and g.edges.dtype == np.int64
        deg = g.degrees()
        assert deg.dtype == np.int64 and deg.tolist() == [0, 0, 0]
        e = np.array([0.5, -1.0, 2.0])
        out = propagate_energy(EnergyScores(e), g, alpha=0.5, k=2).e
        np.testing.assert_array_equal(out, e)


class TestAdjacency:
    def test_two_clique_sym_norm_entries(self, two_clique):
        dense = sym_normalized_adjacency(two_clique).csr.toarray()
        np.testing.assert_allclose(dense, np.full((2, 2), 0.5), atol=1e-15)

    def test_isolated_node_sym_norm(self):
        g = make_graph([[0.0]], [], [0])
        assert sym_normalized_adjacency(g).csr.toarray().tolist() == [[1.0]]

    def test_path_graph_sym_norm_entry(self, path3):
        dense = sym_normalized_adjacency(path3).csr.toarray()
        assert dense[0, 1] == pytest.approx(1 / np.sqrt(6), abs=1e-15)

    def test_row_stochastic_two_neighbors(self, path3):
        dense = propagation_operator(path3).csr.toarray()
        assert dense[1].tolist() == [0.5, 0.0, 0.5]

    def test_row_stochastic_isolated_row_is_self_loop(self):
        g = make_graph([[0.0], [1.0], [2.0]], [[0, 1]], [0, 1, 0])
        dense = propagation_operator(g).csr.toarray()
        assert dense[2].tolist() == [0.0, 0.0, 1.0]

    def test_star_center_row(self):
        g = make_graph(np.zeros((4, 1)), [[0, 1], [0, 2], [0, 3]], [0] * 4)
        dense = propagation_operator(g).csr.toarray()
        np.testing.assert_allclose(dense[0, 1:], 1 / 3)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_sym_norm_is_symmetric(self, seed):
        g = random_graph(np.random.default_rng(seed))
        dense = sym_normalized_adjacency(g).csr.toarray()
        np.testing.assert_allclose(dense, dense.T, atol=1e-15)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_row_stochastic_rows_in_simplex(self, seed):
        g = random_graph(np.random.default_rng(seed))
        dense = propagation_operator(g).csr.toarray()
        assert (dense >= 0).all()
        np.testing.assert_allclose(dense.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_run_single_builds_each_operator_once_per_graph(monkeypatch):
    """Training, validation and scoring share each graph's operators.

    Every tide binding of the two builders is replaced by a counting
    wrapper, so a build through any module is seen.
    """
    from tide import detection, experiment, graph
    g_id, g_ood = experiment.make_fixture("joint", 0)
    builds = []
    for home, name in ((graph, "sym_normalized_adjacency"),
                       (detection, "propagation_operator")):
        orig = getattr(home, name)

        def counted(g, orig=orig, name=name):
            builds.append((name, id(g)))
            return orig(g)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "tide" or mod_name.startswith("tide."):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        monkeypatch.setattr(mod, attr, counted)
    experiment.run_single("tide", 0, g_id, g_ood, epochs=3)
    assert sorted(builds) == sorted(
        (name, id(g)) for name in ("sym_normalized_adjacency",
                                   "propagation_operator")
        for g in (g_id, g_ood))


def _product_operators():
    """Operators at or below ``NUMPY_PRODUCT_MAX_N`` nodes, by name: both
    kinds on a graph with isolated nodes, a hand-built one with empty
    rows and an unsorted, asymmetric entry order, and one with no
    entries."""
    rng = np.random.default_rng(5)
    n = graph.NUMPY_PRODUCT_MAX_N
    g = random_graph(rng, n=n - 2, p=0.15)  # nodes n-2 and n-1: no edges
    g = make_graph(np.zeros((n, 1)), g.edges, [0] * n)
    assert (g.degrees() == 0).sum() >= 2
    rows = np.array([3, 0, 3, 5, 0, 3])
    cols = np.array([4, 2, 0, 5, 1, 2])
    return {
        "sym_normalized": sym_normalized_adjacency(g),
        "propagation": propagation_operator(g),
        "empty_rows": graph.SparseMatrix(7, rows, cols, rng.normal(size=6)),
        "no_entries": graph.SparseMatrix(4, [], [], []),
    }


@pytest.mark.parametrize("name", ["sym_normalized", "propagation",
                                  "empty_rows", "no_entries"])
@pytest.mark.parametrize("shape", [(1,), (6,), (3, 6), (2, 3, 1)],
                         ids=["column", "block", "stack", "stack_of_columns"])
def test_small_products_have_scipys_bits(name, shape):
    """A small operator's numpy products equal scipy's ``csr @ v`` and
    ``csr_t @ v`` byte for byte, slice by slice, without building a CSR
    matrix. A (n, 1) column takes scipy's ``csr_matvec`` path, a block
    its ``csr_matvecs``; -0.0 entries check that each sum starts from
    +0.0 as scipy's does."""
    A = _product_operators()[name]
    assert A.n <= graph.NUMPY_PRODUCT_MAX_N
    rng = np.random.default_rng(len(shape))
    *lead, h = shape
    v = rng.normal(size=(*lead, A.n, h))
    v[rng.random(v.shape) < 0.2] = -0.0
    got = A.matmul(v), A.matmul_t(v)
    assert "csr" not in vars(A) and "csr_t" not in vars(A)
    for out, csr in zip(got, (A.csr, A.csr_t)):
        assert out.shape == v.shape and out.flags.c_contiguous
        for index in np.ndindex(*lead):
            want = csr @ v[index]
            assert want.shape == out[index].shape
            assert out[index].tobytes() == want.tobytes()


def test_a_large_stack_folds_into_one_scipy_product():
    """Above ``NUMPY_PRODUCT_MAX_N`` a stack is folded into one scipy
    product, and each slice still gets the bits of its own product."""
    g = random_graph(np.random.default_rng(2),
                     n=graph.NUMPY_PRODUCT_MAX_N + 1)
    A = propagation_operator(g)
    v = np.random.default_rng(3).normal(size=(4, A.n, 2))
    for out, csr in zip((A.matmul(v), A.matmul_t(v)), (A.csr, A.csr_t)):
        assert out.flags.c_contiguous
        for i in range(len(v)):
            assert out[i].tobytes() == (csr @ v[i]).tobytes()
