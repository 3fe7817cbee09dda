import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tide.graph import (Graph, GraphError, GraphFormatError, canonical_edges,
                        load_bundle, make_graph, row_stochastic_adjacency,
                        save_bundle, sym_normalized_adjacency)
from conftest import random_graph


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


class TestAdjacency:
    def test_two_clique_sym_norm_entries(self, two_clique):
        dense = sym_normalized_adjacency(two_clique).to_dense()
        np.testing.assert_allclose(dense, np.full((2, 2), 0.5), atol=1e-15)

    def test_isolated_node_sym_norm(self):
        g = make_graph([[0.0]], [], [0])
        assert sym_normalized_adjacency(g).to_dense().tolist() == [[1.0]]

    def test_path_graph_sym_norm_entry(self, path3):
        dense = sym_normalized_adjacency(path3).to_dense()
        assert dense[0, 1] == pytest.approx(1 / np.sqrt(6), abs=1e-15)

    def test_row_stochastic_two_neighbors(self, path3):
        dense = row_stochastic_adjacency(path3).to_dense()
        assert dense[1].tolist() == [0.5, 0.0, 0.5]

    def test_row_stochastic_isolated_row_is_zero(self):
        g = make_graph([[0.0], [1.0], [2.0]], [[0, 1]], [0, 1, 0])
        dense = row_stochastic_adjacency(g).to_dense()
        assert dense[2].tolist() == [0.0, 0.0, 0.0]

    def test_star_center_row(self):
        g = make_graph(np.zeros((4, 1)), [[0, 1], [0, 2], [0, 3]], [0] * 4)
        dense = row_stochastic_adjacency(g).to_dense()
        np.testing.assert_allclose(dense[0, 1:], 1 / 3)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_sym_norm_is_symmetric(self, seed):
        g = random_graph(np.random.default_rng(seed))
        dense = sym_normalized_adjacency(g).to_dense()
        np.testing.assert_allclose(dense, dense.T, atol=1e-15)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_row_stochastic_rows_in_simplex(self, seed):
        g = random_graph(np.random.default_rng(seed))
        dense = row_stochastic_adjacency(g).to_dense()
        assert (dense >= 0).all()
        sums = dense.sum(axis=1)
        assert all(abs(s - 1) < 1e-12 or s == 0.0 for s in sums)
