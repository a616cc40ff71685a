"""BH FDR, cluster extraction, and cluster tables against brute force."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from boldkit.glm import StatMaps
from boldkit.inference import (
    CLUSTER_COLUMNS,
    cluster_table,
    extract_clusters,
    fdr_bh,
    label_components,
)
from boldkit.pipeline import OutputTracker

from oracles import bh_reject_bruteforce, flood_fill_components


class TestFdrBh:
    def test_hand_worked_example(self):
        result = fdr_bh([0.01, 0.02, 0.03, 0.04], q=0.05)
        assert result.rejected.all()
        assert result.p_threshold == 0.04

    def test_all_ones_rejects_nothing(self):
        result = fdr_bh(np.ones(50), q=0.05)
        assert result.n_rejected == 0
        assert result.p_threshold == 0.0

    def test_matches_bruteforce_on_random_vectors(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            m = int(rng.integers(1, 60))
            p = rng.random(m)
            if rng.random() < 0.3:
                p[: m // 2] = rng.random(m // 2) * 0.01  # some strong signals
            q = float(rng.uniform(0.01, 0.2))
            result = fdr_bh(p, q)
            np.testing.assert_array_equal(result.rejected, bh_reject_bruteforce(p, q))

    def test_adjusted_p_properties(self):
        rng = np.random.default_rng(22)
        p = rng.random(200)
        result = fdr_bh(p, q=0.05)
        assert np.all(result.adjusted_p >= p - 1e-15)
        assert np.all(result.adjusted_p <= 1.0)
        order = np.argsort(p, kind="stable")
        assert np.all(np.diff(result.adjusted_p[order]) >= -1e-15)

    def test_rejection_consistent_with_threshold(self):
        rng = np.random.default_rng(23)
        p = rng.random(500) ** 2
        result = fdr_bh(p, q=0.1)
        np.testing.assert_array_equal(result.rejected, p <= result.p_threshold)

    def test_monotone_in_q(self):
        rng = np.random.default_rng(24)
        p = rng.random(300) ** 3
        small = fdr_bh(p, q=0.02)
        large = fdr_bh(p, q=0.2)
        assert np.all(large.rejected[small.rejected])

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40),
           st.floats(min_value=0.01, max_value=0.5))
    @settings(max_examples=100, deadline=None)
    def test_bruteforce_equivalence_property(self, p, q):
        result = fdr_bh(p, q)
        np.testing.assert_array_equal(result.rejected, bh_reject_bruteforce(p, q))

    @pytest.mark.parametrize("m", [7, 5000, 122_880])
    def test_heavy_ties_match_a_stable_sort_bitwise(self, m):
        # how the sort orders tied p-values changes no bit of the result
        rng = np.random.default_rng(25)
        levels = np.array([0.0, 1e-6, 0.001, 0.004, 0.01, 0.02, 0.05, 0.3, 0.5, 1.0])
        p = levels[rng.integers(0, levels.size, m)]
        p[rng.random(m) < 0.2] = rng.random() * 0.01  # one more tied value
        q = 0.05
        order = np.argsort(p, kind="stable")
        sorted_p, ranks = p[order], np.arange(1, m + 1)
        passing = np.nonzero(sorted_p <= ranks * q / m)[0]
        threshold = float(sorted_p[passing[-1]]) if passing.size else 0.0
        adjusted = np.empty(m)
        adjusted[order] = np.minimum(
            np.minimum.accumulate((m * sorted_p / ranks)[::-1])[::-1], 1.0)

        result = fdr_bh(p, q)
        assert np.float64(result.p_threshold).tobytes() == np.float64(threshold).tobytes()
        rejected = p <= threshold if passing.size else np.zeros(m, dtype=bool)
        assert np.array_equal(result.rejected, rejected)
        assert result.adjusted_p.tobytes() == adjusted.tobytes()

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fdr_bh([0.5, 1.2], q=0.05)
        with pytest.raises(ValueError):
            fdr_bh([0.5], q=1.5)


def stat_maps_for(mask, rng):
    shape = mask.shape
    t = rng.standard_normal(shape) + 5.0 * mask
    p = np.exp(-np.maximum(t, 0.0))
    z = t.copy()
    return StatMaps(t=t, p=p, z=z, degenerate=np.zeros(shape, bool), dof=50)


class TestExtractClusters:
    def test_single_voxel(self):
        mask = np.zeros((4, 4, 4), dtype=bool)
        mask[1, 2, 3] = True
        stats = stat_maps_for(mask, np.random.default_rng(0))
        clusters = extract_clusters(mask, stats, 26)
        assert len(clusters) == 1
        assert clusters[0].n_voxels == 1
        assert clusters[0].centroid_vox == (1.0, 2.0, 3.0)
        assert clusters[0].peak_t == stats.t[1, 2, 3]

    def test_in_plane_diagonal_pair(self):
        mask = np.zeros((4, 4, 1), dtype=bool)
        mask[1, 1, 0] = True
        mask[2, 2, 0] = True
        stats = stat_maps_for(mask, np.random.default_rng(1))
        assert len(extract_clusters(mask, stats, 26)) == 1
        assert len(extract_clusters(mask, stats, 6)) == 2

    @pytest.mark.parametrize("connectivity", [6, 18, 26])
    def test_matches_flood_fill_on_random_masks(self, connectivity):
        rng = np.random.default_rng(connectivity)
        for _ in range(167):
            mask = rng.random((16, 16, 16)) < rng.uniform(0.02, 0.4)
            stats = stat_maps_for(mask, rng)
            clusters = extract_clusters(mask, stats, connectivity)
            oracle = flood_fill_components(mask, connectivity)
            got = {frozenset(map(tuple, c.voxel_ids.tolist())) for c in clusters}
            assert got == set(oracle)

    @pytest.mark.parametrize("connectivity", [6, 18, 26])
    def test_labels_and_members_match_ndimage(self, connectivity):
        structure = ndimage.generate_binary_structure(3, {6: 1, 18: 2, 26: 3}[connectivity])
        rng = np.random.default_rng(100 + connectivity)
        for _ in range(60):
            shape = tuple(int(n) for n in rng.integers(1, 20, 3))
            mask = rng.random(shape) < rng.uniform(0.01, 0.6)
            labels, n = ndimage.label(mask, structure=structure)
            got_labels, got_n = label_components(mask, connectivity)
            assert got_n == n
            np.testing.assert_array_equal(got_labels, labels)

            # the cluster list ndimage's labels and members give, in its order
            stats = stat_maps_for(mask, rng)
            members = ndimage.value_indices(labels, ignore_value=0)
            expected = [np.transpose(members[k]) for k in range(1, n + 1)]
            expected.sort(key=lambda c: (-c.shape[0], -stats.t[tuple(c.T)].max()))
            clusters = extract_clusters(mask, stats, connectivity)
            assert len(clusters) == len(expected)
            for cluster, coords in zip(clusters, expected):
                np.testing.assert_array_equal(cluster.voxel_ids, coords)

    def test_sorted_by_size_then_peak(self):
        rng = np.random.default_rng(3)
        mask = np.zeros((10, 10, 3), dtype=bool)
        mask[0:2, 0:2, 0] = True   # 4 voxels
        mask[5:8, 5:8, 0] = True   # 9 voxels
        mask[9, 9, 2] = True       # 1 voxel
        stats = stat_maps_for(mask, rng)
        sizes = [c.n_voxels for c in extract_clusters(mask, stats, 6)]
        assert sizes == [9, 4, 1]

    def test_every_rejected_voxel_in_exactly_one_cluster(self):
        rng = np.random.default_rng(4)
        mask = rng.random((12, 12, 8)) < 0.2
        stats = stat_maps_for(mask, rng)
        clusters = extract_clusters(mask, stats, 18)
        assert sum(c.n_voxels for c in clusters) == int(mask.sum())
        seen = set()
        for cluster in clusters:
            for voxel in map(tuple, cluster.voxel_ids.tolist()):
                assert voxel not in seen
                seen.add(voxel)

    def test_empty_mask_gives_empty_list(self):
        stats = stat_maps_for(np.zeros((3, 3, 3), bool), np.random.default_rng(5))
        assert extract_clusters(np.zeros((3, 3, 3), bool), stats, 26) == []


class TestClusterTable:
    def test_empty_list_header_only(self, tmp_path):
        rows = cluster_table([])
        assert rows == []
        path = tmp_path / "empty.csv"
        OutputTracker(tmp_path).csv("empty.csv", CLUSTER_COLUMNS, rows)
        assert path.read_text() == "rank,n_voxels,peak_p,peak_t,peak_z,cx,cy,cz\n"

    def test_rank_follows_size_order(self):
        rng = np.random.default_rng(6)
        mask = np.zeros((12, 12, 4), dtype=bool)
        mask[0:5, 0:5, 0:2] = True  # 50
        mask[8:10, 8:10, 2] = True  # 4 (disjoint block)
        stats = stat_maps_for(mask, rng)
        rows = cluster_table(extract_clusters(mask, stats, 6))
        assert [row["rank"] for row in rows] == [1, 2]
        assert rows[0]["n_voxels"] > rows[1]["n_voxels"]

    def test_peak_values_match_member_scan(self):
        rng = np.random.default_rng(7)
        mask = rng.random((10, 10, 6)) < 0.25
        stats = stat_maps_for(mask, rng)
        clusters = extract_clusters(mask, stats, 26)
        for cluster, row in zip(clusters, cluster_table(clusters)):
            members = [tuple(v) for v in cluster.voxel_ids.tolist()]
            assert row["peak_t"] == max(stats.t[v] for v in members)
            peak_voxel = max(members, key=lambda v: stats.t[v])
            assert row["peak_p"] == stats.p[peak_voxel]
            assert row["peak_z"] == stats.z[peak_voxel]

    def test_serialization_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        mask = rng.random((8, 8, 4)) < 0.3
        stats = stat_maps_for(mask, rng)
        rows = cluster_table(extract_clusters(mask, stats, 26))

        csv_path = tmp_path / "clusters.csv"
        OutputTracker(tmp_path).csv("clusters.csv", CLUSTER_COLUMNS, rows)
        with open(csv_path, newline="") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == CLUSTER_COLUMNS
            parsed = list(reader)
        assert len(parsed) == len(rows)
        for row, back in zip(rows, parsed):
            assert int(back["rank"]) == row["rank"]
            assert float(back["peak_t"]) == row["peak_t"]

        json_path = tmp_path / "clusters.json"
        OutputTracker(tmp_path).json("clusters.json", rows, sort_keys=False)
        loaded = json.loads(json_path.read_text())
        assert loaded == [{k: row[k] for k in CLUSTER_COLUMNS} for row in rows]
