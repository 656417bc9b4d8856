"""Dataset parsing, encoding, splits, synthetic generation, batching."""

import numpy as np
import pytest

from storerank.data import (
    Dataset,
    DatasetSchema,
    SyntheticSpec,
    batch_iter,
    build_vocab,
    chrono_split,
    encode_column,
    encode_features,
    gen_synthetic,
    load_dataset_cache,
    random_split,
    read_avazu_csv,
    save_dataset_cache,
    synthetic_schema,
)


def toy_schema():
    return DatasetSchema([
        ("click", "label"),
        ("site_id", "high_cardinality_item"),
        ("device_id", "group_key"),
        ("banner_pos", "static"),
    ])


def write_toy_csv(path, rows, header="click,site_id,device_id,banner_pos"):
    path.write_text("\n".join([header] + rows) + "\n")


class TestDatasetSchema:
    def test_role_counts_enforced(self):
        with pytest.raises(ValueError):
            DatasetSchema([("a", "static"), ("b", "label")])
        with pytest.raises(ValueError):
            DatasetSchema([("a", "high_cardinality_item"), ("b", "label")])
        with pytest.raises(ValueError):
            DatasetSchema([("a", "high_cardinality_item"),
                           ("g", "group_key")])

    def test_unknown_role(self):
        with pytest.raises(ValueError):
            DatasetSchema([("a", "fancy")])

    def test_duplicate_names(self):
        with pytest.raises(ValueError):
            DatasetSchema([("a", "label"), ("a", "group_key"),
                           ("b", "high_cardinality_item")])

    def test_accessors(self):
        s = toy_schema()
        assert s.label_col == "click"
        assert s.item_col == "site_id"
        assert s.group_col == "device_id"
        assert s.static_cols == ["banner_pos"]
        assert s.feature_cols == ["site_id", "device_id", "banner_pos"]

    def test_avazu_default_is_valid(self):
        s = DatasetSchema.avazu_default()
        assert s.item_col == "site_id"


class TestReadAvazuCsv:
    def test_round_trip_values(self, tmp_path):
        p = tmp_path / "log.csv"
        write_toy_csv(p, ["1,s1,d1,0", "0,s2,d1,1", "1,s1,d2,0"])
        ds = read_avazu_csv(p, toy_schema())
        assert len(ds) == 3
        assert ds.labels.tolist() == [1, 0, 1]
        assert ds.column("site_id").tolist() == ["s1", "s2", "s1"]
        assert ds.column("banner_pos").tolist() == ["0", "1", "0"]
        assert ds.chronological

    def test_extra_columns_ignored(self, tmp_path):
        p = tmp_path / "log.csv"
        p.write_text("id,click,site_id,device_id,banner_pos\n"
                     "x1,0,s1,d1,2\n")
        ds = read_avazu_csv(p, toy_schema())
        assert ds.column("banner_pos").tolist() == ["2"]

    def test_missing_schema_column(self, tmp_path):
        p = tmp_path / "log.csv"
        p.write_text("click,site_id,device_id\n1,s,d\n")
        with pytest.raises(ValueError, match="banner_pos"):
            read_avazu_csv(p, toy_schema())

    def test_bad_field_count_names_line(self, tmp_path):
        p = tmp_path / "log.csv"
        write_toy_csv(p, ["1,s1,d1,0", "0,s2,d1"])
        with pytest.raises(ValueError, match=":3:"):
            read_avazu_csv(p, toy_schema())

    def test_bad_label_names_line(self, tmp_path):
        p = tmp_path / "log.csv"
        write_toy_csv(p, ["2,s1,d1,0"])
        with pytest.raises(ValueError, match=":2:"):
            read_avazu_csv(p, toy_schema())

    def test_skip_malformed_counts(self, tmp_path):
        p = tmp_path / "log.csv"
        write_toy_csv(p, ["1,s1,d1,0", "0,s2,d1", "oops,s3,d2,1", "0,s4,d2,1"])
        ds = read_avazu_csv(p, toy_schema(), skip_malformed=True)
        assert len(ds) == 2
        assert ds.skipped_rows == 2
        assert ds.column("site_id").tolist() == ["s1", "s4"]


class TestEncoding:
    def test_vocab_sorted_with_reserved_zero(self):
        v = build_vocab(["b", "a", "b", "c"])
        assert v == {"a": 1, "b": 2, "c": 3}

    def test_unseen_maps_to_oov(self):
        v = build_vocab(["a", "b"])
        assert encode_column(["b", "zzz", "a"], v).tolist() == [2, 0, 1]

    def test_train_only_vocab(self, tmp_path):
        p = tmp_path / "log.csv"
        write_toy_csv(p, ["1,s1,d1,0", "0,s2,d1,1", "1,s3,d2,0", "0,s9,d3,1"])
        ds = read_avazu_csv(p, toy_schema())
        train, val = chrono_split(ds, val_fraction=0.25)
        tr, va, vocabs = encode_features(train, val, ds.schema)
        # s9 and d3 appear only in validation
        assert va.features["site_id"].tolist() == [0]
        assert va.features["device_id"].tolist() == [0]
        assert tr.vocab_sizes["site_id"] == 4  # s1 s2 s3 + OOV
        assert np.array_equal(va.groups, va.features["device_id"])
        assert va.raw_items.tolist() == ["s9"]

    def test_labels_become_float(self, tmp_path):
        p = tmp_path / "log.csv"
        write_toy_csv(p, ["1,s1,d1,0", "0,s2,d1,1"])
        ds = read_avazu_csv(p, toy_schema())
        tr, _, _ = encode_features(ds, None, ds.schema)
        assert tr.labels.dtype == np.float64


class TestSplits:
    def make(self, n):
        cols = {"site_id": np.array([f"s{i}" for i in range(n)], dtype=object),
                "device_id": np.array(["d"] * n, dtype=object),
                "banner_pos": np.array(["0"] * n, dtype=object)}
        return Dataset(toy_schema(), cols, np.zeros(n, dtype=np.int8), True)

    def test_chrono_takes_last_fraction(self):
        ds = self.make(20)
        train, val = chrono_split(ds, 0.1)
        assert len(train) == 18 and len(val) == 2
        assert val.column("site_id").tolist() == ["s18", "s19"]

    def test_chrono_requires_order(self):
        ds = self.make(10)
        ds.chronological = False
        with pytest.raises(ValueError):
            chrono_split(ds)

    def test_random_split_partitions(self):
        ds = self.make(17)
        train, val = random_split(ds, 0.2, seed=3)
        got = sorted(train.column("site_id").tolist()
                     + val.column("site_id").tolist())
        assert got == sorted(f"s{i}" for i in range(17))
        assert len(val) == 3

    def test_random_split_deterministic(self):
        ds = self.make(30)
        a_train, a_val = random_split(ds, 0.3, seed=5)
        b_train, b_val = random_split(ds, 0.3, seed=5)
        assert a_val.column("site_id").tolist() == b_val.column("site_id").tolist()
        assert a_train.column("site_id").tolist() == b_train.column("site_id").tolist()

    def test_degenerate_fractions_rejected(self):
        ds = self.make(5)
        with pytest.raises(ValueError):
            chrono_split(ds, 0.0)
        with pytest.raises(ValueError):
            random_split(ds, 1.0)


class TestBatchIter:
    def test_sizes(self):
        sizes = [len(b) for b in batch_iter(10, 4)]
        assert sizes == [4, 4, 2]

    def test_covers_exactly_once(self):
        seen = np.concatenate(list(batch_iter(23, 5, shuffle_seed=1, epoch=0)))
        assert sorted(seen.tolist()) == list(range(23))

    def test_deterministic_per_seed_epoch(self):
        a = np.concatenate(list(batch_iter(12, 5, shuffle_seed=2, epoch=1)))
        b = np.concatenate(list(batch_iter(12, 5, shuffle_seed=2, epoch=1)))
        c = np.concatenate(list(batch_iter(12, 5, shuffle_seed=2, epoch=2)))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_no_seed_keeps_order(self):
        got = np.concatenate(list(batch_iter(7, 3)))
        assert got.tolist() == list(range(7))

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            list(batch_iter(5, 0))


class TestSyntheticSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_clusters=10, n_items=5)
        with pytest.raises(ValueError):
            SyntheticSpec(noise_rate=0.5)
        with pytest.raises(ValueError):
            SyntheticSpec(n_instances=0)

    @pytest.mark.parametrize("kw", [
        dict(static_cards=()), dict(static_cards=(8, 0)), dict(n_clusters=0),
        dict(n_user_tastes=0),
    ])
    def test_rejects_empty_or_zero_counts(self, kw):
        with pytest.raises(ValueError):
            SyntheticSpec(**kw)


class TestGenSynthetic:
    def test_shapes_and_ranges(self):
        spec = SyntheticSpec(n_instances=500, n_items=50, n_users=20, n_clusters=8, seed=1)
        ds, table = gen_synthetic(spec)
        assert len(ds) == 500
        assert len(table) == 50
        assert table.dim == spec.d_p
        items = ds.column("item_id")
        assert all(i in table for i in items)
        assert set(np.unique(ds.labels)) <= {0, 1}

    def test_deterministic(self):
        spec = SyntheticSpec(n_instances=400, seed=9)
        a_ds, a_tab = gen_synthetic(spec)
        b_ds, b_tab = gen_synthetic(spec)
        assert np.array_equal(a_ds.labels, b_ds.labels)
        for n in a_ds.schema.feature_cols:
            assert a_ds.column(n).tolist() == b_ds.column(n).tolist()
        assert np.array_equal(a_tab.vectors, b_tab.vectors)

    def test_saturated_logits_make_labels_deterministic(self):
        spec = SyntheticSpec(n_instances=300, noise_rate=0.0,
                             interaction_scale=500.0, linear_scale=0.0,
                             bias=0.0, seed=2)
        ds, _ = gen_synthetic(spec)
        assert np.array_equal(ds.labels, (ds.planted_probs > 0.5).astype(np.int8))

    def test_empirical_ctr_matches_planted_mean(self):
        spec = SyntheticSpec(n_instances=100000, noise_rate=0.0, seed=3)
        ds, _ = gen_synthetic(spec)
        assert abs(ds.labels.mean() - ds.planted_probs.mean()) < 0.02

    def test_cluster_structure_in_embeddings(self):
        spec = SyntheticSpec(n_instances=10, n_items=400, n_clusters=4,
                             embed_noise=0.01, seed=4)
        _, table = gen_synthetic(spec)
        # greedy farthest-point picks: 4 representatives cover every item
        # tightly, 3 leave a whole cluster uncovered
        vecs = table.vectors
        reps = [vecs[0]]
        for _ in range(3):
            d = np.min([np.linalg.norm(vecs - r, axis=1) for r in reps], axis=0)
            reps.append(vecs[d.argmax()])
        d4 = np.min([np.linalg.norm(vecs - r, axis=1) for r in reps], axis=0)
        d3 = np.min([np.linalg.norm(vecs - r, axis=1) for r in reps[:3]], axis=0)
        assert d4.max() < 0.5
        assert d3.max() > 1.0


class TestDatasetCache:
    def make(self):
        spec = SyntheticSpec(n_instances=50, n_items=10, n_users=5, n_clusters=4, seed=6)
        ds, _ = gen_synthetic(spec)
        return ds

    def test_round_trip(self, tmp_path):
        ds = self.make()
        p = tmp_path / "d.strd"
        save_dataset_cache(p, ds)
        back = load_dataset_cache(p)
        assert len(back) == len(ds)
        assert back.schema.columns == ds.schema.columns
        assert np.array_equal(back.labels, ds.labels)
        for n in ds.schema.feature_cols:
            assert back.column(n).tolist() == ds.column(n).tolist()
        assert back.chronological == ds.chronological

    def test_byte_stable(self, tmp_path):
        ds = self.make()
        p1, p2 = tmp_path / "a.strd", tmp_path / "b.strd"
        save_dataset_cache(p1, ds)
        save_dataset_cache(p2, ds)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.strd"
        p.write_bytes(b"WRONG\n{}\n")
        with pytest.raises(ValueError, match="magic"):
            load_dataset_cache(p)

    def test_truncation_detected(self, tmp_path):
        ds = self.make()
        p = tmp_path / "d.strd"
        save_dataset_cache(p, ds)
        raw = p.read_bytes()
        p.write_bytes(raw[:-3])
        with pytest.raises(ValueError, match="truncated"):
            load_dataset_cache(p)


class TestDataset:
    def test_label_validation(self):
        with pytest.raises(ValueError):
            Dataset(toy_schema(),
                    {"site_id": np.array(["a"], dtype=object),
                     "device_id": np.array(["d"], dtype=object),
                     "banner_pos": np.array(["0"], dtype=object)},
                    np.array([2]), True)

    def test_missing_column(self):
        with pytest.raises(ValueError, match="banner_pos"):
            Dataset(toy_schema(),
                    {"site_id": np.array(["a"], dtype=object),
                     "device_id": np.array(["d"], dtype=object)},
                    np.array([0]), True)

    def test_subset_preserves_order(self):
        spec = SyntheticSpec(n_instances=30, n_items=6, n_users=4, n_clusters=3, seed=8)
        ds, _ = gen_synthetic(spec)
        sub = ds.subset(np.array([5, 2, 9]))
        assert sub.column("item_id").tolist() == [
            ds.column("item_id")[5], ds.column("item_id")[2],
            ds.column("item_id")[9]]
        assert len(sub) == 3
