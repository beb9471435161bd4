"""Tests for the Asteria core: labels, preprocessing, siamese heads,
calibration, the model facade, pairs and training."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.calibration import (
    DEFAULT_BETA,
    calibrated_similarity,
    callee_similarity,
    filtered_callee_count,
)
from repro.core.labels import NODE_LABELS, NUM_LABELS, label_of
from repro.core.model import Asteria, AsteriaConfig
from repro.core.pairs import (
    ARCH_COMBINATIONS,
    build_cross_arch_pairs,
    split_pairs,
    to_tree_pairs,
)
from repro.core.preprocess import (
    PreprocessError,
    digitize,
    preprocess_ast,
    try_preprocess_ast,
)
from repro.core.siamese import SiameseClassifier, SiameseRegression
from repro.core.training import TrainConfig, Trainer
from repro.lang import nodes as N
from repro.lang.nodes import ALL_OPS, Node, Ops
from repro.nn.treelstm import BinaryTreeLSTM, flatten_tree


class TestLabels:
    def test_every_op_labelled(self):
        for op in ALL_OPS:
            assert op in NODE_LABELS

    def test_table_one_ranges(self):
        assert NODE_LABELS[Ops.IF] == 1
        assert NODE_LABELS[Ops.BREAK] == 9
        assert 10 <= NODE_LABELS[Ops.ASG] <= 17
        assert 18 <= NODE_LABELS[Ops.EQ] <= 23
        assert 24 <= NODE_LABELS[Ops.ADD] <= 34
        assert NODE_LABELS[Ops.VAR] >= 35

    def test_labels_unique(self):
        assert len(set(NODE_LABELS.values())) == len(NODE_LABELS)

    def test_num_labels_covers(self):
        assert NUM_LABELS == max(NODE_LABELS.values()) + 1

    def test_label_of_unknown(self):
        with pytest.raises(KeyError):
            label_of("banana")


@st.composite
def asts(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        kind = draw(st.sampled_from([Ops.VAR, Ops.NUM, Ops.STR]))
        value = {"var": "x", "num": 1, "str": "s"}[kind]
        return Node(kind, value=value)
    kind = draw(st.sampled_from([Ops.BLOCK, Ops.ADD, Ops.ASG, Ops.IF]))
    n_children = draw(st.integers(min_value=1, max_value=3))
    children = tuple(draw(asts(depth=depth - 1)) for _ in range(n_children))
    return Node(kind, children)


class TestPreprocess:
    def test_lcrs_known_tree(self):
        """block(a, b, c): a becomes left child, b the right of a, etc."""
        tree = N.block(N.num(1), N.num(2), N.num(3))
        binary = digitize(tree)
        assert binary.label == label_of(Ops.BLOCK)
        assert binary.left.label == label_of(Ops.NUM)
        assert binary.right is None
        assert binary.left.right.label == label_of(Ops.NUM)
        assert binary.left.right.right.label == label_of(Ops.NUM)

    def test_values_dropped(self):
        a = digitize(N.num(42))
        b = digitize(N.num(7))
        assert a.label == b.label

    @settings(max_examples=50, deadline=None)
    @given(asts())
    def test_lcrs_preserves_node_count(self, ast):
        assert digitize(ast).size() == ast.size()

    @settings(max_examples=50, deadline=None)
    @given(asts())
    def test_lcrs_preserves_label_multiset(self, ast):
        from collections import Counter

        original = Counter(label_of(n.op) for n in ast.walk())
        binarised = Counter(n.label for n in digitize(ast).postorder())
        assert original == binarised

    def test_min_size_enforced(self):
        tiny = N.block(N.ret(N.num(0)))
        with pytest.raises(PreprocessError):
            preprocess_ast(tiny, min_size=5)
        assert try_preprocess_ast(tiny, min_size=5) is None
        assert try_preprocess_ast(tiny, min_size=3) is not None

    def test_wide_deep_tree_no_recursion_error(self):
        wide = N.block(*[N.num(i) for i in range(5000)])
        assert digitize(wide).size() == 5001


class TestSiamese:
    def _trees(self):
        t1 = digitize(N.block(N.asg(N.var("x"), N.num(1)), N.ret(N.var("x"))))
        t2 = digitize(N.block(N.asg(N.var("y"), N.num(2)),
                              N.asg(N.var("z"), N.var("y")),
                              N.ret(N.var("z"))))
        return t1, t2

    def test_classifier_output_is_distribution(self):
        encoder = BinaryTreeLSTM(NUM_LABELS, 8, 16, seed=0)
        siamese = SiameseClassifier(encoder, seed=0)
        t1, t2 = self._trees()
        out = siamese(t1, t2)
        assert out.shape == (2,)
        assert float(out.data.sum()) == pytest.approx(1.0)
        assert np.all(out.data >= 0)

    def test_classifier_symmetric_in_arguments(self):
        encoder = BinaryTreeLSTM(NUM_LABELS, 8, 16, seed=0)
        siamese = SiameseClassifier(encoder, seed=0)
        t1, t2 = self._trees()
        assert siamese.similarity(t1, t2) == pytest.approx(
            siamese.similarity(t2, t1)
        )

    def test_fast_path_matches_forward(self):
        encoder = BinaryTreeLSTM(NUM_LABELS, 8, 16, seed=0)
        siamese = SiameseClassifier(encoder, seed=0)
        t1, t2 = self._trees()
        from repro.nn.tensor import no_grad

        with no_grad():
            v1 = encoder(t1).data
            v2 = encoder(t2).data
        assert siamese.similarity_from_vectors(v1, v2) == pytest.approx(
            siamese.similarity(t1, t2)
        )

    def test_identical_trees_same_encoding(self):
        encoder = BinaryTreeLSTM(NUM_LABELS, 8, 16, seed=0)
        t1, _ = self._trees()
        np.testing.assert_array_equal(encoder(t1).data, encoder(t1).data)

    def test_regression_head_in_unit_interval(self):
        encoder = BinaryTreeLSTM(NUM_LABELS, 8, 16, seed=0)
        siamese = SiameseRegression(encoder)
        t1, t2 = self._trees()
        assert 0.0 <= siamese.similarity(t1, t2) <= 1.0
        assert siamese.similarity(t1, t1) == pytest.approx(1.0)


class TestCalibration:
    def test_equation_nine(self):
        assert callee_similarity(3, 3) == 1.0
        assert callee_similarity(3, 5) == pytest.approx(np.exp(-2))
        assert callee_similarity(5, 3) == callee_similarity(3, 5)

    def test_equation_ten(self):
        assert calibrated_similarity(0.9, 2, 2) == pytest.approx(0.9)
        assert calibrated_similarity(0.9, 2, 4) == pytest.approx(0.9 * np.exp(-2))

    def test_inline_filter(self):
        callees = [("a", 5), ("b", 50), ("b", 50), ("c", DEFAULT_BETA)]
        assert filtered_callee_count(callees, DEFAULT_BETA) == 3
        assert filtered_callee_count(callees, 1000) == 0
        assert filtered_callee_count([], DEFAULT_BETA) == 0


class TestAsteriaModel:
    def test_config_defaults_match_paper(self):
        config = AsteriaConfig()
        assert config.embedding_dim == 16  # Figure 8's chosen size
        assert config.leaf_init == "zero"  # Figure 9
        assert config.head == "classification"  # Figure 9
        assert config.min_ast_size == 5

    def test_bad_head_rejected(self):
        with pytest.raises(ValueError):
            Asteria(AsteriaConfig(head="mlp"))

    def test_save_load_roundtrip(self, tmp_path, buildroot_small):
        model = Asteria(AsteriaConfig(hidden_dim=16))
        fn = buildroot_small.functions["x86"][0]
        encoding = model.encode_function(fn)
        path = tmp_path / "asteria.npz"
        model.save(path)
        restored = Asteria.load(path)
        assert restored.config == model.config
        np.testing.assert_allclose(
            restored.encode_function(fn).vector, encoding.vector
        )

    def test_encode_function_metadata(self, buildroot_small):
        model = Asteria(AsteriaConfig(hidden_dim=16))
        fn = buildroot_small.functions["arm"][0]
        encoding = model.encode_function(fn)
        assert encoding.arch == "arm"
        assert encoding.vector.shape == (16,)
        assert encoding.callee_count >= 0
        assert encoding.ast_size == fn.ast_size()

    def test_similarity_woc_vs_calibrated(self, buildroot_small):
        model = Asteria(AsteriaConfig(hidden_dim=16))
        fns = buildroot_small.functions["x86"]
        e1, e2 = model.encode_function(fns[0]), model.encode_function(fns[1])
        woc = model.similarity(e1, e2, calibrate=False)
        cal = model.similarity(e1, e2, calibrate=True)
        assert cal <= woc  # calibration only multiplies by a factor <= 1

    def test_tiny_ast_rejected(self):
        model = Asteria()
        with pytest.raises(PreprocessError):
            model.encode(N.ret(N.num(0)))


class TestPairs:
    def test_labels_and_archs(self, buildroot_small):
        pairs = build_cross_arch_pairs(buildroot_small.functions, 5, seed=0)
        assert pairs
        for pair in pairs:
            assert pair.label in (-1, +1)
            assert pair.first.arch != pair.second.arch
            if pair.label == +1:
                assert pair.first.name == pair.second.name
                assert pair.first.binary_name == pair.second.binary_name
            else:
                assert (pair.first.binary_name, pair.first.name) != (
                    pair.second.binary_name, pair.second.name
                )

    def test_library_functions_excluded(self, buildroot_small):
        pairs = build_cross_arch_pairs(buildroot_small.functions, 20, seed=0)
        for pair in pairs:
            assert not pair.first.name.startswith("lib_")
            assert not pair.second.name.startswith("lib_")

    def test_combo_restriction(self, buildroot_small):
        pairs = build_cross_arch_pairs(
            buildroot_small.functions, 5, combos=(("x86", "arm"),), seed=0
        )
        assert all({p.first.arch, p.second.arch} == {"x86", "arm"} for p in pairs)

    def test_six_combinations(self):
        assert len(ARCH_COMBINATIONS) == 6

    def test_negative_ratio(self, buildroot_small):
        pairs = build_cross_arch_pairs(
            buildroot_small.functions, 8, combos=(("x86", "arm"),),
            negative_ratio=2.0, seed=0,
        )
        n_pos = sum(1 for p in pairs if p.label > 0)
        n_neg = sum(1 for p in pairs if p.label < 0)
        assert n_neg == pytest.approx(2 * n_pos, abs=2)

    def test_deterministic(self, buildroot_small):
        a = build_cross_arch_pairs(buildroot_small.functions, 5, seed=3)
        b = build_cross_arch_pairs(buildroot_small.functions, 5, seed=3)
        assert [(p.first.name, p.second.name, p.label) for p in a] == [
            (p.first.name, p.second.name, p.label) for p in b
        ]

    def test_to_tree_pairs_filters_small(self, buildroot_small):
        pairs = build_cross_arch_pairs(buildroot_small.functions, 5, seed=0)
        tree_pairs = to_tree_pairs(pairs, min_ast_size=5)
        assert len(tree_pairs) <= len(pairs)
        huge = to_tree_pairs(pairs, min_ast_size=10 ** 6)
        assert not huge

    @pytest.mark.parametrize("seed", [0, 5, 13])
    def test_pair_columns_are_the_oracle_preprocessing(self, seed):
        """On generated corpora, ``to_tree_pairs`` keeps exactly the pairs
        ``try_preprocess_ast`` accepts on both sides, and each side's
        columns are the flattened ``preprocess_ast`` tree."""
        from repro.evalsuite.datasets import build_buildroot_dataset

        dataset = build_buildroot_dataset(n_packages=2, seed=seed)
        # no size or library filter here, so to_tree_pairs has to drop
        labelled = build_cross_arch_pairs(
            dataset.functions, 6, min_ast_size=1, seed=seed,
            exclude_prefix="",
        )
        assert {p.arch_combo for p in labelled} == set(ARCH_COMBINATIONS)
        for min_size in (5, 60):
            kept = to_tree_pairs(labelled, min_ast_size=min_size)
            expected = [
                p for p in labelled
                if try_preprocess_ast(p.first.ast, min_size) is not None
                and try_preprocess_ast(p.second.ast, min_size) is not None
            ]
            assert 0 < len(kept) < len(labelled)
            assert [(t.first, t.second, t.label) for t in kept] == [
                (p.first, p.second, p.label) for p in expected
            ]
            for pair in kept:
                for columns, fn in ((pair.t1, pair.first),
                                    (pair.t2, pair.second)):
                    labels, lefts, rights = flatten_tree(
                        preprocess_ast(fn.ast, min_size)
                    )
                    assert columns.labels.dtype == np.int64
                    assert columns.labels.tolist() == labels
                    assert columns.lefts.tolist() == lefts
                    assert columns.rights.tolist() == rights
                    assert columns.offsets.tolist() == [0, len(labels)]

    def test_split_pairs(self):
        train, test = split_pairs(list(range(100)), 0.8, seed=1)
        assert len(train) == 80 and len(test) == 20
        assert sorted(train + test) == list(range(100))
        with pytest.raises(ValueError):
            split_pairs([1], 1.5)


class TestTraining:
    def test_loss_decreases(self, buildroot_small):
        pairs = to_tree_pairs(
            build_cross_arch_pairs(buildroot_small.functions, 6, seed=5)
        )[:30]
        model = Asteria(AsteriaConfig(hidden_dim=16))
        trainer = Trainer(model.siamese, TrainConfig(epochs=2, lr=0.05))
        history = trainer.train(pairs)
        assert history.epochs[-1].mean_loss < history.epochs[0].mean_loss

    def test_best_weights_kept(self, buildroot_small):
        pairs = to_tree_pairs(
            build_cross_arch_pairs(buildroot_small.functions, 6, seed=6)
        )
        train, dev = pairs[:24], pairs[24:36]
        model = Asteria(AsteriaConfig(hidden_dim=16))
        trainer = Trainer(model.siamese, TrainConfig(epochs=2))
        history = trainer.train(train, dev)
        assert 0.0 <= history.best_auc <= 1.0
        assert history.best_epoch >= 0

    def test_scores_are_probabilities(self, buildroot_small, trained_model):
        pairs = to_tree_pairs(
            build_cross_arch_pairs(buildroot_small.functions, 4, seed=7)
        )
        trainer = Trainer(trained_model.siamese, TrainConfig(epochs=1))
        for pair in pairs[:10]:
            assert 0.0 <= trainer.score(pair) <= 1.0

    def test_trained_model_separates(self, buildroot_small, trained_model):
        """After brief training, homologous pairs outscore non-homologous."""
        pairs = to_tree_pairs(
            build_cross_arch_pairs(buildroot_small.functions, 10, seed=8)
        )
        trainer = Trainer(trained_model.siamese, TrainConfig(epochs=1))
        pos = [trainer.score(p) for p in pairs if p.label > 0]
        neg = [trainer.score(p) for p in pairs if p.label < 0]
        assert np.mean(pos) > np.mean(neg)

    def test_invalid_batch_size_rejected(self):
        model = Asteria(AsteriaConfig(hidden_dim=16))
        trainer = Trainer(model.siamese, TrainConfig(batch_size=0))
        with pytest.raises(ValueError):
            trainer.train([])

    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_unusable_pair_sets_rejected_before_a_step(
        self, buildroot_small, batch_size
    ):
        """No training pairs, or a dev set of one class (whose AUC is
        undefined), raise before any weight moves."""
        pairs = to_tree_pairs(
            build_cross_arch_pairs(buildroot_small.functions, 4, seed=15)
        )
        positives = [p for p in pairs if p.label > 0]
        model = Asteria(AsteriaConfig(hidden_dim=16))
        before = model.siamese.state_dict()
        trainer = Trainer(
            model.siamese, TrainConfig(epochs=1, batch_size=batch_size)
        )
        with pytest.raises(ValueError, match="a positive or a negative"):
            trainer.train(pairs[:8], positives[:3])
        with pytest.raises(ValueError, match="no training pairs"):
            trainer.train([], pairs[:8])
        after = model.siamese.state_dict()
        assert before.keys() == after.keys()
        for name, value in before.items():
            assert np.array_equal(value, after[name]), name

    def test_batched_training_loss_decreases(self, buildroot_small):
        pairs = to_tree_pairs(
            build_cross_arch_pairs(buildroot_small.functions, 6, seed=5)
        )[:32]
        model = Asteria(AsteriaConfig(hidden_dim=16))
        trainer = Trainer(
            model.siamese, TrainConfig(epochs=2, lr=0.05, batch_size=8)
        )
        history = trainer.train(pairs)
        assert history.epochs[-1].mean_loss < history.epochs[0].mean_loss

    def test_batched_training_same_auc_ballpark(self, buildroot_small):
        """Minibatching through the level-batched engine converges to the
        same AUC ballpark as the paper's batch-size-1 setting."""
        from repro.core.pairs import split_pairs

        pairs = to_tree_pairs(
            build_cross_arch_pairs(buildroot_small.functions, 10, seed=12)
        )
        train, dev = split_pairs(pairs, 0.8, seed=3)

        def best_auc(batch_size):
            model = Asteria(AsteriaConfig(hidden_dim=16))
            trainer = Trainer(
                model.siamese,
                TrainConfig(epochs=2, lr=0.05, batch_size=batch_size),
            )
            return trainer.train(train, dev).best_auc

        auc_single = best_auc(1)
        auc_batched = best_auc(4)
        assert auc_batched >= 0.6
        assert abs(auc_batched - auc_single) <= 0.2

    def test_score_batch_matches_per_pair(self, buildroot_small, trained_model):
        pairs = to_tree_pairs(
            build_cross_arch_pairs(buildroot_small.functions, 6, seed=14)
        )[:16]
        trainer = Trainer(
            trained_model.siamese, TrainConfig(epochs=1, batch_size=4)
        )
        batched = trainer.score_batch(pairs)
        singles = [trainer.score(p) for p in pairs]
        np.testing.assert_allclose(batched, singles, atol=1e-10)

    def test_batched_training_regression_head(self, buildroot_small):
        pairs = to_tree_pairs(
            build_cross_arch_pairs(buildroot_small.functions, 4, seed=13)
        )[:12]
        model = Asteria(AsteriaConfig(hidden_dim=16, head="regression"))
        trainer = Trainer(model.siamese, TrainConfig(epochs=1, batch_size=4))
        history = trainer.train(pairs)
        assert len(history.epochs) == 1
        assert np.isfinite(history.epochs[0].mean_loss)

    def test_regression_head_trainable(self, buildroot_small):
        pairs = to_tree_pairs(
            build_cross_arch_pairs(buildroot_small.functions, 4, seed=9)
        )[:12]
        model = Asteria(AsteriaConfig(hidden_dim=16, head="regression"))
        trainer = Trainer(model.siamese, TrainConfig(epochs=1))
        history = trainer.train(pairs)
        assert len(history.epochs) == 1
