"""End-to-end integration tests: the full paper pipeline at miniature scale."""

import numpy as np
import pytest

from repro.api import IngestRequest
from repro.core import build_cross_arch_pairs, to_tree_pairs
from repro.core.model import Asteria, AsteriaConfig
from repro.evalsuite.metrics import roc_auc, youden_threshold
from repro.evalsuite.vulnsearch import build_firmware_dataset


class TestComparativePipeline:
    def test_trained_asteria_beats_chance(self, trained_model, openssl_small):
        """The core claim at miniature scale: a trained Asteria separates
        homologous from non-homologous cross-architecture pairs."""
        pairs = build_cross_arch_pairs(openssl_small.functions, 10, seed=11)
        encodings = {}

        def encode(fn):
            key = (fn.arch, fn.binary_name, fn.name)
            if key not in encodings:
                encodings[key] = trained_model.encode_function(fn)
            return encodings[key]

        labels = [1 if p.label > 0 else 0 for p in pairs]
        scores = [
            trained_model.similarity(encode(p.first), encode(p.second))
            for p in pairs
        ]
        assert roc_auc(labels, scores) > 0.85

    def test_asteria_beats_diaphora(self, trained_model, openssl_small):
        from repro.baselines.diaphora import DiaphoraMatcher

        pairs = build_cross_arch_pairs(openssl_small.functions, 10, seed=12)
        labels = [1 if p.label > 0 else 0 for p in pairs]
        matcher = DiaphoraMatcher()
        diaphora_scores = [
            matcher.similarity(p.first.ast, p.second.ast) for p in pairs
        ]
        asteria_scores = [
            trained_model.compare_functions(p.first, p.second) for p in pairs
        ]
        assert roc_auc(labels, asteria_scores) > roc_auc(labels, diaphora_scores)


class TestVulnerabilitySearch:
    @pytest.fixture(scope="class")
    def search_result(self, make_vuln_search):
        dataset = build_firmware_dataset(
            n_images=8, seed=5, vulnerable_fraction=0.6
        )
        # Youden-style threshold from a quick self-calibration: the paper
        # uses 0.84; at miniature training scale we derive it the same way.
        search = make_vuln_search(threshold=0.8)
        search.engine.ingest(IngestRequest(images=dataset.images))
        report, candidates = search.search(dataset)
        return dataset, report, candidates

    def test_report_rows_cover_cves(self, search_result):
        _dataset, report, _candidates = search_result
        assert len(report.rows) == 7

    def test_finds_implanted_vulnerabilities(self, search_result):
        dataset, report, _candidates = search_result
        n_implanted = sum(
            len(info.vuln_function_addresses)
            for (image_id, _b), info in dataset.provenance.items()
            if not _image_unknown(dataset, image_id)
        )
        if n_implanted:
            assert report.total_confirmed() > 0

    def test_confirmed_candidates_are_truly_vulnerable(self, search_result):
        """No false confirmations: every confirmed candidate matches the
        generation-time ground truth."""
        dataset, _report, candidates = search_result
        for candidate in candidates:
            if not candidate.confirmed:
                continue
            info = dataset.provenance[
                (candidate.image.identifier, candidate.binary_name)
            ]
            assert info.vulnerable
            assert info.software == candidate.entry.software

    def test_counts_consistent(self, search_result):
        _dataset, report, candidates = search_result
        assert report.n_candidates == len(candidates)
        assert report.total_confirmed() == sum(
            1 for c in candidates if c.confirmed
        )


def _image_unknown(dataset, image_id):
    for image in dataset.images:
        if image.identifier == image_id:
            return image.unknown_format
    return True


class TestModelPersistenceEnd2End:
    def test_checkpoint_preserves_scores(self, tmp_path, trained_model,
                                         openssl_small):
        pairs = build_cross_arch_pairs(openssl_small.functions, 3, seed=13)
        before = [
            trained_model.compare_functions(p.first, p.second) for p in pairs
        ]
        path = tmp_path / "model.npz"
        trained_model.save(path)
        restored = Asteria.load(path)
        after = [restored.compare_functions(p.first, p.second) for p in pairs]
        np.testing.assert_allclose(after, before)
