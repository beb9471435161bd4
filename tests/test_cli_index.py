"""CLI coverage for ``index build`` / ``index search`` and ``search --top-k``."""

import json

import pytest

from repro.api import AsteriaEngine, EngineConfig, IngestRequest
from repro.cli import main
from repro.index.store import MANIFEST_NAME


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, trained_model):
    path = tmp_path_factory.mktemp("model") / "asteria.npz"
    trained_model.save(path)
    return str(path)


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory, model_path):
    root = tmp_path_factory.mktemp("index") / "fw"
    assert main([
        "index", "build", "--model", model_path, "--output", str(root),
        "--images", "3", "--seed", "4", "--shard-size", "16",
    ]) == 0
    return str(root)


class TestIndexBuild:
    def test_writes_manifest_and_shards(self, index_dir, capsys):
        manifest = json.loads(
            (__import__("pathlib").Path(index_dir) / MANIFEST_NAME).read_text()
        )
        assert manifest["n_rows"] > 0
        assert manifest["shards"]

    def test_existing_dir_is_clean_error(self, model_path, index_dir,
                                         capsys):
        # 5 = the CLI's distinct "index store problem" exit code
        assert main([
            "index", "build", "--model", model_path, "--output", index_dir,
            "--images", "2",
        ]) == 5
        assert "already exists" in capsys.readouterr().err

    def test_reports_counts(self, model_path, tmp_path, capsys):
        assert main([
            "index", "build", "--model", model_path,
            "--output", str(tmp_path / "idx"),
            "--images", "2", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "ingested" in out
        assert "shard(s)" in out

    def test_batch_size_does_not_change_index(self, model_path, tmp_path,
                                              capsys):
        """The level-batched encoder is bit-for-bit identical across batch
        sizes, so any --batch-size builds byte-identical vectors."""
        import numpy as np

        from repro.index.store import EmbeddingStore

        for batch_size in ("1", "32"):
            assert main([
                "index", "build", "--model", model_path,
                "--output", str(tmp_path / f"idx{batch_size}"),
                "--images", "2", "--seed", "1", "--batch-size", batch_size,
            ]) == 0
        capsys.readouterr()
        single = EmbeddingStore.open(str(tmp_path / "idx1")).vectors()
        batched = EmbeddingStore.open(str(tmp_path / "idx32")).vectors()
        assert np.array_equal(single, batched)


class TestIndexSearch:
    def test_top_k_limits_results(self, model_path, index_dir, capsys):
        assert main([
            "index", "search", "--model", model_path, "--index", index_dir,
            "--top-k", "3", "--seed", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "CVE-2016-2105" in out
        # ranks never exceed top-k
        assert "  3. score=" in out
        assert "  4. score=" not in out

    def test_deterministic_for_fixed_seed(self, model_path, index_dir,
                                          capsys):
        argv = [
            "index", "search", "--model", model_path, "--index", index_dir,
            "--top-k", "5", "--seed", "4",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.count("score=") > 0

    def test_ivf_pq_backend_persists_and_reopens(self, model_path,
                                                 index_dir, capsys):
        from pathlib import Path

        argv = [
            "index", "search", "--model", model_path, "--index", index_dir,
            "--top-k", "2", "--backend", "ivf-pq", "--seed", "4",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "score=" in first
        # the stateful backend left its artifact beside the shards, and
        # the reopen (no re-quantization) answers identically
        assert (Path(index_dir) / "ann-ivf-pq.npz").exists()
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_removed_lsh_backend_is_a_bad_request(self, model_path,
                                                  index_dir, capsys):
        # 6 = the CLI's distinct "bad request" exit code
        assert main([
            "index", "search", "--model", model_path, "--index", index_dir,
            "--backend", "lsh",
        ]) == 6
        assert "choose from exact, ivf-pq" in capsys.readouterr().err

    def test_missing_index_is_clean_error(self, model_path, tmp_path,
                                          capsys):
        # 5 = the CLI's distinct "index store problem" exit code
        assert main([
            "index", "search", "--model", model_path,
            "--index", str(tmp_path / "nope"),
        ]) == 5
        assert "no manifest" in capsys.readouterr().err

    def test_generations_layout_is_exit_5_naming_the_active_one(
        self, model_path, index_dir, tmp_path, capsys
    ):
        import shutil

        root = tmp_path / "swapped"
        shutil.copytree(index_dir, root)
        active = root / "generations" / "gen-00001"
        shutil.copytree(index_dir, active)
        (root / "CURRENT").write_text("generations/gen-00001\n")
        assert main([
            "index", "search", "--model", model_path, "--index", str(root),
        ]) == 5
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert str(active) in err
        assert main([
            "index", "search", "--model", model_path, "--index", str(active),
            "--top-k", "2",
        ]) == 0
        assert "score=" in capsys.readouterr().out

    def test_cve_filter(self, model_path, index_dir, capsys):
        assert main([
            "index", "search", "--model", model_path, "--index", index_dir,
            "--top-k", "2", "--cve", "CVE-2011-0762",
        ]) == 0
        out = capsys.readouterr().out
        assert "CVE-2011-0762" in out
        assert "CVE-2016-2105" not in out

    def test_unknown_cve_is_clean_error(self, model_path, index_dir,
                                        capsys):
        # 6 = the CLI's distinct "bad request" exit code
        assert main([
            "index", "search", "--model", model_path, "--index", index_dir,
            "--cve", "CVE-1999-0000",
        ]) == 6
        assert "CVE-1999-0000" in capsys.readouterr().err

    def test_threshold_filters_hits(self, model_path, index_dir, capsys):
        argv = ["index", "search", "--model", model_path,
                "--index", index_dir, "--top-k", "5"]
        assert main(argv) == 0
        unfiltered = capsys.readouterr().out.count("score=")
        assert main(argv + ["--threshold", "1.1"]) == 0
        assert capsys.readouterr().out.count("score=") == 0
        assert unfiltered > 0


class TestPipelineRunEdge:
    def test_zero_images_is_clean(self, model_path, capsys):
        # the flag takes a count (argparse's exit 2, one error line) ...
        with pytest.raises(SystemExit) as exit_info:
            main(["pipeline", "run", "--model", model_path, "--images", "0"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --images: must be >= 1" in err
        assert "Traceback" not in err
        # ... while the engine's empty corpus reports empty stats
        engine = AsteriaEngine(EngineConfig(model_path=model_path))
        result = engine.ingest(IngestRequest(corpus_images=0))
        assert result.n_rows_total == 0
        assert "stage  decompile" in result.summary()


class TestSearchTopK:
    def test_search_accepts_top_k(self, model_path, capsys):
        assert main([
            "search", "--model", model_path, "--images", "3",
            "--seed", "4", "--top-k", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "total confirmed" in out


class TestStats:
    def test_local_stats_table(self, model_path, index_dir, capsys):
        assert main([
            "stats", "--model", model_path, "--index", index_dir,
        ]) == 0
        out = capsys.readouterr().out
        assert "model_loaded" in out
        assert "index_rows" in out
        assert "config:" in out

    def test_local_stats_json(self, model_path, index_dir, capsys):
        assert main([
            "stats", "--model", model_path, "--index", index_dir, "--json",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["model_loaded"] is True
        assert data["index_rows"] > 0
        assert data["config"]["backend"]

    def test_dead_url_is_input_error(self, capsys):
        # exit 4 = the CLI's "input not found" code
        assert main([
            "stats", "--url", "http://127.0.0.1:1",
        ]) == 4
        assert "could not fetch" in capsys.readouterr().err

    def test_live_url_round_trip(self, trained_model, capsys):
        import threading

        from repro.api import AsteriaEngine, EngineConfig, EngineServer

        engine = AsteriaEngine(EngineConfig(), model=trained_model)
        server = EngineServer(("127.0.0.1", 0), engine)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            assert main(["stats", "--url", server.url, "--json"]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["model_loaded"] is True
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
