"""CLI error handling: one-line messages with distinct exit codes.

Missing model / input / index paths used to surface as raw tracebacks;
they now map onto the `repro.api.errors` hierarchy:

* 3 = model checkpoint missing,
* 4 = input binary/firmware missing,
* 5 = index store missing/corrupt/conflicting,
* 6 = bad request (unknown function, unknown CVE, bad config).
"""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, trained_model):
    path = tmp_path_factory.mktemp("model") / "asteria.npz"
    trained_model.save(path)
    return str(path)


@pytest.fixture(scope="module")
def binary_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("bins")
    assert main(["compile", "--name", "p", "--seed", "3",
                 "--arch", "x86", "--output", str(root)]) == 0
    return str(root / "p.x86.rbin")


class TestMissingModel:
    def test_compare(self, binary_path, capsys):
        code = main(["compare", "--model", "missing.npz",
                     binary_path, "p_fn0", binary_path, "p_fn0"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "model checkpoint not found" in err
        assert "Traceback" not in err

    def test_search(self, capsys):
        assert main(["search", "--model", "missing.npz"]) == 3
        assert "missing.npz" in capsys.readouterr().err

    def test_serve_fails_fast(self, capsys):
        # the server must refuse to start, not 503 per request
        assert main(["serve", "--model", "missing.npz",
                     "--port", "0"]) == 3
        assert "model checkpoint not found" in capsys.readouterr().err

    def test_index_build(self, tmp_path, capsys):
        assert main(["index", "build", "--model", "missing.npz",
                     "--output", str(tmp_path / "idx")]) == 3
        assert "missing.npz" in capsys.readouterr().err


class TestMissingInput:
    def test_compare_missing_binary(self, model_path, capsys):
        code = main(["compare", "--model", model_path,
                     "nope.rbin", "f1", "nope2.rbin", "f2"])
        assert code == 4
        err = capsys.readouterr().err
        assert "no such binary: nope.rbin" in err

    def test_disasm_missing_binary(self, capsys):
        assert main(["disasm", "nope.rbin"]) == 4
        assert "no such binary" in capsys.readouterr().err

    def test_decompile_missing_binary(self, capsys):
        assert main(["decompile", "nope.rbin"]) == 4
        assert "no such binary" in capsys.readouterr().err


class TestMissingIndex:
    def test_index_search(self, model_path, tmp_path, capsys):
        assert main(["index", "search", "--model", model_path,
                     "--index", str(tmp_path / "nope")]) == 5
        assert "no manifest" in capsys.readouterr().err

    def test_pipeline_run_existing_output(self, model_path, tmp_path,
                                          capsys):
        root = str(tmp_path / "store")
        assert main(["pipeline", "run", "--model", model_path,
                     "--images", "2", "--output", root]) == 0
        capsys.readouterr()
        assert main(["pipeline", "run", "--model", model_path,
                     "--images", "2", "--output", root]) == 5
        assert "already exists" in capsys.readouterr().err


class TestBadRequest:
    def test_compare_unknown_function(self, model_path, binary_path,
                                      capsys):
        code = main(["compare", "--model", model_path,
                     binary_path, "not_a_fn", binary_path, "p_fn0"])
        assert code == 6
        err = capsys.readouterr().err
        assert "not_a_fn" in err
        assert "Traceback" not in err

    def test_search_non_finite_threshold(self, model_path, capsys):
        code = main(["search", "--model", model_path, "--images", "2",
                     "--threshold", "nan"])
        assert code == 6
        err = capsys.readouterr().err
        assert "threshold must be a finite number, got nan" in err
        assert "Traceback" not in err

    def test_exit_codes_are_distinct(self):
        from repro.api.errors import (
            BadRequestError,
            EngineError,
            IndexStoreError,
            InputNotFoundError,
            ModelNotFoundError,
        )

        codes = [cls.exit_code for cls in (
            EngineError, ModelNotFoundError, InputNotFoundError,
            IndexStoreError, BadRequestError,
        )]
        assert len(set(codes)) == len(codes)
        assert 2 not in codes  # argparse owns exit code 2
        assert all(code != 0 for code in codes)
