"""CLI error handling: one-line messages with distinct exit codes.

Missing model / input / index paths used to surface as raw tracebacks;
they now map onto the `repro.api.errors` hierarchy:

* 3 = model checkpoint missing,
* 4 = input binary/firmware missing,
* 5 = index store missing/corrupt/conflicting,
* 6 = bad request (unknown function, unknown CVE, bad config).
"""

import argparse
import dataclasses
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.config import EngineConfig
from repro.api.server import BODIES
from repro.cli import build_parser, main
from repro.obs.metrics import METRICS

SRC = str(Path(__file__).resolve().parents[1] / "src")


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


    @pytest.mark.parametrize("damage", ["truncated", "shape-digit"])
    def test_a_damaged_checkpoint_is_one_error_line(
        self, model_path, damage, tmp_path, capsys
    ):
        data = Path(model_path).read_bytes()
        if damage == "truncated":
            data = data[:3000]
        else:
            at = data.index(b"'shape': (") + len(b"'shape': (")
            data = data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]
        bad = tmp_path / "bad.npz"
        bad.write_bytes(data)
        assert main(["serve", "--model", str(bad), "--port", "0"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: unreadable model checkpoint ")
        assert err.count("\n") == 1 and str(bad) in err


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


class TestBadRequest:
    def test_compare_unknown_function(self, model_path, binary_path,
                                      capsys):
        code = main(["compare", "--model", model_path,
                     binary_path, "not_a_fn", binary_path, "p_fn0"])
        assert code == 6
        err = capsys.readouterr().err
        assert "not_a_fn" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["disasm", "decompile"])
    def test_non_rbin_binary(self, command, tmp_path, capsys):
        junk = tmp_path / "junk.rbin"
        junk.write_bytes(b"not a binary at all")
        assert main([command, str(junk)]) == 6
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert f"error: {junk} is not a valid RBIN binary" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["disasm", "decompile"])
    def test_a_directory_is_not_a_binary(self, command, tmp_path, capsys):
        """``compile --output q.rbin`` writes a directory of that name;
        handed back as a binary it is one error line, not a traceback."""
        out = tmp_path / "q.rbin"
        assert main(["compile", "--arch", "arm", "--output", str(out)]) == 0
        capsys.readouterr()
        assert out.is_dir()
        assert main([command, str(out)]) == 6
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert f"error: {out} is not a valid RBIN binary: a directory" in err
        assert "Traceback" not in err

    def test_search_non_finite_threshold(self, model_path, capsys):
        code = main(["search", "--model", model_path, "--images", "2",
                     "--threshold", "nan"])
        assert code == 6
        err = capsys.readouterr().err
        assert "threshold must be a finite number, got nan" in err
        assert "Traceback" not in err

    def test_negative_threshold_is_a_bad_request(self, model_path,
                                                 tmp_path, capsys):
        """-1 is refused (HTTP answers the same input 400); it used to be
        the engine's "configured default" sentinel, a silent 0.84."""
        index = str(tmp_path / "fw-index")
        assert main(["index", "build", "--model", model_path, "--output",
                     index, "--images", "1"]) == 0
        for argv in (["search", "--images", "1"],
                     ["index", "search", "--index", index]):
            capsys.readouterr()
            code = main(argv + ["--model", model_path, "--threshold", "-1"])
            assert code == 6, argv
            err = capsys.readouterr().err
            assert "error: threshold must be >= 0, got -1.0" in err
            assert "Traceback" not in err

    def test_serve_on_a_held_port_is_one_error_line(self, model_path,
                                                      capsys):
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            port = holder.getsockname()[1]
            assert main(["serve", "--model", model_path,
                         "--port", str(port)]) == 6
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert errors[0].startswith(f"error: cannot listen on 127.0.0.1:{port}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_serve_port_out_of_range_is_a_parse_error(self, port, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--model", "m", "--port", port])
        assert exit_info.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1
        assert "argument --port: must be 0-65535" in errors[0]

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


# -- the flag surface is an external interface -------------------------------

_DTYPES = ["float32", "float64"]
_PIPELINE = ["--cache-dir", "--encode-block", "--encode-dtype", "--jobs"]
_ANN = ["--ann-lists", "--ann-nprobe", "--ann-rerank", "--backend"]

#: subcommand -> (flags and positionals, required flags, choices), written
#: out from the parser as it stood before flags were generated from
#: ``EngineConfig`` fields: benchmarks, CI and users spell these.
CLI_SURFACE = {
    "generate": (["--name", "--seed"], [], {}),
    "compile": (["--arch", "--name", "--output", "--seed", "--strip"], [],
                {"--arch": ["arm", "ppc", "x64", "x86"]}),
    "disasm": (["--function", "binary"], [], {}),
    "decompile": (["--function", "binary"], [], {}),
    "train": (["--batch-size", "--dim", "--epochs", "--output", "--packages",
               "--pairs", "--seed"], [], {}),
    "compare": (["--model", "binary1", "binary2", "function1", "function2"],
                ["--model"], {}),
    "search": (["--images", "--model", "--seed", "--threshold", "--top-k",
                *_PIPELINE], ["--model"], {"--encode-dtype": _DTYPES}),
    "pipeline run": (
        ["--batch-size", "--images", "--model", "--seed", *_PIPELINE],
        ["--model"], {"--encode-dtype": _DTYPES}),
    "index build": (
        ["--batch-size", "--dtype", "--images", "--model", "--output",
         "--seed", "--shard-size", *_PIPELINE], ["--model", "--output"],
        {"--dtype": _DTYPES, "--encode-dtype": _DTYPES}),
    "index search": (
        ["--cve", "--index", "--model", "--seed", "--threshold", "--top-k",
         *_ANN], ["--index", "--model"], {}),
    "corpus synth": (
        ["--cluster-size", "--dim", "--dtype", "--functions", "--model",
         "--noise", "--output", "--seed", "--seed-packages", "--shard-size",
         *_PIPELINE], ["--output"],
        {"--dtype": _DTYPES, "--encode-dtype": _DTYPES}),
    "serve": (
        ["--batch-size", "--drain-timeout-ms", "--faults", "--host",
         "--index", "--max-inflight", "--micro-batch",
         "--micro-batch-wait-ms", "--model", "--port",
         "--request-timeout-ms", "--seed", "--slow-query-ms", *_ANN,
         *_PIPELINE], ["--model"],
        {"--encode-dtype": _DTYPES}),
    "stats": (["--index", "--json", "--model", "--url"], [], {}),
}

#: subcommand -> (minimal argv, the config fields that argv names)
MINIMAL_ARGV = {
    "generate": ([], {}),
    "compile": ([], {}),
    "disasm": (["b.rbin"], {}),
    "decompile": (["b.rbin"], {}),
    "train": ([], {}),
    "compare": (["--model", "m.npz", "b1", "f1", "b2", "f2"],
                {"model_path": "m.npz"}),
    "search": (["--model", "m.npz"], {"model_path": "m.npz"}),
    "pipeline run": (["--model", "m.npz"], {"model_path": "m.npz"}),
    "index build": (["--model", "m.npz", "--output", "o"],
                    {"model_path": "m.npz"}),
    "index search": (["--model", "m.npz", "--index", "i"],
                     {"model_path": "m.npz", "index_root": "i"}),
    "corpus synth": (["--output", "o"], {}),
    "serve": (["--model", "m.npz"], {"model_path": "m.npz"}),
    "stats": ([], {}),
}


def _leaf_parsers(parser, prefix=()):
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(prefix), parser
        return
    for name, sub in subs[0].choices.items():
        yield from _leaf_parsers(sub, prefix + (name,))


def _name(action) -> str:
    return action.option_strings[0] if action.option_strings else action.dest


class TestFlagSurface:
    def test_flags_required_and_choices_are_unchanged(self):
        surface = {}
        for command, parser in _leaf_parsers(build_parser()):
            actions = [a for a in parser._actions
                       if not isinstance(a, argparse._HelpAction)]
            surface[command] = (
                sorted(_name(a) for a in actions),
                sorted(_name(a) for a in actions
                       if a.option_strings and a.required),
                {_name(a): sorted(a.choices) for a in actions
                 if a.choices is not None},
            )
        assert surface == {
            command: (sorted(flags), required, choices)
            for command, (flags, required, choices) in CLI_SURFACE.items()
        }

    @pytest.mark.parametrize("command", sorted(MINIMAL_ARGV))
    def test_unnamed_fields_keep_the_dataclass_default(self, command):
        argv, named = MINIMAL_ARGV[command]
        args = build_parser().parse_args(command.split() + argv)
        assert EngineConfig.from_args(args) == EngineConfig(**named)

    def test_parse_time_and_config_time_rejections(self, capsys):
        for argv in (["search", "--model", "m", "--jobs", "0"],
                     ["search", "--model", "m", "--encode-dtype", "float16"],
                     ["serve", "--model", "m", "--max-inflight", "0"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2  # argparse's own
        capsys.readouterr()
        assert main(["index", "search", "--model", "m", "--index", "i",
                     "--ann-lists", "-1"]) == 6
        assert capsys.readouterr().err == (
            "error: ann_lists must be >= 0 (0 = auto), got -1\n"
        )

    @pytest.mark.parametrize("argv", [
        ["index", "search", "--model", "m", "--index", "i", "--top-k", "-1"],
        ["search", "--model", "m", "--top-k", "0"],
    ])
    def test_top_k_below_one_is_a_parse_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1
        assert "argument --top-k: must be >= 1" in errors[0]

    @pytest.mark.parametrize("argv", [
        ["search", "--images", "-2"],
        ["search", "--images", "0"],
        ["pipeline", "run", "--images", "-1"],
        ["index", "build", "--output", "o", "--images", "-2"],
    ])
    def test_images_below_one_is_a_parse_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--model", "m"])
        assert exit_info.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1
        assert "argument --images: must be >= 1" in errors[0]

    @pytest.mark.parametrize("command", [
        ["generate"], ["compile"], ["train"], ["search", "--model", "m"],
        ["pipeline", "run", "--model", "m"],
        ["index", "build", "--model", "m", "--output", "o"],
        ["index", "search", "--model", "m", "--index", "i"],
        ["corpus", "synth", "--output", "o"], ["serve", "--model", "m"],
    ])
    def test_a_negative_seed_is_a_parse_error(self, command, capsys):
        """numpy takes no negative seed: argparse refuses it up front."""
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--seed", "-1"])
        assert exit_info.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1
        assert "argument --seed: must be >= 0, got -1" in errors[0]

    def test_no_help_string_restates_a_default(self):
        """A generated flag shows its one default, taken from the field."""
        for command, parser in _leaf_parsers(build_parser()):
            for action in parser._actions:
                found = re.findall(r"\(default: ([^)]*)\)", action.help or "")
                assert len(found) <= 1, (command, action.option_strings)
                assert action.default in (None, False) or not found


class TestClosedStdout:
    def test_a_reader_that_leaves_ends_the_command_quietly(self):
        """``repro-cli generate | head -3`` ended in a BrokenPipeError
        traceback: the reader closing the pipe is exit 1, stderr empty."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "generate", "--seed", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()  # before the child has written a byte
        _out, err = proc.communicate(timeout=120)
        assert err == b""
        assert proc.returncode == 1


class TestTrainRejectsUnusableCorpora:
    def test_single_class_dev_split_is_a_bad_request(self, tmp_path):
        """One package and one pair per combination leave a dev split of
        one class: exit 6 before the first step, and no model saved."""
        output = tmp_path / "model.npz"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "train", "--packages", "1",
             "--pairs", "1", "--seed", "4", "--output", str(output)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 6, proc.stderr
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines()
                  if "error:" in line]
        assert len(errors) == 1
        assert "a positive or a negative" in errors[0]
        assert not output.exists()

    @pytest.mark.parametrize("flag", ["--packages", "--pairs", "--epochs",
                                      "--dim"])
    def test_zero_counts_are_parse_errors(self, flag, tmp_path, capsys):
        output = tmp_path / "model.npz"
        with pytest.raises(SystemExit) as exit_info:
            main(["train", flag, "0", "--output", str(output)])
        assert exit_info.value.code == 2
        assert f"argument {flag}: must be >= 1" in capsys.readouterr().err
        assert not output.exists()


class TestReadmeTables:
    """The README's two knob tables are regenerated from the fields, its
    request table from ``BODIES`` and its metric table from ``METRICS``;
    each must equal its source."""

    README = Path(__file__).resolve().parent.parent / "README.md"

    def _table(self, header: str, quote: str = "`"):
        lines = self.README.read_text().splitlines()
        start = next(i for i, line in enumerate(lines)
                     if line.startswith(header))
        rows = []
        for line in lines[start + 2:]:
            if not line.startswith("|"):
                break
            rows.append([cell.strip().strip(quote)
                         for cell in line.strip("|").split("|")])
        return rows

    def test_field_table_matches_the_dataclass(self):
        rows = self._table("| Field | Default |")
        assert [(name, default) for name, default, _meaning in rows] == [
            (f.name, repr(f.default))
            for f in dataclasses.fields(EngineConfig)
        ]

    def test_request_table_matches_the_bodies(self):
        def rows(fields, prefix=""):
            for key, kind in fields.items():
                if isinstance(kind, dict):
                    yield from rows(kind, f"{prefix}{key}.")
                elif isinstance(kind, list):
                    yield from rows(kind[0], f"{prefix}{key}[].")
                else:
                    yield prefix + key, kind

        assert self._table("| Endpoint | Field | Type |") == [
            [endpoint, name, kind] for endpoint, fields in BODIES.items()
            for name, kind in rows(fields)
        ]

    def test_metric_table_matches_the_catalogue(self):
        def stat(metric):
            if metric.stat is None:
                return ""
            return f"`{metric.stat}`" + (" (set at scrape)"
                                         if metric.polled else "")

        rows = self._table("| Metric | Kind | Labels |", quote="")
        assert rows == [
            [f"`{m.name}`", m.kind, ", ".join(f"`{l}`" for l in m.labels),
             stat(m), m.help]
            for m in METRICS.values()
        ]

    def test_every_metric_the_readme_names_is_declared(self):
        def family(token):
            base = re.sub(r"_(bucket|sum|count)$", "", token)
            return base if base in METRICS else token

        tokens = re.findall(r"repro_[a-z0-9_]*", self.README.read_text())
        assert len(tokens) > len(METRICS)
        assert sorted({family(t) for t in tokens} - set(METRICS)) == []

    def test_ivf_pq_flag_table_matches_the_fields(self):
        rows = self._table("| knob | default |")
        assert [(flag, default) for flag, default, _meaning in rows] == [
            ("--" + f.name.replace("_", "-"), str(f.default))
            for f in dataclasses.fields(EngineConfig)
            if f.name == "backend" or f.name.startswith("ann_")
        ]
