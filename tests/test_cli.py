import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import arctext
from arctext import ArcTextError, Vocabulary, cli, codec, parse_description, tokenize
from arctext.cli import main

from conftest import FIXTURES
from test_graphio import deep_in_size_file

RESNET_JSON = str(FIXTURES / "resnet4.json")
BRANCH_JSON = str(FIXTURES / "branching25.json")


@pytest.fixture
def resnet_text_file(tmp_path, resnet4_text):
    path = tmp_path / "resnet4.txt"
    path.write_text(resnet4_text, encoding="utf-8")
    return str(path)


class TestCanonicalize:
    def test_stdout_is_byte_exact(self, capsys, resnet4_text):
        assert main(["canonicalize", "-i", RESNET_JSON]) == 0
        assert capsys.readouterr().out == resnet4_text

    def test_output_file_is_byte_exact(self, tmp_path, resnet4_text):
        out = tmp_path / "desc.txt"
        assert main(["canonicalize", "-i", RESNET_JSON, "-o", str(out)]) == 0
        assert out.read_bytes() == resnet4_text.encode("utf-8")

    def test_missing_input(self, capsys, tmp_path):
        assert main(["canonicalize", "-i", str(tmp_path / "nope.json")]) == 1
        assert capsys.readouterr().err.startswith("error[IoError]: cannot read ")

    def test_output_to_a_directory_is_an_io_error(self, capsys, tmp_path):
        assert main(["canonicalize", "-i", RESNET_JSON, "-o", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[IoError]: ") and str(tmp_path) in err

    def test_failed_stdout_write_is_an_io_error(self, capsys, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["canonicalize", "-i", RESNET_JSON]) == 1
        assert capsys.readouterr().err == "error[IoError]: [Errno 32] Broken pipe\n"

    def test_a_refused_value_is_echoed_in_bounded_length(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(deep_in_size_file(), encoding="utf-8")
        assert main(["canonicalize", "-i", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[SchemaError]: node 'a': in_size element must be an integer")
        assert err.endswith("[" * 200 + "... (1801 characters)\n") and len(err) < 300

    def test_console_script(self, resnet4_text):
        exe = shutil.which("arctext")
        assert exe, "console script not installed"
        proc = subprocess.run(
            [exe, "canonicalize", "-i", RESNET_JSON],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == resnet4_text

    def test_python_dash_m(self, resnet4_text):
        # the child imports the same arctext as this test run
        src = str(Path(arctext.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "arctext", "canonicalize", "-i", RESNET_JSON],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == resnet4_text


class TestParse:
    def test_round_trips_through_graph_json(self, capsys, resnet_text_file, resnet4_text):
        assert main(["parse", "-i", resnet_text_file]) == 0
        out = capsys.readouterr().out
        from arctext import parse_graph_json, render_description
        assert render_description(parse_graph_json(out)).text == resnet4_text

    def test_bad_text_reports_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("id:1;name:A;in_size:4;out_size:4;value:Null;connect_to:Null\n"
                       "id:3;name:B;in_size:4;out_size:4;value:Null;connect_to:Null",
                       encoding="utf-8")
        assert main(["parse", "-i", str(bad)]) == 1
        assert "error[" in capsys.readouterr().err


class TestValidate:
    def test_graph_json_ok(self, capsys):
        assert main(["validate", "-i", RESNET_JSON]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_description_ok(self, capsys, resnet_text_file):
        assert main(["validate", "-i", resnet_text_file]) == 0
        assert "ok" in capsys.readouterr().out

    def test_quiet_suppresses_report(self, capsys, resnet_text_file):
        assert main(["--quiet", "validate", "-i", resnet_text_file]) == 0
        assert capsys.readouterr().out == ""

    def test_two_sinks_fail(self, capsys, tmp_path):
        doc = {
            "nodes": [
                {"name": "a", "kind": "mf", "op_name": "X",
                 "in_size": [4], "out_size": [4], "values": []},
                {"name": "b", "kind": "mf", "op_name": "X",
                 "in_size": [4], "out_size": [4], "values": []},
                {"name": "c", "kind": "mf", "op_name": "X",
                 "in_size": [4], "out_size": [4], "values": []},
            ],
            "edges": [["a", "b"], ["a", "c"]],
        }
        path = tmp_path / "two_sinks.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", "-i", str(path)]) == 1
        assert "error[AmbiguousSink]" in capsys.readouterr().out


class TestLint:
    def test_clean_fixture(self, capsys):
        assert main(["lint", "-i", RESNET_JSON]) == 0
        out = capsys.readouterr().out
        assert "S: ok" in out and "E: unchecked" in out

    def test_mismatch_exits_one(self, capsys, tmp_path):
        doc = json.loads((FIXTURES / "resnet4.json").read_text(encoding="utf-8"))
        for record in doc["nodes"]:
            if record["name"] == "S":
                record["out_size"][0] += 1
        path = tmp_path / "off_by_one.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["lint", "-i", str(path)]) == 1
        out = capsys.readouterr().out
        assert "S: mismatch expected 112-112-64, declared 113-112-64" in out

    def test_quiet_keeps_exit_code(self, capsys, tmp_path):
        doc = json.loads((FIXTURES / "resnet4.json").read_text(encoding="utf-8"))
        doc["nodes"][0]["out_size"][0] += 1
        path = tmp_path / "off.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["--quiet", "lint", "-i", str(path)]) == 1
        assert capsys.readouterr().out == ""


class TestDigest:
    def test_stable_hex(self, capsys, resnet_text_file, resnet4_text):
        assert main(["digest", "-i", resnet_text_file]) == 0
        out = capsys.readouterr().out.strip()
        assert out == hashlib.sha224(resnet4_text.encode("utf-8")).hexdigest()
        assert len(out) == 56

    def test_trailing_newline_does_not_change_digest(self, capsys, tmp_path, resnet4_text):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text(resnet4_text, encoding="utf-8")
        b.write_text(resnet4_text + "\n", encoding="utf-8")
        main(["digest", "-i", str(a)])
        first = capsys.readouterr().out
        main(["digest", "-i", str(b)])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "command", ["canonicalize", "parse", "validate", "lint", "digest", "dot", "vectorize"]
    )
    def test_invalid_utf8_is_an_encoding_error(self, capsys, tmp_path, command):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert main([command, "-i", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"error[Encoding]: cannot read {bad}: ")


class TestTextIsReadByteForByte:
    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    @pytest.mark.parametrize("command", ["validate", "digest", "parse", "vectorize"])
    def test_cr_line_ends_are_refused_as_the_library_refuses_them(self, capsys, tmp_path,
                                                                  command, newline):
        data = (FIXTURES / "resnet4.arctext").read_bytes().replace(b"\n", newline)
        path = tmp_path / "resnet4.txt"
        path.write_bytes(data)
        with pytest.raises(ArcTextError) as err:
            parse_description(data.decode("utf-8"))
        assert main([command, "-i", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error[{err.value.code}]: {err.value}\n"

    def test_digest_is_the_sha224_of_the_file_bytes(self, capsys):
        path = FIXTURES / "resnet4.arctext"
        assert main(["digest", "-i", str(path)]) == 0
        assert capsys.readouterr().out == hashlib.sha224(path.read_bytes()).hexdigest() + "\n"

    def test_json_inputs_with_crlf_line_ends_still_load(self, capsys, tmp_path, resnet4_text):
        graph_file = tmp_path / "resnet4.json"
        graph_file.write_bytes(Path(RESNET_JSON).read_bytes().replace(b"\n", b"\r\n"))
        assert main(["canonicalize", "-i", str(graph_file)]) == 0
        assert capsys.readouterr().out == resnet4_text
        vocab = Vocabulary.default()
        tokenize(codec.description_from_text(resnet4_text), vocab)
        vocab_file = tmp_path / "vocab.json"
        vocab_file.write_bytes(vocab.to_json().encode("utf-8").replace(b"\n", b"\r\n"))
        assert b"\r\n" in vocab_file.read_bytes()
        assert Vocabulary.load(vocab_file).to_json() == vocab.to_json()


class TestDiff:
    def test_equal(self, capsys, resnet_text_file):
        assert main(["diff", resnet_text_file, resnet_text_file]) == 0
        assert capsys.readouterr().out == ""

    def test_field_change(self, capsys, tmp_path, resnet_text_file, resnet4_text):
        other = tmp_path / "other.txt"
        other.write_text(
            resnet4_text.replace("out_size:1000", "out_size:1001"),
            encoding="utf-8",
        )
        assert main(["diff", resnet_text_file, str(other)]) == 1
        assert "~ id 13 out_size: 1000 -> 1001" in capsys.readouterr().out

    def test_ids_on_one_side_and_a_kind_change(self, capsys, tmp_path):
        mf = "name:A;in_size:4;out_size:4;value:Null"
        short = tmp_path / "short.txt"
        short.write_text(f"id:1;{mf};connect_to:2\nid:2;{mf};connect_to:Null", encoding="utf-8")
        long = tmp_path / "long.txt"
        long.write_text(f"id:1;{mf};connect_to:2\nid:2;in_size:4;out_size:4;connect_to:3\n"
                        f"id:3;{mf};connect_to:Null", encoding="utf-8")
        assert main(["diff", str(short), str(long)]) == 1
        assert capsys.readouterr().out == (
            f"+ id 3 only in {long}\n~ id 2 kind: mf -> full\n"
        )
        assert main(["diff", str(long), str(short)]) == 1
        assert capsys.readouterr().out == (
            f"- id 3 only in {long}\n~ id 2 kind: full -> mf\n"
        )


class TestSingleParse:
    @pytest.mark.parametrize("command, inputs", [
        (["digest", "-i"], 1),
        (["diff"], 2),
        (["vectorize", "-i"], 1),
    ])
    def test_each_line_is_parsed_once(self, monkeypatch, capsys, resnet_text_file,
                                      resnet4_text, command, inputs):
        # one match of the whole text parses each line, and no line is read again
        proved, parsed = [], []
        proved_body, parse_line = codec._proved_body, codec.parse_line

        def proving(text):
            proved.append(proved_body(text))
            return proved[-1]

        def counting(line, *args, **kwargs):
            parsed.append(line)
            return parse_line(line, *args, **kwargs)

        monkeypatch.setattr(codec, "_proved_body", proving)
        monkeypatch.setattr(codec, "parse_line", counting)
        assert main(command + [resnet_text_file] * inputs) == 0
        assert proved == [resnet4_text] * inputs
        assert parsed == []


class TestDot:
    def test_writes_digraph(self, tmp_path):
        out = tmp_path / "g.dot"
        assert main(["dot", "-i", BRANCH_JSON, "-o", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("digraph arctext {")
        assert text.endswith("}\n")


class TestVectorize:
    def test_creates_and_reuses_vocab(self, capsys, tmp_path, resnet_text_file):
        vocab_path = tmp_path / "vocab.json"
        assert main(["vectorize", "-i", resnet_text_file,
                     "--vocab", str(vocab_path)]) == 0
        first_csv = capsys.readouterr().out
        assert first_csv.splitlines()[0].startswith("kind_conv,")
        saved = vocab_path.read_text(encoding="utf-8")
        assert '"BN"' in saved

        assert main(["vectorize", "-i", resnet_text_file,
                     "--vocab", str(vocab_path)]) == 0
        assert capsys.readouterr().out == first_csv
        assert vocab_path.read_text(encoding="utf-8") == saved

    def test_closed_vocab_rejects_new_words(self, capsys, tmp_path, resnet_text_file):
        vocab_path = tmp_path / "closed.json"
        Vocabulary.default(closed=True).save(vocab_path)
        assert main(["vectorize", "-i", resnet_text_file,
                     "--vocab", str(vocab_path)]) == 1
        assert "error[UnknownToken]" in capsys.readouterr().err

    def test_vocab_directory_is_an_io_error(self, capsys, tmp_path, resnet_text_file):
        assert main(["vectorize", "-i", resnet_text_file, "--vocab", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error[IoError]: cannot read ")

    def test_vocab_flag_is_optional(self, capsys, monkeypatch, tmp_path, resnet_text_file):
        calls = []
        monkeypatch.setattr(cli, "tokenize", lambda desc, vocab: calls.append(desc) or [])
        assert main(["vectorize", "-i", resnet_text_file]) == 0
        csv = capsys.readouterr().out
        assert len(csv.splitlines()) == 14
        assert calls == []  # nothing to tokenize against
        vocab_path = tmp_path / "vocab.json"
        assert main(["vectorize", "-i", resnet_text_file, "--vocab", str(vocab_path)]) == 0
        assert capsys.readouterr().out == csv
        assert len(calls) == 1


class TestUsageAndLimits:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["canonicalize", "-i", RESNET_JSON, "--nope"])
        assert err.value.code == 2

    def test_max_paths_must_be_positive(self, capsys):
        assert main(["--max-paths", "0", "canonicalize", "-i", RESNET_JSON]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_bad_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("ARCTEXT_MAX_PATHS", "many")
        assert main(["canonicalize", "-i", RESNET_JSON]) == 2
        assert "ARCTEXT_MAX_PATHS" in capsys.readouterr().err

    def test_env_cap_must_be_positive(self, capsys, monkeypatch):
        monkeypatch.setenv("ARCTEXT_MAX_PATHS", "0")
        assert main(["canonicalize", "-i", RESNET_JSON]) == 2
        err = capsys.readouterr().err
        assert "usage error: ARCTEXT_MAX_PATHS must be >= 1" in err
        assert "--max-paths" not in err

    def test_tiny_cap_fails_fast(self, capsys):
        assert main(["--max-paths", "1", "canonicalize", "-i", BRANCH_JSON]) == 1
        assert "error[PathExplosion]" in capsys.readouterr().err

    def test_flag_overrides_env(self, capsys, monkeypatch, branching25_text):
        monkeypatch.setenv("ARCTEXT_MAX_PATHS", "1")
        assert main(["canonicalize", "-i", BRANCH_JSON]) == 1
        capsys.readouterr()
        assert main(["--max-paths", "100000", "canonicalize", "-i", BRANCH_JSON]) == 0
        assert capsys.readouterr().out in (
            branching25_text,
            (FIXTURES / "branching25_tieswap.arctext").read_text(encoding="utf-8"),
        )
