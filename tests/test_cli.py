import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pnsoft
from pnsoft import equals, load_pns, loads_pns, make_profile, union
from pnsoft.cli import main
from pnsoft.similarity import MAX_ORDER

from conftest import fixture

CARS_A = str(fixture("cars_assessment_a.json"))
CARS_B = str(fixture("cars_assessment_b.json"))
HOUSES_A = str(fixture("houses_expert_a.json"))
HOUSES_B = str(fixture("houses_expert_b.json"))
MODEL = str(fixture("ideal_candidate.json"))
APPLICANTS = str(fixture("applicants"))

BAD_DOC = ('{"parameters": ["e1"], "universe": ["u1"],'
           ' "cells": [[{"t": 0.5, "i": 0.2, "f": 0.6, "mu": 1.3}]]}')


class TestValidate:
    def test_ok(self, capsys):
        assert main(["validate", CARS_A, CARS_B]) == 0
        out = capsys.readouterr().out
        assert out.count(": ok") == 2

    def test_invalid_file_names_the_cell(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(BAD_DOC)
        assert main(["validate", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out
        assert "cell (e1, u1)" in out and "mu" in out

    def test_json_report(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(BAD_DOC)
        assert main(["validate", CARS_A, str(bad), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [f["valid"] for f in doc["files"]] == [True, False]
        assert doc["files"][1]["violations"]

    def test_unreadable_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 1
        assert "cannot read" in capsys.readouterr().out

    @pytest.mark.parametrize("name,text,reason", [
        ("bad.json", "{", "JSON parse error at line 1, column 2: Expecting "
                          "property name enclosed in double quotes"),
        ("bad.csv", "parameter,element,t\n",
         "header must be parameter, element, t, i, f, mu; got parameter, element, t"),
        ("gone.json", None, "cannot read {path}: [Errno 2] No such file or "
                            "directory: '{path}'"),
    ], ids=["json-parse", "csv-header", "unreadable"])
    def test_a_load_failure_names_the_file_once(self, tmp_path, capsys,
                                                name, text, reason):
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        reason = reason.format(path=path)
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == f"{path}: INVALID\n  - {reason}\n"
        assert main(["validate", str(path), "--format", "json"]) == 1
        assert json.loads(capsys.readouterr().out) == {"files": [
            {"path": str(path), "valid": False, "violations": [reason]}]}

    def test_csv_runs_through_the_csv_loader(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        good.write_text("parameter,element,t,i,f,mu\ne1,u1,0.5,0.2,0.6,0.8\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("parameter,element,t,i,f,mu\n"
                       "e1,u1,1.5,0.2,0.6,0.8\ne1,u2,0.5,0.2,0.6,-1\n")
        assert main(["validate", str(good)]) == 0
        assert capsys.readouterr().out == f"{good}: ok\n"
        assert main(["validate", str(good), str(bad)]) == 1
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"{bad}: INVALID",
            "  - cell (e1, u1): t must lie in [0, 1], got 1.5",
            "  - cell (e1, u2): mu must lie in [0, 1], got -1.0",
        ]


class TestSetCommands:
    def test_union_table(self, capsys):
        assert main(["union", CARS_A, CARS_B]) == 0
        out = capsys.readouterr().out
        assert "u1" in out and "e3" in out
        assert "(0.6,0.2,0.6)|0.8" in out

    def test_union_json_round_trips(self, capsys):
        assert main(["union", CARS_A, CARS_B, "--format", "json"]) == 0
        text = capsys.readouterr().out
        expected = union(load_pns(CARS_A), load_pns(CARS_B))
        assert loads_pns(text) == expected

    def test_json_output_is_byte_stable(self, capsys):
        main(["union", CARS_A, CARS_B, "--format", "json"])
        first = capsys.readouterr().out
        main(["union", CARS_A, CARS_B, "--format", "json"])
        assert capsys.readouterr().out == first

    def test_union_with_profile_flags(self, capsys):
        assert main(["union", CARS_A, CARS_B, "--tnorm", "product",
                     "--tconorm", "probsum", "--format", "json"]) == 0
        got = loads_pns(capsys.readouterr().out)
        profile = make_profile("product", "probsum")
        assert got == union(load_pns(CARS_A), load_pns(CARS_B), profile)

    def test_intersect_and_complement(self, capsys):
        assert main(["intersect", CARS_A, CARS_B]) == 0
        assert "(0.5,0.3,0.8)|0.4" in capsys.readouterr().out
        assert main(["complement", CARS_A]) == 0
        assert "(0.6,0.8,0.5)|0.2" in capsys.readouterr().out

    def test_products(self, capsys):
        assert main(["and-product", HOUSES_A, HOUSES_B,
                     "--separator", "&"]) == 0
        out = capsys.readouterr().out
        assert "e1&e1" in out and "e3&e3" in out
        assert main(["or-product", HOUSES_A, HOUSES_B]) == 0
        assert "(0.5,0.3,0.5)|0.6" in capsys.readouterr().out


class TestDecide:
    def test_table(self, capsys):
        assert main(["decide", HOUSES_A, HOUSES_B]) == 0
        out = capsys.readouterr().out
        assert "ranking: u3 > u2 > u1" in out
        assert "winner: u3" in out
        assert "weighted truth" in out

    def test_json(self, capsys):
        assert main(["decide", HOUSES_A, HOUSES_B, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["winners"] == ["u3"]
        assert doc["ranking"] == ["u3", "u2", "u1"]
        assert doc["decision_scores"] == [-0.32, 1.19, 1.45]
        assert doc["truth_scores"] == [1.18, 2.93, 2.68]
        assert len(doc["product"]["parameters"]) == 9

    def test_separator_labels_every_matrix_in_the_table(self, capsys):
        assert main(["decide", HOUSES_A, HOUSES_B, "--separator", "/"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # the product and the three weighted matrices each have an e2/e3 row
        assert sum(line.startswith("e2/e3 ") for line in lines) == 4
        assert not any(line.startswith("e2*e3") for line in lines)

    def test_separator_labels_every_matrix_in_json(self, capsys):
        assert main(["decide", HOUSES_A, HOUSES_B, "--separator", "/",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        labels = doc["product"]["parameters"]
        assert labels[5] == "e2/e3"
        for name in ("weighted_truth", "weighted_indeterminacy", "weighted_falsity"):
            assert doc[name]["rows"] == labels

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_a_separator_that_merges_labels_prints_nothing(self, tmp_path, capsys,
                                                           fmt):
        # "x" + "yz" and "xy" + "z" both flatten to "xyz"
        cell = {"t": 0.5, "i": 0.2, "f": 0.3, "mu": 0.4}
        paths = []
        for name, labels in (("f.json", ["x", "xy"]), ("g.json", ["yz", "z"])):
            path = tmp_path / name
            path.write_text(json.dumps({"parameters": labels, "universe": ["u1"],
                                        "cells": [[cell], [cell]]}))
            paths.append(str(path))
        assert main(["decide", *paths, "--separator", "", "--format", fmt]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: separator '' does not keep pair labels distinct\n"


class TestSimilarity:
    def test_table(self, capsys):
        assert main(["similarity", CARS_A, CARS_B]) == 0
        out = capsys.readouterr().out
        assert "overall similarity:     0.6781" in out
        assert "significant (>= 0.5): yes" in out

    def test_json(self, capsys):
        assert main(["similarity", CARS_A, CARS_B, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["overall"] == pytest.approx(0.678109, abs=1e-6)
        assert doc["significant"] is True
        assert doc["p"] == 2

    def test_threshold_flag(self, capsys):
        assert main(["similarity", CARS_A, CARS_B, "--threshold", "0.7"]) == 0
        assert "significant (>= 0.7): no" in capsys.readouterr().out

    def test_p_flag(self, capsys):
        assert main(["similarity", CARS_A, CARS_B, "-p", "1",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0 <= doc["overall"] <= 1

    def test_order_up_to_the_cap(self, capsys):
        assert main(["similarity", CARS_A, CARS_B, "-p", str(MAX_ORDER)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["similarity", CARS_A, CARS_B, "-p", str(MAX_ORDER + 1)])
        assert exc.value.code == 2
        assert (f"argument -p: p must lie in [1, {MAX_ORDER}], got {MAX_ORDER + 1}"
                in capsys.readouterr().err)


class TestSelect:
    def test_directory_of_candidates(self, capsys):
        assert main(["select", MODEL, APPLICANTS]) == 0
        out = capsys.readouterr().out
        assert "selected: applicant_4" in out
        assert "applicant_5" in out

    def test_json(self, capsys):
        assert main(["select", MODEL, APPLICANTS, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["selected"] == ["applicant_4"]
        assert doc["significant"] == []
        assert [c["label"] for c in doc["candidates"]] == [
            f"applicant_{k}" for k in range(1, 6)]

    def test_nothing_comparable_exits_nonzero(self, tmp_path, capsys):
        odd = tmp_path / "odd.json"
        odd.write_text('{"parameters": ["x"], "universe": ["u1"],'
                       ' "cells": [[{"t": 0, "i": 0, "f": 0, "mu": 0}]]}')
        assert main(["select", MODEL, str(odd)]) == 1
        assert "selected: (none)" in capsys.readouterr().out

    def test_empty_directory(self, tmp_path, capsys):
        assert main(["select", MODEL, str(tmp_path)]) == 1
        assert "no candidate files" in capsys.readouterr().err

    def test_unreadable_directory(self, tmp_path, capsys, monkeypatch):
        def refuse(self):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "iterdir", refuse)
        assert main(["select", MODEL, str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read directory {tmp_path}: "
            f"[Errno 13] Permission denied: '{tmp_path}'\n")


class TestWriteFailures:
    """Output that cannot be written ends the run with status 1, no traceback."""

    def decide(self, stdout):
        src = str(Path(pnsoft.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-m", "pnsoft.cli", "decide", HOUSES_A, HOUSES_B],
            stdout=stdout, stderr=subprocess.PIPE, env=env, text=True, timeout=60)

    def test_a_closed_pipe_exits_quietly(self):
        read, write = os.pipe()
        os.close(read)  # like `| head -c 100` once head has quit
        try:
            done = self.decide(write)
        finally:
            os.close(write)
        assert done.returncode == 1
        assert done.stderr == ""  # no traceback, no "Exception ignored"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_a_full_device_ends_in_one_error_line(self):
        with open("/dev/full", "w") as full:
            done = self.decide(full)
        assert done.returncode == 1
        assert done.stderr == ("error: cannot write output: "
                               "[Errno 28] No space left on device\n")


class TestErrors:
    def test_missing_file_is_a_domain_error(self, capsys):
        assert main(["union", CARS_A, "/no/such/file.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cannot read" in err

    @pytest.mark.parametrize("name", ["binary.json", "binary.csv"])
    def test_undecodable_file_is_a_domain_error(self, tmp_path, capsys, name):
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe\x00")
        try:
            path.read_text()
        except UnicodeDecodeError as exc:
            reason = str(exc)  # "'utf-8' codec can't decode byte 0xff ..."
        else:
            pytest.skip("the locale's encoding decodes any byte")
        assert main(["complement", str(path)]) == 1
        assert capsys.readouterr().err == f"error: cannot read {path}: {reason}\n"

    def test_malformed_set_reports_coordinates(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(BAD_DOC)
        assert main(["union", CARS_A, str(bad)]) == 1
        err = capsys.readouterr().err
        assert "cell (e1, u1)" in err

    def test_incompatible_operands(self, capsys):
        assert main(["union", CARS_A, MODEL]) == 1
        assert "share parameter" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"parameters": ["e1"], "universe": ["u1"],'
        ' "cells": [[{"t": 1e400, "i": 0, "f": 0, "mu": 0}]]}',
        '{"parameters": ["e1"], "universe": ["u1"],'
        ' "cells": [[{"t": 1e5000, "i": 0, "f": 0, "mu": 0}]]}',
        "[" * 100000,
    ], ids=["1e400", "1e5000", "deep"])
    @pytest.mark.parametrize("command", ["validate", "complement"])
    def test_hostile_input_ends_in_one_short_error(self, tmp_path, capsys,
                                                    text, command):
        path = tmp_path / "hostile.json"
        path.write_text(text)
        assert main([command, str(path)]) == 1
        out, err = capsys.readouterr()
        report = out if command == "validate" else err
        assert len(report.splitlines()) <= 2 and len(report) < 200 + len(str(path))
        assert "Exceeds the limit" not in report and "Traceback" not in report

    def test_tiny_degree_completes(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text('{"parameters": ["e1"], "universe": ["u1"],'
                        ' "cells": [[{"t": 1e-100000, "i": 1e-20000, "f": 0, "mu": 0}]]}')
        assert main(["complement", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "e1  (0,1.0000,0.0000)|1"

    @pytest.mark.parametrize("argv", [
        [],
        ["no-such-command"],
        ["union", "a.json", "b.json", "--tnorm", "geometric"],
        ["similarity", "a.json", "b.json", "-p", "0"],
        ["similarity", "a.json", "b.json", "-p", "two"],
        ["similarity", "a.json", "b.json", "--threshold", "1.5"],
    ])
    def test_usage_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


class TestHelp:
    @staticmethod
    def help_text(command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        return " ".join(capsys.readouterr().out.split())  # unwrapped

    @pytest.mark.parametrize("command", ["similarity", "select"])
    def test_similarity_options_state_their_range(self, command, capsys):
        text = self.help_text(command, capsys)
        assert f"1 to {MAX_ORDER} (default: 2)" in text
        assert "significance cutoff (default: 0.5)" in text

    @pytest.mark.parametrize("command", ["and-product", "or-product", "decide"])
    def test_separator_states_its_default(self, command, capsys):
        text = self.help_text(command, capsys)
        assert "--separator SEPARATOR joins the two parameter labels (default: *)" in text


class TestExponentLimit:
    LITERAL = "1e-1000000000"

    @pytest.mark.parametrize("name,text", [
        ("huge.json", '{"parameters": ["e1"], "universe": ["u1"],'
                      ' "cells": [[{"t": %s, "i": 0, "f": 0, "mu": 0}]]}' % LITERAL),
        ("huge.csv", "parameter,element,t,i,f,mu\ne1,u1,%s,0,0,0\n" % LITERAL),
    ])
    def test_file_exits_1_fast(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text)
        start = time.perf_counter()
        assert main(["complement", str(path)]) == 1
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "exponent out of range" in err
        assert len(err.splitlines()) == 1 and len(err) < 150 + len(str(path))

    def test_argument_is_a_fast_usage_error(self, capsys):
        # a bad --threshold is a usage error, exit 2, like --threshold 1.5
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["similarity", CARS_A, CARS_B, "--threshold", self.LITERAL])
        assert exc.value.code == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert "--threshold: value: decimal exponent out of range" in err


class TestSelectWithABadCandidate:
    @pytest.fixture
    def candidates(self, tmp_path):
        for path in fixture("applicants").iterdir():
            (tmp_path / path.name).write_text(path.read_text())
        (tmp_path / "zz.json").write_text("{")
        return tmp_path

    def test_table_carries_the_error_row(self, candidates, capsys):
        assert main(["select", MODEL, str(candidates)]) == 0
        out = capsys.readouterr().out
        [row] = [line for line in out.splitlines() if line.startswith("zz ")]
        assert "JSON parse error at line 1" in row and "zz.json" in row
        assert "selected: applicant_4" in out

    def test_json_carries_the_error(self, candidates, capsys):
        assert main(["select", MODEL, str(candidates), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [c["label"] for c in doc["candidates"]] == [
            *(f"applicant_{k}" for k in range(1, 6)), "zz"]
        zz = doc["candidates"][-1]
        assert zz["overall"] is None and zz["significant"] is False
        assert "JSON parse error" in zz["error"]
        assert doc["selected"] == ["applicant_4"]

    def test_a_path_that_cannot_be_inspected_is_an_error_row(self, tmp_path, capsys):
        # a name beyond NAME_MAX makes even the is-it-a-directory check fail
        name = "a" * 300
        good = str(fixture("applicants") / "applicant_4.json")
        assert main(["select", MODEL, str(tmp_path / f"{name}.json"), good]) == 0
        out, err = capsys.readouterr()
        assert "cannot write output" not in err
        [row] = [line for line in out.splitlines() if line.startswith(name)]
        assert "cannot read" in row
        assert "selected: applicant_4" in out

    def test_only_bad_candidates_exit_1(self, tmp_path, capsys):
        (tmp_path / "zz.json").write_text("{")
        assert main(["select", MODEL, str(tmp_path)]) == 1
        assert "selected: (none)" in capsys.readouterr().out

    def test_a_bad_model_still_aborts(self, candidates, capsys):
        assert main(["select", str(candidates / "zz.json"), APPLICANTS]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "zz.json" in err


def one_cell(parameter="e1", element="u1", truth=0.5):
    return json.dumps({"parameters": [parameter], "universe": [element],
                       "cells": [[{"t": truth, "i": 0, "f": 0, "mu": 1}]]})


class TestControlCharactersStayEscaped:
    """A path or label holding control characters keeps each message,
    table row and output line on one line; printable text is unchanged."""

    @pytest.mark.parametrize("exists", [True, False], ids=["bad-cell", "missing"])
    def test_a_path_is_escaped_in_the_error_line(self, tmp_path, capsys, exists):
        path = tmp_path / "bad\nname.json"
        if exists:
            path.write_text(one_cell(truth=2))
        assert main(["complement", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        line, end, rest = err.partition("\n")
        assert line.startswith("error: ") and end and not rest, err
        assert line.isprintable() and "bad\\nname.json" in line

    def test_a_candidate_path_is_one_table_row(self, tmp_path, capsys):
        (tmp_path / "bad\nname.json").write_text(one_cell(truth=2))
        good = str(fixture("applicants") / "applicant_4.json")
        assert main(["select", MODEL, str(tmp_path), good]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(line.isprintable() for line in lines)
        [row] = [line for line in lines if "name" in line]
        assert row.startswith("bad\\nname ") and "must lie in [0, 1]" in row
        assert lines[-1] == "selected: applicant_4"

    def test_a_path_is_escaped_in_the_validate_report(self, tmp_path, capsys):
        path = tmp_path / "bad\nname.json"
        path.write_text("{")
        assert main(["validate", str(path)]) == 1
        shown = str(path).replace("\n", "\\n")
        assert capsys.readouterr().out == (
            f"{shown}: INVALID\n  - JSON parse error at line 1, column 2: "
            "Expecting property name enclosed in double quotes\n")

    def test_a_directory_is_escaped_in_the_error_line(self, tmp_path, capsys,
                                                       monkeypatch):
        empty = tmp_path / "empty\ndir"
        empty.mkdir()
        shown = str(empty).replace("\n", "\\n")
        assert main(["select", MODEL, str(empty)]) == 1
        assert capsys.readouterr().err == (
            f"error: directory {shown} holds no candidate files\n")

        def refuse(self):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "iterdir", refuse)
        assert main(["select", MODEL, str(empty)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read directory {shown}: "
            f"[Errno 13] Permission denied: {str(empty)!r}\n")

    @pytest.mark.parametrize("label,shown", [("e\n1", "e\\n1"),
                                             ("e\x1b[2J1", "e\\x1b[2J1")],
                             ids=["newline", "escape"])
    @pytest.mark.parametrize("where", ["parameter", "element"])
    @pytest.mark.parametrize("command", ["complement", "decide"])
    def test_a_label_is_escaped_in_tables(self, tmp_path, capsys,
                                          label, shown, where, command):
        def run(name, label):
            path = tmp_path / name
            path.write_text(one_cell(**{where: label}))
            argv = [command, str(path)] + ([str(path)] if command == "decide" else [])
            assert main(argv) == 0
            return capsys.readouterr().out.splitlines()

        stand_in = "Q" * len(shown)   # a printable label as wide as the escaped one
        plain = run("plain.json", stand_in)
        lines = run("hostile.json", label)
        assert all(line.isprintable() for line in lines)
        assert lines == [line.replace(stand_in, shown) for line in plain]
