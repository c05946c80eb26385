import gc
import hashlib
import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pnsoft
import pnsoft.cli
from pnsoft import PnsSet, equals, load_pns, loads_pns, make_profile, save_pns, union
from pnsoft.cli import main
from pnsoft.similarity import MAX_ORDER

from conftest import fixture, random_pair

CARS_A = str(fixture("cars_assessment_a.json"))
CARS_B = str(fixture("cars_assessment_b.json"))
HOUSES_A = str(fixture("houses_expert_a.json"))
HOUSES_B = str(fixture("houses_expert_b.json"))
MODEL = str(fixture("ideal_candidate.json"))
APPLICANTS = str(fixture("applicants"))

BAD_DOC = ('{"parameters": ["e1"], "universe": ["u1"],'
           ' "cells": [[{"t": 0.5, "i": 0.2, "f": 0.6, "mu": 1.3}]]}')

#: interpreter flags under which reading or writing in the locale's encoding fails
STRICT_ENCODING = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning")


def child(*args, stdout=subprocess.PIPE, **env):
    """A child interpreter run with `args`, the package importable, `env` added."""
    src = str(Path(pnsoft.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src, **env), text=True, timeout=60)


def save_pair(directory, n_params, n_elems, seed, last_parameter=None):
    """Paths of two seeded random sets of one shape, saved under `directory`;
    `last_parameter` relabels the first set's last parameter."""
    first, second = random_pair(random.Random(seed), n_params, n_elems)
    if last_parameter is not None:
        first = PnsSet((*first.parameters[:-1], last_parameter), first.universe, first.cells)
    paths = [str(directory / name) for name in ("a.json", "b.json")]
    save_pns(first, paths[0])
    save_pns(second, paths[1])
    return paths


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
        ("range.json", BAD_DOC, "cell (e1, u1): mu must lie in [0, 1], got 1.3"),
        ("grid.csv", "parameter,element,t,i,f,mu\n"
                     + "".join(f"e1,u{j},0.5,0,0,1\n" for j in range(1, 201))
                     + "".join(f"e{k},u1,0.5,0,0,1\n" for k in range(2, 21)),
         "incomplete grid, missing cells (e2, u2), (e2, u3), (e2, u4), (e2, u5), "
         "(e2, u6), and 3776 more"),
    ], ids=["json-parse", "csv-header", "unreadable", "range", "csv-grid"])
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

    def test_every_load_failure_lists_a_reason(self, tmp_path, capsys):
        texts = {"parse.json": "{", "layout.json": '{"cells": []}',
                 "top.json": "[]", "nan.json": '{"t": NaN}', "range.json": BAD_DOC,
                 "exponent.json": '{"t": 1e-1000000000}', "empty.csv": "",
                 "header.csv": "a,b\n", "fields.csv": "parameter,element,t,i,f,mu\ne1\n",
                 "grid.csv": "parameter,element,t,i,f,mu\n"
                             "e1,u1,0,0,0,1\ne2,u2,0,0,0,1\n"}
        for name, text in texts.items():
            (tmp_path / name).write_text(text)
        (tmp_path / "binary.json").write_bytes(b"\xff\xfe\x00")
        paths = [str(tmp_path / name) for name in [*texts, "binary.json", "gone.json"]]
        assert main(["validate", *paths, "--format", "json"]) == 1
        files = json.loads(capsys.readouterr().out)["files"]
        assert len(files) == len(paths)
        for entry in files:
            assert not entry["valid"]
            assert entry["violations"] and all(entry["violations"]), entry

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

    def test_each_candidate_is_scored_before_the_next_is_loaded(self, tmp_path,
                                                                 capsys, monkeypatch):
        for k in (1, 2, 3):
            name = f"applicant_{k}.json"
            (tmp_path / name).write_bytes((fixture("applicants") / name).read_bytes())
        events = []

        def logged(event, call):
            def logging_call(*args, **kwargs):
                events.append(event)
                return call(*args, **kwargs)
            return logging_call

        measure = importlib.import_module("pnsoft.similarity")
        monkeypatch.setattr(pnsoft.cli, "load_any", logged("load", pnsoft.cli.load_any))
        monkeypatch.setattr(measure, "similarity", logged("score", measure.similarity))
        assert main(["select", MODEL, str(tmp_path)]) == 0
        assert "selected: applicant_" in capsys.readouterr().out
        assert events == ["load"] + ["load", "score"] * 3   # the model, then each candidate


class WriteRecorder:
    """A stdout that keeps each text it is asked to write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


class TestStreamedOutput:
    """Output is written as it is made, never held whole."""

    #: per command: its options, the shape of the save_pair(..., seed=19)
    #: sets it reads, the fewest writes its output may take (its sections' rows),
    #: and the sha256 of its output per format. The decide hashes are the
    #: output as rendered whole before output was streamed; the set ones
    #: as written before the set commands shared the one emitter.
    CASES = {
        "decide": ([], (10, 50), 4 * 100, {
            "table": "d3a574c87d473fd65e4ef21472badf62b8fda8c9a170fb53078dedeab22dcbae",
            "json": "efb7f77a3fd991454132afec2de0794b04d3abab6a7dcc7cdea6ab6c89c12c4b",
        }),
        "union": (["--tnorm", "product", "--tconorm", "probsum"], (20, 200), 20, {
            "table": "c71130c0f73d47c9bc1dd4b476eeff151ef1b7c5ce3ea40d83951dfc705b73aa",
            "json": "bb675320f1444563360e1c2f307808d40cd70e03ab0d5a57e5a6d87235bd2df0",
        }),
        "complement": ([], (20, 200), 20, {
            "table": "e23525ebb8b5ac6b5de34a488c0bf57ec72e269bad776171a5ba8fd85e34b3ac",
            "json": "d1d759a35438eeee10aaf83fe01c959e838b7e271e0c3fbb7f85c9384f5ebf57",
        }),
        "and-product": ([], (20, 200), 20 * 20, {
            "table": "5cbb88cc3962344190ddabda6e5a0fbdc1a4885d135e8659cfc4aafc3b07533a",
            "json": "48f271c7345f1843690e5d16c8bcf8005dfd14ac0aa20df7ab4596cb80d989bf",
        }),
    }

    def check(self, tmp_path, monkeypatch, command, fmt):
        """Run `command`: its bytes are pinned, and no write is larger than
        one table line or one matrix row."""
        options, shape, fewest, sha256 = self.CASES[command]
        files = save_pair(tmp_path, *shape, seed=19)
        if command == "complement":
            files = files[:1]
        out = WriteRecorder()
        monkeypatch.setattr(sys, "stdout", out)
        assert main([command, *files, *options, "--format", fmt]) == 0
        text = "".join(out.writes)
        assert hashlib.sha256(text.encode()).hexdigest() == sha256[fmt]
        largest = max(map(len, out.writes))
        assert largest <= max(map(len, text.splitlines())) + 1
        if fmt == "json":  # all one line: no write holds more than one row
            innermost = re.findall(r"\[[^\[\]]*\]", text)  # rows and label lists
            assert largest <= max(map(len, innermost))
        assert len(out.writes) > fewest

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_decide_writes_at_most_a_line_or_a_row_at_a_time(self, tmp_path, monkeypatch,
                                                              fmt):
        self.check(tmp_path, monkeypatch, "decide", fmt)

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("command", ["union", "complement", "and-product"])
    def test_a_set_writes_at_most_a_line_or_a_row_at_a_time(self, tmp_path, monkeypatch,
                                                             command, fmt):
        self.check(tmp_path, monkeypatch, command, fmt)


class TestWriteFailures:
    """Output that cannot be written ends the run with status 1, no traceback."""

    def decide(self, stdout):
        return child("-m", "pnsoft.cli", "decide", HOUSES_A, HOUSES_B, stdout=stdout)

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

    @pytest.fixture(scope="class")
    def large_pair(self, tmp_path_factory):
        """20x200 sets, the first one's last parameter labelled "\u00e920"."""
        return save_pair(tmp_path_factory.mktemp("large"), 20, 200, seed=5,
                         last_parameter="\u00e920")

    def large_decide(self, pair, fmt, stdout=subprocess.PIPE, **env):
        return child("-m", "pnsoft.cli", "decide", *pair, "--format", fmt,
                     stdout=stdout, **env)

    def test_a_pipe_closed_partway_through_a_large_output_exits_quietly(self, large_pair):
        src = str(Path(pnsoft.__file__).resolve().parents[1])
        with subprocess.Popen(
                [sys.executable, "-m", "pnsoft.cli", "decide", *large_pair,
                 "--format", "json"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=src)) as proc:
            head = proc.stdout.read(64 * 1024)  # like `| head -c 65536`
            proc.stdout.close()
            err = proc.stderr.read()
            status = proc.wait(timeout=60)
        assert (status, err) == (1, b"")
        whole = self.large_decide(large_pair, "json").stdout
        assert len(head) == 64 * 1024 and whole.encode().startswith(head)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_a_device_that_fills_partway_through_a_large_output(self, large_pair):
        with open("/dev/full", "w") as full:
            done = self.large_decide(large_pair, "json", stdout=full)
        assert done.returncode == 1
        assert done.stderr == ("error: cannot write output: "
                               "[Errno 28] No space left on device\n")

    def test_a_label_stdout_cannot_encode_late_in_a_large_table(self, large_pair):
        done = self.large_decide(large_pair, "table", PYTHONIOENCODING="ascii")
        assert done.returncode == 1
        assert done.stderr == (
            "error: cannot write output: 'ascii' codec can't encode character "
            "'\\xe9' in position 0: ordinal not in range(128)\n")
        whole = self.large_decide(large_pair, "table").stdout
        assert whole.startswith(done.stdout) and len(done.stdout) < len(whole)

    def test_a_label_stdout_cannot_encode_ends_in_one_error_line(self, tmp_path):
        path = tmp_path / "accented.json"
        path.write_text(one_cell("\u00e91", "\u00fc1"), encoding="utf-8")
        done = child("-m", "pnsoft.cli", "complement", str(path), PYTHONIOENCODING="ascii")
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == (
            "error: cannot write output: 'ascii' codec can't encode character "
            "'\\xfc' in position 4: ordinal not in range(128)\n")


    def test_a_write_failure_in_process_closes_the_descriptor_it_opens(
            self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "accented.json"
        path.write_text(one_cell("\u00e91", "\u00fc1"), encoding="utf-8")
        real_open, opened = os.open, []

        def recording_open(*args, **kwargs):
            opened.append(real_open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(os, "open", recording_open)
        for _ in range(3):
            with io.TextIOWrapper(open(tmp_path / "out.txt", "wb"), encoding="ascii") as out:
                monkeypatch.setattr(sys, "stdout", out)
                assert main(["complement", str(path)]) == 1
        assert len(opened) == 3
        for fd in opened:
            with pytest.raises(OSError):
                os.fstat(fd)
        assert capsys.readouterr().err.count("error: cannot write output: ") == 3


class TestCollectorState:
    """main pauses the cyclic collector while a command runs and leaves it
    as it found it, however the command ends."""

    @pytest.fixture
    def collector(self):
        collecting = gc.isenabled()
        yield
        if collecting:
            gc.enable()
        else:
            gc.disable()

    def success(self, tmp_path, monkeypatch):
        return ["complement", CARS_A]

    def domain_error(self, tmp_path, monkeypatch):
        return ["complement", str(tmp_path / "missing.json")]

    def write_failure(self, tmp_path, monkeypatch):
        path = tmp_path / "accented.json"
        path.write_text(one_cell("\u00e91", "\u00fc1"), encoding="utf-8")
        out = io.TextIOWrapper(open(tmp_path / "out.txt", "wb"), encoding="ascii")
        monkeypatch.setattr(sys, "stdout", out)
        return ["complement", str(path)]

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("case,status", [("success", 0), ("domain_error", 1),
                                             ("write_failure", 1)])
    def test_the_collector_is_as_the_caller_left_it(self, collector, tmp_path,
                                                    monkeypatch, capsys, enabled,
                                                    case, status):
        argv = getattr(self, case)(tmp_path, monkeypatch)
        during = []
        real = pnsoft.cli.complement
        monkeypatch.setattr(pnsoft.cli, "complement",
                            lambda s: during.append(gc.isenabled()) or real(s))
        (gc.enable if enabled else gc.disable)()
        assert main(argv) == status
        assert gc.isenabled() is enabled
        assert during == ([] if case == "domain_error" else [False])
        if case == "write_failure":
            assert "error: cannot write output: 'ascii' codec" in capsys.readouterr().err
            sys.stdout.close()


class TestErrors:
    def test_missing_file_is_a_domain_error(self, capsys):
        assert main(["union", CARS_A, "/no/such/file.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cannot read" in err

    @pytest.mark.parametrize("name", ["binary.json", "binary.csv"])
    def test_undecodable_file_is_a_domain_error(self, tmp_path, capsys, name):
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(UnicodeDecodeError) as reason:
            path.read_text(encoding="utf-8")  # "'utf-8' codec can't decode byte 0xff ..."
        assert main(["complement", str(path)]) == 1
        assert capsys.readouterr().err == f"error: cannot read {path}: {reason.value}\n"

    def test_files_are_read_and_written_as_utf8_whatever_the_locale(self, tmp_path):
        done = child(*STRICT_ENCODING, "-m", "pnsoft.cli", "complement", CARS_A)
        assert (done.returncode, done.stderr) == (0, "")
        copy = tmp_path / "copy.json"
        done = child(*STRICT_ENCODING, "-c", "import sys, pnsoft; "
                     "pnsoft.save_pns(pnsoft.load_pns(sys.argv[1]), sys.argv[2])",
                     CARS_A, str(copy))
        assert (done.returncode, done.stderr) == (0, "")
        assert load_pns(copy) == load_pns(CARS_A)

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

    @pytest.mark.parametrize("text,reason", [
        ("9" * 100_000, "p must be an integer, got '" + "9" * 36 + "..."),
        ("x" * 100_000, "p must be an integer, got '" + "x" * 36 + "..."),
        ("9" * 4000, "p must lie in [1, 1000], got " + "9" * 37 + "..."),
    ], ids=["digits", "letters", "too-large"])
    def test_a_hostile_order_is_echoed_in_one_bounded_line(self, capsys, text, reason):
        with pytest.raises(SystemExit) as exc:
            main(["similarity", CARS_A, CARS_B, "-p", text])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        [line] = [line for line in err.splitlines() if "error:" in line]
        assert line == f"pnsoft similarity: error: argument -p: {reason}"
        assert len(err) < 400

    @pytest.mark.parametrize("argv,echo", [
        (["union", CARS_A, CARS_B, "--tnorm", "x" * 3000],
         "argument --tnorm: invalid choice: '" + "x" * 36 + "... (choose from "),
        (["decide", CARS_A, CARS_B, "--format", "y" * 3000],
         "argument --format: invalid choice: '" + "y" * 36 + "... (choose from "),
        (["z" * 3000], "argument command: invalid choice: '" + "z" * 36 + "... (choose from "),
        (["similarity", CARS_A, CARS_B, "--" + "q" * 3000],
         "unrecognized arguments: --" + "q" * 35 + "..."),
    ], ids=["choice", "format", "command", "option"])
    def test_a_rejected_argument_is_echoed_in_one_bounded_line(self, capsys, argv, echo):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        [line] = [line for line in err.splitlines() if "error:" in line]
        assert echo in line
        assert len(err) < 400

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

    @pytest.mark.parametrize("command", ["union", "intersect"])
    def test_profile_flags_state_their_family_and_default(self, command, capsys):
        text = self.help_text(command, capsys)
        assert ("--tnorm {lukasiewicz,min,product} "
                "t-norm family combining the two sets (default: min)") in text
        assert ("--tconorm {lukasiewicz,max,probsum} "
                "t-conorm family combining the two sets (default: max)") in text

    def test_complement_says_it_ignores_the_profile_flags(self, capsys):
        text = self.help_text("complement", capsys)
        for flag, kind in (("--tnorm {lukasiewicz,min,product}", "t-norm"),
                           ("--tconorm {lukasiewicz,max,probsum}", "t-conorm")):
            assert (f"{flag} {kind} family accepted as by union and intersect, and "
                    "ignored: the complement is always the standard negation") in text


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
