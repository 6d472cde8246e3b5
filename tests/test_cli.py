"""Command-line driver: reports, exit codes, round-trips."""

import importlib
import inspect
import json
import pkgutil
from pathlib import Path

import pytest

from conftest import doubling_morphism_data
import specseq
from specseq import cli, zlinalg
from specseq.cli import main
from specseq.excouple import (
    COMPARE_RULES,
    ExactCouple,
    couple_from_json,
    couple_to_json,
    demo_couple,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def couple2_file(tmp_path):
    path = tmp_path / "couple2.json"
    path.write_text(json.dumps(couple_to_json(demo_couple("couple2"))))
    return str(path)


def identity_morphism_file(tmp_path, name):
    """A morphism file holding the identity of a demo couple."""
    data = couple_to_json(demo_couple(name))

    def identities(groups):
        return [
            {"at": [int(t) for t in x.split(",")],
             "matrix": [[int(r == c) for c in range(g["rank"] + len(g["torsion"]))]
                        for r in range(g["rank"] + len(g["torsion"]))]}
            for x, g in groups.items()
        ]

    path = tmp_path / ("%s-identity.json" % name)
    path.write_text(json.dumps({"source": data, "target": data,
                                "fD": identities(data["D"]), "fE": identities(data["E"])}))
    return str(path)


class TestDemos:
    def test_couple2_report(self, capsys):
        code, rep = run(capsys, "demo", "couple2")
        assert code == 0
        assert rep["L_0"] == "Z/2"
        assert rep["L_upper_-1"] == "Z/3"
        assert rep["E_infinity"]["0,0"] == "Z/6"
        assert rep["classification"] == "StableProperExtension"

    def test_cyclic_demo_table(self, capsys):
        code, rep = run(capsys, "demo", "cyclic-k", "--k", "5", "--N", "7")
        assert code == 0
        assert rep["H"] == ["Z", "Z/5", "0", "Z/5", "0", "Z/5", "0", "Z/5"]

    def test_cp_demo_table(self, capsys):
        code, rep = run(capsys, "demo", "cp-r", "--r", "3")
        assert code == 0
        assert rep["H"][:7] == ["Z", "0", "Z", "0", "Z", "0", "Z"]

    def test_demo_round_trips_byte_identically(self, capsys):
        for name in ("couple1", "couple2", "couple3"):
            _, rep = run(capsys, "demo", name)
            parsed = couple_from_json(rep["couple"])
            assert couple_to_json(parsed) == rep["couple"]


class TestCoupleCommands:
    def test_validate(self, capsys, couple2_file):
        code, rep = run(capsys, "validate", couple2_file)
        assert code == 0 and rep["ok"] and rep["sigma"] == -1
        # 6 D-positions and 6 E-positions, as counted by ExactCouple.validate
        assert rep["positions_checked"] == 12
        assert demo_couple("couple2").validate() == (6, 6)

    def test_pages_rendering(self, capsys, couple2_file):
        code, rep = run(capsys, "pages", couple2_file, "--to", "2")
        assert code == 0
        assert rep["pages"][0]["objects"]["0,0"] == "Z/6"
        assert any("Z/6" in line for line in rep["pages"][0]["rendered"])

    def test_einf(self, capsys, couple2_file):
        code, rep = run(capsys, "einf", couple2_file)
        assert code == 0
        assert rep["e_infinity"] == {"0,0": "Z/6"}
        assert rep["collapse_page"] == 1

    def test_abutments(self, capsys, couple2_file):
        code, rep = run(capsys, "abutments", couple2_file, "--n", "0")
        assert code == 0
        assert rep["colim"] == "Z/2" and rep["lim"] == "Z/3"

    def test_extension_report(self, capsys, couple2_file):
        code, rep = run(capsys, "extension-report", couple2_file, "--x", "0,0")
        assert code == 0
        assert rep["stable"] and rep["comparison_mono_is_iso"]
        assert (rep["eps"], rep["stable_e"], rep["eps_upper"]) == ("Z/2", "Z/6", "Z/3")

    def test_classify(self, capsys, couple2_file):
        code, rep = run(capsys, "classify", couple2_file, "--x", "0,0")
        assert code == 0 and rep["label"] == "StableProperExtension"

    def test_reindex_default_is_canonical(self, capsys, couple2_file):
        code, rep = run(capsys, "reindex", couple2_file)
        assert code == 0
        # the demo bidegrees are already homological, so T is the identity
        assert rep["matrix"] == [[1, 0], [0, 1]]

    def test_out_flag(self, capsys, tmp_path, couple2_file):
        out = tmp_path / "report.json"
        code = main(["einf", couple2_file, "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["e_infinity"] == {"0,0": "Z/6"}


class TestCompare:
    def test_identity_of_couple3_passes_every_rule(self, capsys, tmp_path):
        path = identity_morphism_file(tmp_path, "couple3")
        for rule in COMPARE_RULES:
            code, rep = run(capsys, "compare", path, "--rule", rule, "--n", "0")
            assert code == 0, rule
            assert rep["ok"] and rep["rule"] == rule and rep["diagonal"] == 0

    def test_failed_hypothesis_exits_3(self, capsys, tmp_path):
        path = identity_morphism_file(tmp_path, "couple2")
        code, rep = run(capsys, "compare", path, "--rule", "iso-lim-1")
        assert code == 3 and rep["kind"] == "HypothesisFailed"
        # the witness names the rule, the failing clause and the clauses checked
        assert rep["witness"] == repr(((
            "iso-lim-1", "both sides match the limit abutment",
            [("both sides match the limit abutment", False)]),))

    def test_tail_component_from_the_common_window(self, capsys, tmp_path):
        src, tgt, fD, fE = doubling_morphism_data()

        def entries(table):
            return [{"at": list(x), "matrix": m} for x, m in table.items()]

        path = tmp_path / "doubling.json"
        path.write_text(json.dumps({"source": couple_to_json(src), "target": couple_to_json(tgt),
                                    "fD": entries(fD), "fE": entries(fE)}))
        code, rep = run(capsys, "compare", str(path), "--rule", "mono-colim-1", "--n", "0")
        assert code == 0 and rep["ok"]

    def test_unknown_rule_is_a_parse_error(self, capsys, tmp_path):
        path = identity_morphism_file(tmp_path, "couple3")
        code, rep = run(capsys, "compare", path, "--rule", "no-such-rule")
        assert code == 1 and rep["kind"] == "ValueError"


class TestSolverCommands:
    def test_solve_two_row(self, capsys, tmp_path):
        inst = {"N": 5, "abutment": {
            "0": {"group": {"rank": 1, "torsion": []}, "stage": []},
            "1": {"group": {"rank": 1, "torsion": []}, "stage": [[4]]},
        }}
        path = tmp_path / "tworow.json"
        path.write_text(json.dumps(inst))
        code, rep = run(capsys, "solve-two-row", str(path))
        assert code == 0
        assert rep["H"] == {"0": "Z", "1": "Z/4", "2": "0", "3": "Z/4",
                            "4": "0", "5": "Z/4"}

    def test_solve_two_row_below_degree_0(self, capsys, tmp_path):
        path = tmp_path / "tworow.json"
        for group, want in (({"rank": 1}, 3), ({"rank": 0, "torsion": []}, 0)):
            inst = {"N": 3, "abutment": {"-1": {"group": group},
                                         "0": {"group": {"rank": 1}}}}
            path.write_text(json.dumps(inst))
            code, rep = run(capsys, "solve-two-row", str(path))
            assert code == want, rep
        assert rep["H"]["0"] == "Z"
        path.write_text(json.dumps({"N": 3, "abutment": {"-1": {"group": {"rank": 1}}}}))
        code, rep = run(capsys, "solve-two-row", str(path))
        assert rep == {"error": "theorem-check", "kind": "Inconsistent",
                       "witness": repr(((-1, "abutment below degree 0"),))}

    def test_five_term(self, capsys):
        code, rep = run(capsys, "five-term", "--k", "6")
        assert code == 0
        assert rep["groups"] == ["0", "0", "Z", "Z", "Z/6"]

    def test_zeeman_both_setups(self, capsys):
        # the horizons are pinned: a change to settled_page() shows here
        for setup, horizon in (("I", 11), ("II", 4)):
            code, rep = run(capsys, "zeeman", "--setup", setup)
            assert code == 0 and rep["ok"]
            assert rep["horizon"] == horizon


class TestExitCodes:
    def test_every_exception_class_has_one_exit_kind(self):
        bases = (zlinalg.ValidationFailure, zlinalg.CheckFailure)
        found = []
        for info in pkgutil.iter_modules(specseq.__path__):
            module = importlib.import_module("specseq." + info.name)
            for _, cls in inspect.getmembers(module, inspect.isclass):
                if (cls.__module__ != module.__name__ or cls in bases
                        or not issubclass(cls, BaseException)):
                    continue
                found.append(cls)
                kinds = [base for base in bases if issubclass(cls, base)]
                assert len(kinds) == 1, (cls, kinds)
        assert len(found) >= 18
        assert issubclass(zlinalg.TheoremViolation, AssertionError)
        assert issubclass(specseq.spectral.NotAMorphism, ValueError)

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{nope")
        code, rep = run(capsys, "validate", str(path))
        assert code == 1 and rep["error"] == "parse"

    def test_validation_failure_with_witness(self, capsys, tmp_path, couple2_file):
        data = json.loads(Path(couple2_file).read_text())
        data["j"][0]["matrix"] = [[0]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, rep = run(capsys, "validate", str(path))
        assert code == 2
        assert rep["kind"] == "NotExact" and "ij" in rep["witness"]

    def test_theorem_failure(self, capsys):
        code, rep = run(capsys, "zeeman", "--perturb")
        assert code == 3 and rep["kind"] == "SetupViolation"

    def test_theorem_violation(self, capsys, couple2_file, broken_page_anchoring):
        code, rep = run(capsys, "einf", couple2_file)
        assert code == 3 and rep["error"] == "theorem-check"
        assert rep["kind"] == "TheoremViolation"
        assert rep["witness"] == repr(("page anchoring disagrees", ((0, 0), 2)))

    def test_relation_without_preimage_is_a_theorem_violation(
            self, capsys, monkeypatch, couple2_file):
        # the page differentials are the one place the library solves for an element
        monkeypatch.setattr(zlinalg.Hom, "solve_element", lambda self, y: None)
        code, rep = run(capsys, "pages", couple2_file)
        assert code == 3 and rep["kind"] == "TheoremViolation"
        assert rep["witness"] == repr(("relation has no preimage", ((0, 0), 1)))

    def test_usage_error_is_a_parse_error(self, capsys, couple2_file):
        code, rep = run(capsys, "abutments", couple2_file)
        assert code == 1 and rep["error"] == "parse" and rep["kind"] == "ArgumentError"
        assert "--n" in rep["witness"]
        code, rep = run(capsys, "no-such-command")
        assert code == 1 and rep["error"] == "parse"

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["abutments", "-h"])
        assert info.value.code == 0
        assert "--n" in capsys.readouterr().out

    def test_malformed_option_values_are_parse_errors(self, capsys, tmp_path, couple2_file):
        for argv in (["classify", couple2_file, "--x", "1,2,3"],
                     ["reindex", couple2_file, "--matrix", "1,0,0"],
                     ["pages", couple2_file, "--to", "0"],
                     ["pages", couple2_file, "--to", "-2"],
                     ["pages", couple2_file, "--to", "two"],
                     ["zeeman", "--k", "1"],
                     ["five-term", "--k", "1"],
                     ["demo", "cyclic-k", "--k", "1"],
                     ["demo", "cp-r", "--r", "0"],
                     ["zeeman", "--N", "0"],
                     ["demo", "cyclic-k", "--N", "0"]):
            code, rep = run(capsys, *argv)
            assert code == 1 and rep["error"] == "parse" and rep["kind"] == "ArgumentError"
        for N in (0, -1, 2.5, "3", True):
            path = tmp_path / "tworow.json"
            path.write_text(json.dumps({"N": N, "abutment": {}}))
            code, rep = run(capsys, "solve-two-row", str(path))
            assert code == 1 and rep["error"] == "parse" and rep["kind"] == "ValueError"

    def test_non_regular_bidegrees_fail_validation(self, capsys, tmp_path, couple2_file):
        data = json.loads(Path(couple2_file).read_text())
        data["bidegrees"]["a"] = [0, 0]
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(data))
        code, rep = run(capsys, "einf", str(path))
        assert code == 2 and rep["error"] == "validation" and rep["kind"] == "NotRegular"

    def test_error_while_computing_is_internal(self, capsys, monkeypatch, couple2_file):
        def broken(self):
            raise ValueError("broken e_infinity")

        monkeypatch.setattr(ExactCouple, "e_infinity", broken)
        code, rep = run(capsys, "einf", couple2_file)
        assert code == 4 and rep["error"] == "internal" and rep["kind"] == "ValueError"
        assert rep["witness"] == repr(("broken e_infinity",))

    def test_unwritable_out_is_a_parse_error_before_computing(
            self, capsys, monkeypatch, tmp_path, couple2_file):
        called = []
        for name in ("validate", "e_infinity"):
            monkeypatch.setattr(ExactCouple, name,
                                lambda self, *a, name=name, **kw: called.append(name))
        for argv, kind in (
                (["demo", "couple2", "--out", str(tmp_path / "missing" / "r.json")],
                 "FileNotFoundError"),
                (["einf", couple2_file, "--out", str(tmp_path)], "IsADirectoryError")):
            code, rep = run(capsys, *argv)
            assert code == 1 and rep["error"] == "parse" and rep["kind"] == kind
        assert called == []


def set_in(path, value):
    """A change to a couple dict: the entry at ``path`` (keys and indices) becomes ``value``."""
    def change(data):
        *inner, last = path
        for key in inner:
            data = data[key]
        data[last] = value
    return change


def append_to(path, value):
    """A change to a couple dict: ``value`` is appended to the list at ``path``."""
    def change(data):
        for key in path:
            data = data[key]
        data.append(value)
    return change


# Couple files that are not integers and pairs only, or that give a position
# twice; each is a parse error.
MALFORMED_COUPLES = {
    "position with one entry": set_in(["j", 0, "at"], [0]),
    "position with three entries": set_in(["j", 0, "at"], [0, 0, 5]),
    "bidegree with one entry": set_in(["bidegrees", "a"], [1]),
    "bidegree with three entries": set_in(["bidegrees", "a"], [1, -1, 0]),
    "one tail name": set_in(["diagonal_tails", "0"], ["zero"]),
    "three tail names": set_in(["diagonal_tails", "0"], ["zero", "constant", "zero"]),
    "float torsion": set_in(["D", "0,0", "torsion"], [2.0]),
    "boolean rank": set_in(["E", "0,0", "rank"], False),
    "float matrix entry": set_in(["k", 0, "matrix"], [[1.0]]),
    "float bidegree entry": set_in(["bidegrees", "c"], [-1.0, 0]),
    "D groups in an array": set_in(["D"], []),
    "E groups in an array": set_in(["E"], []),
    "tails in an array": set_in(["diagonal_tails"], []),
    "group given as a number": set_in(["D", "0,0"], 5),
    "torsion given as an object": set_in(["D", "0,0", "torsion"], {}),
    "i maps in an object": set_in(["i"], {}),
    "map entry given as an array": set_in(["k", 0], [[0, 0], [[1]]]),
    "matrix given as an object": set_in(["k", 0, "matrix"], {}),
    "D position given twice": set_in(["D", " 0,0"], {"torsion": [2]}),
    "E position given twice": set_in(["E", " 0,0"], {"torsion": [6]}),
    "j entry given twice": append_to(["j"], {"at": [0, 0], "matrix": [[0]]}),
    "tail diagonal given twice": set_in(["diagonal_tails", " 0"], ["zero", "constant"]),
}


class TestMalformedFiles:
    """Couple, morphism and two-row files hold integers and pairs only, and
    give each position once."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_COUPLES))
    def test_malformed_couple_is_a_parse_error(self, capsys, tmp_path, couple2_file, case):
        data = json.loads(Path(couple2_file).read_text())
        MALFORMED_COUPLES[case](data)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        code, rep = run(capsys, "validate", str(path))
        assert code == 1 and rep["error"] == "parse" and rep["kind"] == "ValueError"
        assert rep["witness"].startswith("expected")

    def test_malformed_morphism_is_a_parse_error(self, capsys, tmp_path):
        path = Path(identity_morphism_file(tmp_path, "couple2"))
        identity = path.read_text()
        for change in (set_in(["fE", 0, "at"], [0, 0, 0]), set_in(["fE", 0, "matrix"], [[1.0]]),
                       set_in(["fD"], {}), set_in(["source"], [])):
            data = json.loads(identity)
            change(data)
            path.write_text(json.dumps(data))
            code, rep = run(capsys, "compare", str(path), "--rule", "iso-colim", "--n", "0")
            assert code == 1 and rep["error"] == "parse" and rep["kind"] == "ValueError"
            assert rep["witness"].startswith("expected")

    def test_morphism_entry_given_twice_is_a_parse_error(self, capsys, tmp_path):
        path = Path(identity_morphism_file(tmp_path, "couple2"))
        data = json.loads(path.read_text())
        append_to(["fE"], {"at": [0, 0], "matrix": [[1]]})(data)
        path.write_text(json.dumps(data))
        code, rep = run(capsys, "compare", str(path), "--rule", "iso-colim", "--n", "0")
        assert code == 1 and rep["error"] == "parse" and rep["kind"] == "ValueError"
        assert rep["witness"].startswith("expected")

    def test_malformed_two_row_file_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "tworow.json"
        for abutment in ({"1": {"group": {"rank": 1, "torsion": [2.0]}}},
                         {"1": {"group": {"rank": 1.0}}},
                         {"1": {"group": {"rank": 1}, "stage": [[4.0]]}},
                         {"1": {"group": {"rank": 1}, "stage": [[True]]}},
                         [],
                         {"1": {"group": [1]}},
                         {"1": []},
                         {"1": {"group": {"rank": 1}, "stage": {}}}):
            path.write_text(json.dumps({"N": 3, "abutment": abutment}))
            code, rep = run(capsys, "solve-two-row", str(path))
            assert code == 1 and rep["error"] == "parse" and rep["kind"] == "ValueError"
            assert rep["witness"].startswith("expected")


class TestParserReuse:
    """main builds its parser once per process; no state passes between calls."""

    def test_parser_is_built_once(self, capsys, monkeypatch, couple2_file):
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        cli._shared_parser.cache_clear()
        assert run(capsys, "einf", couple2_file)[0] == 0
        assert built
        first = list(built)
        for argv in (["validate", couple2_file], ["demo", "cyclic-k"], ["no-such-command"]):
            run(capsys, *argv)
        assert built == first

    def test_defaults_come_back(self, capsys, couple2_file):
        code, rep = run(capsys, "pages", couple2_file, "--to", "2")
        assert code == 0 and [p["r"] for p in rep["pages"]] == [1, 2]
        code, rep = run(capsys, "pages", couple2_file)
        assert code == 0 and [p["r"] for p in rep["pages"]] == [1, 2, 3]

    def test_required_option_stays_required(self, capsys, couple2_file):
        code, rep = run(capsys, "abutments", couple2_file, "--n", "1")
        assert code == 0 and rep["n"] == 1
        code, rep = run(capsys, "abutments", couple2_file)
        assert code == 1 and rep["error"] == "parse" and rep["kind"] == "ArgumentError"

    def test_out_applies_to_its_own_command(self, capsys, tmp_path, couple2_file):
        out = tmp_path / "report.json"
        assert main(["einf", couple2_file, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        code, rep = run(capsys, "validate", couple2_file)
        assert code == 0 and rep["ok"]
        assert json.loads(out.read_text())["e_infinity"] == {"0,0": "Z/6"}

    def test_help_after_other_commands(self, capsys, couple2_file):
        run(capsys, "einf", couple2_file)
        run(capsys, "abutments", couple2_file)
        with pytest.raises(SystemExit) as info:
            main(["pages", "-h"])
        assert info.value.code == 0
        assert "--to" in capsys.readouterr().out
