"""Command-line driver: reports, exit codes, round-trips."""

import json

import pytest

from specseq.cli import main
from specseq.excouple import COMPARE_RULES, couple_from_json, couple_to_json, demo_couple


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
        report = demo_couple("couple2").validate()
        assert (report["d_positions"], report["e_positions"]) == (6, 6)

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

    def test_five_term(self, capsys):
        code, rep = run(capsys, "five-term", "--k", "6")
        assert code == 0
        assert rep["groups"] == ["0", "0", "Z", "Z", "Z/6"]

    def test_zeeman_both_setups(self, capsys):
        for setup in ("I", "II"):
            code, rep = run(capsys, "zeeman", "--setup", setup)
            assert code == 0 and rep["ok"]


class TestExitCodes:
    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{nope")
        code, rep = run(capsys, "validate", str(path))
        assert code == 1 and rep["error"] == "parse"

    def test_validation_failure_with_witness(self, capsys, tmp_path, couple2_file):
        data = json.loads(open(couple2_file).read())
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
