"""File formats and the command-line front end."""

import hashlib
import json
import os

import pytest

from msfam import MultisetFamily, Params, UNBOUNDED, build_hm, search
from msfam.cli import main
from msfam.fileio import (
    FileFormatError, multiset_family_text, parse_multiset, read_multiset_family,
    read_set_family, set_family_text,
)
from msfam.subsets import SetFamily


def test_multiset_roundtrip_dense_and_sparse():
    fam = build_hm(Params(6, 4, 2))
    for style in ("dense", "sparse"):
        text = multiset_family_text(fam, style)
        back = read_multiset_family(text)
        assert back == fam
        # writer output is stable through a read-write cycle
        assert multiset_family_text(back, style) == text


def test_multiset_roundtrip_unbounded_header():
    fam = build_hm(Params(5, 4, UNBOUNDED))
    text = multiset_family_text(fam)
    assert text.splitlines()[0] == "5 4 inf"
    assert read_multiset_family(text) == fam


def test_mixed_style_lines_parse():
    text = "4 3 2\n1 1 1 0\n1^1 3^2\n"
    fam = read_multiset_family(text)
    assert fam.members == ((1, 0, 2, 0), (1, 1, 1, 0))


def test_parse_multiset_errors():
    with pytest.raises(FileFormatError):
        parse_multiset("1 2", 3)  # dense with wrong arity
    with pytest.raises(FileFormatError):
        parse_multiset("5^1", 3)  # element outside ground set
    with pytest.raises(FileFormatError):
        parse_multiset("1^0", 3)  # sparse multiplicity must be positive
    with pytest.raises(FileFormatError):
        parse_multiset("1^1 1^2", 3)  # duplicate element
    with pytest.raises(FileFormatError):
        parse_multiset("", 3)


def test_bad_headers():
    # a header Params rejects, or a member breaking k or the cap, is a
    # FileFormatError like every other malformed file
    for text in ("4 3\n", "-1 4 2\n", "0 4 2\n", "3 -1 2\n", "3 2 x\n", "3 2 0\n",
                 "3 2 2\n2 1 0\n", "3 2 1\n2 0 0\n"):
        with pytest.raises(FileFormatError):
            read_multiset_family(text)
    with pytest.raises(FileFormatError):
        read_set_family("x\n")
    with pytest.raises(FileFormatError):
        read_set_family("-1\n")
    with pytest.raises(FileFormatError):
        read_set_family("0\n")


def test_set_family_roundtrip():
    fam = SetFamily.from_sets(5, [[1, 2], [1, 3, 4], [2, 3, 4, 5]])
    text = set_family_text(fam)
    assert read_set_family(text) == fam
    assert set_family_text(read_set_family(text)) == text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_coeffs_row(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--k", "4", "--m", "2")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "l,k=4"
    assert "3,3" in rows  # coefficient 3 at l=3


def test_cli_count(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "5", "--k", "4", "--m", "inf")
    assert code == 0
    assert out.strip() == "70"


def test_cli_construct_count_only(capsys):
    code, out, _ = run_cli(capsys, "construct", "hm", "--n", "9", "--k", "4",
                           "--m", "1", "--count-only")
    assert code == 0
    assert out.strip() == "53"


def test_cli_construct_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "construct", "hm", "--n", "6", "--k", "4", "--m", "2")
    assert code == 0
    assert read_multiset_family(out) == build_hm(Params(6, 4, 2))


def test_cli_construct_shadow(capsys):
    code, out, _ = run_cli(capsys, "construct", "shadow", "--n", "5", "--k", "4", "--m", "2")
    assert code == 0
    fam = read_set_family(out)
    assert len(fam) == 15


def test_cli_verify_theorem_json_and_exit(capsys):
    code, out, _ = run_cli(capsys, "verify-theorem", "--n", "5", "--k", "4", "--m", "inf")
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == 35
    assert payload["params"]["m"] == "inf"
    assert payload["runtime_ms"] is None


def test_cli_reports_byte_identical_across_workers(capsys):
    outputs = []
    for workers in ("1", "2"):
        code, out, _ = run_cli(capsys, "verify-theorem", "--n", "5", "--k", "4",
                               "--m", "inf", "--workers", workers)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_cli_verify_lemma(capsys):
    code, out, _ = run_cli(capsys, "verify-lemma", "--n", "5", "--k", "4", "--m", "inf",
                           "--which", "layer-dominance")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["check"] == "layer-dominance"
    assert payload[0]["passed"] is True


def test_cli_verify_lemma_all(capsys):
    code, out, _ = run_cli(capsys, "verify-lemma", "--n", "5", "--k", "4", "--m", "inf")
    assert code == 0
    payload = json.loads(out)
    assert [r["check"] for r in payload] == [
        "removed-layer", "layer-dominance", "valuable-rigidity"]
    assert all(r["passed"] for r in payload)
    assert all(r["params"]["m"] == "inf" for r in payload)


def test_cli_enumerate_text(capsys):
    code, out, _ = run_cli(capsys, "enumerate-maximal", "--n", "3")
    assert code == 0
    assert out.splitlines()[0] == "3"
    assert "# 4 maximal intersecting families" in out


def test_cli_grid_csv(capsys):
    code, out, _ = run_cli(capsys, "grid", "--k", "4", "--m", "3", "--n-max", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,k,m,bound")
    assert lines[1] == "6,4,3,53,2634,28,1,unique-iso,0"


def test_cli_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-theorem", "--n", "5"])  # missing required flags
    assert exc.value.code == 2


@pytest.mark.parametrize("m", [",", ""])
def test_cli_grid_empty_cap_list_exit_2(capsys, m):
    code, out, err = run_cli(capsys, "grid", "--k", "4", "--m", m, "--n-max", "6")
    assert (code, out) == (2, "")
    assert "empty list" in err


def test_cli_grid_without_admissible_cell_exit_2(capsys):
    # (4, 2) needs n >= 6
    code, out, err = run_cli(capsys, "grid", "--k", "4", "--m", "2", "--n-max", "3")
    assert (code, out) == (2, "")
    assert "admissible" in err


def test_cli_cap_exceeded_exit_2(capsys):
    code, out, err = run_cli(capsys, "enumerate-maximal", "--n", "9")
    assert (code, out) == (2, "")
    assert "guard" in err


def test_cli_cap_exceeded_up_to_iso_exit_2(capsys):
    code, out, err = run_cli(capsys, "enumerate-maximal", "--n", "9", "--up-to-iso")
    assert (code, out) == (2, "")
    assert "guard" in err


@pytest.mark.parametrize("iso, digest", [
    ((), "816996b4ac87ca1272ae727291f9ab2372950512597dd0e9a49aef51b5ce9f0d"),
    (("--up-to-iso",), "53895ddbb2d5861fbc585251d8cfcaef7edcf8bcc0d3207c749171ccffed39af"),
])
def test_cli_enumerate_text_bytes_pinned_n6(capsys, iso, digest):
    code, out, _ = run_cli(capsys, "enumerate-maximal", "--n", "6", *iso)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    # each family block lists its members in (size, elements) order
    blocks = out.split("# family ")[1:]
    assert len(blocks) == (30 if iso else 2646)
    lines = blocks[0].splitlines()[1:-1]
    first = SetFamily.from_sets(6, [map(int, line.split()) for line in lines])
    assert lines == [" ".join(map(str, m)) for m in first.member_sets()]


@pytest.mark.parametrize("iso, digest, count", [
    ((), "b5a35a873c0a4065e848ada7c04e8cd38eb2b027ba872302fd2e8a2e11be422c", 2646),
    (("--up-to-iso",), "42b71a8dd29cfcaa2ae4b4b6f0543c6b01887709235770d7ba2fb9cb1b90b7e8", 30),
])
def test_cli_enumerate_json_bytes_pinned_n6(capsys, iso, digest, count):
    code, out, _ = run_cli(capsys, "enumerate-maximal", "--n", "6", "--format", "json", *iso)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    payload = json.loads(out)
    assert (payload["count"], len(payload["families"])) == (count, count)


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_cli_workers_below_one_exit_2(capsys, monkeypatch, workers):
    def refuse(*args):
        raise AssertionError("no enumeration pass may start")
    monkeypatch.setattr(search, "_run_pass", refuse)
    code, _, err = run_cli(capsys, "verify-theorem", "--n", "5", "--k", "4", "--m", "inf",
                           "--workers", workers)
    assert code == 2
    assert "workers" in err


def test_cli_precondition_rejected_without_unchecked(capsys):
    code, _, err = run_cli(capsys, "verify-theorem", "--n", "4", "--k", "3", "--m", "2")
    assert code == 2
    assert "k >= 4" in err


def test_cli_unchecked_explores_small_k(capsys):
    # outside the theorem hypotheses the bound 13 still holds at (5, 3, 2),
    # but uniqueness genuinely fails: two achiever classes, exit status 1
    code, out, _ = run_cli(capsys, "verify-theorem", "--n", "5", "--k", "3", "--m", "2",
                           "--unchecked")
    assert code == 1
    payload = json.loads(out)
    assert payload["bound"] == 13
    assert payload["uniqueness_verdict"] == "multiple-iso"
    assert len(payload["achievers"]) == 2


def test_cli_out_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MSFAM_OUT_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "count", "--n", "4", "--k", "4", "--m", "2",
                           "--out", "count.txt")
    assert code == 0
    assert (tmp_path / "count.txt").read_text().strip() == "19"


def test_cli_grid_report_dir(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "grid", "--k", "4", "--m", "3", "--n-max", "6",
                           "--report-dir", str(tmp_path))
    assert code == 0
    report = tmp_path / "theorem_n6_k4_m3.json"
    assert report.exists()
    assert json.loads(report.read_text())["bound"] == 53


def test_cli_grid_repeated_values_give_one_cell(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "grid", "--k", "4,4", "--m", "2", "--n-max", "6",
                           "--report-dir", str(tmp_path))
    assert code == 0
    assert out.strip().splitlines()[1:] == ["6,4,2,45,2634,28,28,not-applicable,0"]
    assert [p.name for p in tmp_path.iterdir()] == ["theorem_n6_k4_m2.json"]
    code, out, _ = run_cli(capsys, "grid", "--k", "4", "--m", "2,2", "--n-max", "6",
                           "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 1


def test_cli_identical_runs_byte_identical(capsys):
    argv = ["verify-lemma", "--n", "5", "--k", "4", "--m", "inf"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
