"""The command-line interface: exit codes, determinism, file outputs."""

import hashlib
import io
import json
import os
import sys
import time

import pytest

from goeritz import cli, farey
from goeritz.cli import main
from goeritz.contract import HomotopyCertificate, validate
from goeritz.simplicial import Complex


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eq_of_involution_square(capsys):
    code, out, _ = run(capsys, "eq", "gg", "")
    assert code == 0
    assert out.strip() == "true"


def test_eq_distinct_words(capsys):
    code, out, _ = run(capsys, "eq", "bd", "db")
    assert code == 1
    assert out.strip() == "false"


def test_nf_human_and_json(capsys):
    code, out, _ = run(capsys, "nf", "bd")
    assert code == 0
    assert out.strip() == "P(b^1) Q(d^1) | tail=1"
    code, out, _ = run(capsys, "nf", "--json", "bd")
    data = json.loads(out)
    assert data["is_identity"] is False
    assert data["syllables"] == [
        {"factor": "P", "power": 1},
        {"factor": "Q", "power": 1},
    ]


def test_verify_presentation(capsys):
    code, out, _ = run(capsys, "verify-presentation", "--consequences", "20")
    assert code == 0
    assert "consequences: 20/20 ok" in out


def test_verify_presentation_short_max_len(capsys):
    # up to 20 letters fit two relators of 10; fewer than 10 fit none
    code, out, _ = run(capsys, "verify-presentation", "--max-len", "20")
    assert code == 0
    assert "consequences: 1000/1000 ok" in out
    assert out.count(": ok") == 6
    code, out, err = run(capsys, "verify-presentation", "--max-len", "9")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_primitive_exit_codes(capsys):
    assert run(capsys, "primitive", "xy")[0] == 0
    assert run(capsys, "primitive", "xyXY")[0] == 1
    code, out, _ = run(capsys, "primitive", "xyXY")
    assert "mixed-sign" in out


def test_tree_report_and_dot(capsys, tmp_path):
    dot = tmp_path / "ball.dot"
    code, out, _ = run(
        capsys, "tree", "--radius", "1", "--max-power", "2", "--dot", str(dot)
    )
    assert code == 0
    assert "8 vertices, 7 edges" in out
    text = dot.read_text()
    assert text.count("shape=circle") == 3
    assert text.count("shape=box") == 5


def test_quotient_report(capsys):
    code, out, _ = run(capsys, "quotient", "--radius", "2", "--witnesses", "5")
    assert code == 0
    assert "quotient edges: 1" in out
    assert out.count("[ok]") == 5


def test_stabilizers_report(capsys):
    code, out, _ = run(capsys, "stabilizers", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["triple_count"] == 12
    assert data["edge_count"] == 4
    assert data["ok"] is True


def test_simplicial_pipeline(capsys, tmp_path):
    source = tmp_path / "triangle.json"
    source.write_text('{"max_simplices": [["a", "b", "c"]]}')
    code, out, _ = run(capsys, "simplicial", "flag", str(source))
    assert code == 0 and out.strip() == "true"

    out_path = tmp_path / "pared.json"
    code, _, _ = run(
        capsys, "simplicial", "remove-stars", str(source), "-o", str(out_path)
    )
    assert code == 0
    pared = Complex.from_json(out_path.read_text())
    assert len(pared.vertices()) == 4
    assert len(pared.simplices(1)) == 3
    assert pared.is_acyclic_graph()

    boundary = tmp_path / "boundary.json"
    boundary.write_text('{"max_simplices": [["a","b"],["b","c"],["a","c"]]}')
    assert run(capsys, "simplicial", "flag", str(boundary))[0] == 1


def test_farey_report(capsys):
    code, out, _ = run(
        capsys, "farey", "--n", "6", "--verify-axioms", "--samples", "50"
    )
    assert code == 0
    assert "0 violations" in out


def test_contract_writes_validating_certificate(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "contract", "--seed", "3", "-o", str(cert_path))
    assert code == 0
    assert "validated: true" in out
    cert = HomotopyCertificate.from_json_dict(
        json.loads(cert_path.read_text()), decode=farey.parse_slope
    )
    loop = farey.random_based_loop(3, 50)
    assert validate(farey.adjacent, cert, loop, farey.BASE).ok


def test_contract_respects_fuel_env(capsys, monkeypatch):
    code, _, err = run(capsys, "contract", "--seed", "3", "--fuel", "1")
    assert code == 1
    assert "fuel" in err.lower()
    monkeypatch.setenv("GOERITZ_FUEL", "1")  # the environment sets no budget
    assert run(capsys, "contract", "--seed", "3")[0] == 0


def test_closed_stdout_pipe_exits_141_quietly(capsys, monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["contract", "--seed", "5", "--json"])
    quieted = sys.stdout
    assert code == 141
    assert quieted.name == os.devnull
    quieted.close()
    assert capsys.readouterr().err == ""


def test_output_is_deterministic(capsys):
    for argv in (
        ["contract", "--seed", "5", "--json"],
        ["verify-presentation", "--consequences", "10", "--json"],
        ["farey", "--n", "5", "--verify-axioms", "--samples", "30", "--json"],
        ["quotient", "--radius", "2", "--json"],
    ):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "nf", "not a word")[0] == 2
    assert run(capsys, "tree", "--radius", "0")[0] == 2
    assert run(capsys, "contract", "--fuel", "-5")[0] == 2
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys)[0] == 2


def test_missing_complex_file_is_a_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "simplicial", "flag", str(tmp_path / "missing.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_reversed_farey_window_is_a_usage_error(capsys):
    code, out, err = run(capsys, "farey", "--window", "1", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_ball_over_the_vertex_cap_is_a_usage_error(capsys):
    code, out, err = run(capsys, "tree", "--radius", "12", "--max-power", "3")
    assert code == 2
    assert out == ""
    assert err == "error: ball exceeded vertex cap 100000\n"


def test_huge_max_power_overruns_the_vertex_cap_quickly(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "tree", "--radius", "1", "--max-power", str(10**12))
    elapsed = time.perf_counter() - t0
    assert (code, out, err) == (2, "", "error: ball exceeded vertex cap 100000\n")
    assert elapsed < 1.0, f"{elapsed:.2f}s"


def test_farey_build_over_the_vertex_cap_is_a_usage_error(capsys):
    # each would list billions of candidate slopes; the cap refuses both
    # before the row that passes it
    for argv in (("--n", "100000000"), ("--n", "1", "--window", "-1000000000", "1000000000")):
        code, out, err = run(capsys, "farey", *argv)
        assert (code, out, err) == (2, "", "error: build exceeded vertex cap 100000\n")


def test_farey_sample_count_over_the_cap_is_a_usage_error(capsys, monkeypatch):
    # the sample loop is capped at farey.SAMPLE_CAP like every other loop
    # size the CLI takes; the edge is pinned on a lowered cap
    for samples in (1_000_001, 10**9):
        code, out, err = run(capsys, "farey", "--verify-axioms", "--samples", str(samples))
        assert (code, out, err) == (2, "", "error: samples must be at most 1000000\n")
    # refused before the build, which takes about a second near its vertex cap
    with monkeypatch.context() as patch:
        patch.setattr(farey, "build", lambda n, window=(0, 1): pytest.fail("built a complex"))
        code, out, err = run(capsys, "farey", "--n", "500", "--verify-axioms",
                             "--samples", "1000001")
        assert (code, out, err) == (2, "", "error: samples must be at most 1000000\n")
    monkeypatch.setattr(farey, "SAMPLE_CAP", 30)
    code, out, _ = run(capsys, "farey", "--n", "5", "--verify-axioms", "--samples", "30")
    assert code == 0 and "axioms: 30 samples, 0 violations" in out
    code, out, err = run(capsys, "farey", "--n", "5", "--verify-axioms", "--samples", "31")
    assert (code, out, err) == (2, "", "error: samples must be at most 30\n")


def test_verify_presentation_over_the_max_len_cap_is_a_usage_error(capsys):
    # a consequence is built letter by letter before normal_form sees it;
    # the cap (amalgam.MAX_CONSEQUENCE_LEN) refuses a longer max_len
    # before any word is built
    for max_len in (10_000_001, 10**11):
        argv = ("verify-presentation", "--max-len", str(max_len), "--consequences", "1")
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: max_len must be at most 10000000\n")


def test_verify_presentation_over_the_total_letter_cap_is_a_usage_error(capsys):
    # the work is linear in consequences * max_len, so the same cap bounds
    # the product, before any word is built (--max-len defaults to 200)
    for extra in (("--consequences", "50001"), ("--consequences", "1001", "--max-len", "10000")):
        code, out, err = run(capsys, "verify-presentation", *extra)
        assert (code, out, err) == (
            2, "", "error: consequences * max_len must be at most 10000000\n"
        ), extra


# sha256 of the file that `tree --dot PATH` writes, frozen before the
# endpoint rule moved onto plain keys (tests/cli_golden.json pins only
# stdout and stderr, which name the path but not the file's bytes)
DOT_DIGESTS = {
    (1, 2): "125813a2b9c623fdfc503bfe4a79bd968e93ecb2eb3ec2cafc0a372cefe207e5",
    (3, 2): "784a7475f6b273e1546c977195c36d95ee5b656b9e9d783af25ac533446351d3",
    (4, 3): "d39190dae2c2df30247efa005e3125619bb4baba1c62d4098fd2b3d6162c53d0",
}


def test_dot_files_match_the_frozen_digests(capsys, tmp_path):
    for (radius, max_power), digest in DOT_DIGESTS.items():
        dot = tmp_path / f"ball_{radius}_{max_power}.dot"
        argv = ["tree", "--radius", str(radius), "--max-power", str(max_power), "--dot", str(dot)]
        assert run(capsys, *argv)[0] == 0
        assert hashlib.sha256(dot.read_bytes()).hexdigest() == digest, (radius, max_power)


# sha256 of the certificate file that `contract -o PATH` writes, frozen
# while to_json was still json.dumps(..., indent=2); keys are
# (seed, --max-denominator or None for the default)
CERTIFICATE_DIGESTS = {
    (0, None): "c275f5670f2299d78061fa263dcba6404d3c505584384733bff9a7efefbdb5b6",
    (1, None): "53cac848d99ae8bb18ec68d9c1dbac0da4e2ed29925ce2fea7948472f09ea552",
    (2, None): "f31305d6745735b6d7ae0d5367a1bca0f1a7c8184842bb3d6b621f133113919c",
    (3, None): "ec1752051c519f92f659b16a5f8b556815b1cf0da276d4c2dd785b8462b706b1",
    (4, None): "69aa6c5cbd36ce91aa8779237fba8c98e174251862e238e317ac9e0d8c758765",
    (5, None): "bfb1c4df3403d91f637dbb5044110ca6f2070bff69c68b19ee6d8da9e9c5bceb",
    (6, None): "0432e31df4cf3eca56b13f28d9ffa0bd59c69a13fbe23fbb3cf051e71f8b914f",
    (7, None): "794fbb98e9f029b20a0c0a7aa3d17dae17f4ca547733e72f078d2fdc5d361ec5",
    (8, None): "4b1a9818eb6fa04e0f824bc96852bb61877be0490d5f4a29ff47fc92232acb78",
    (9, None): "50cbc7f52addb4a01999c0d2e83aac98d59e775472b72cb02363f467fe5ce477",
    (0, 20): "7177c90a63f2d78b7e79caee97d85f6951c178fc2acf3defa5fc7e00e51b339a",
}


def test_certificate_files_match_the_frozen_digests(capsys, tmp_path):
    for (seed, max_denominator), digest in CERTIFICATE_DIGESTS.items():
        path = tmp_path / f"cert_{seed}_{max_denominator}.json"
        argv = ["contract", "--seed", str(seed), "-o", str(path)]
        if max_denominator is not None:
            argv += ["--max-denominator", str(max_denominator)]
        assert run(capsys, *argv)[0] == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, (seed, max_denominator)


def test_malformed_complex_file_is_a_usage_error(capsys, tmp_path):
    source = tmp_path / "complex.json"
    for text in ('{"max_simplices": [[[1,2],3]]}', '{"max_simplices": 5}', "5"):
        source.write_text(text)
        code, out, err = run(capsys, "simplicial", "flag", str(source))
        assert code == 2, text
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_deeply_nested_complex_file_is_a_usage_error(capsys, tmp_path):
    source = tmp_path / "complex.json"
    for text in ("[" * 100_000, '{"max_simplices": ' + "[" * 100_000):
        source.write_text(text)
        code, out, err = run(capsys, "simplicial", "flag", str(source))
        assert (code, out, err) == (2, "", "error: JSON nested too deeply\n"), text[:20]


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_reused_parser_answers_like_a_fresh_one(capsys, monkeypatch):
    # one process, one cached parser: no value, default or error may carry
    # over from one call to the next
    sequence = [
        ("farey", "--n", "6", "--window", "-2", "3", "--json"),
        ("farey", "--n", "6", "--json"),
        ("primitive", "--json"),  # no word: usage error
        ("primitive", "xyXY", "--json"),
        ("tree", "--radius", "one"),  # not an int: usage error
        ("tree", "--radius", "1", "--json"),
    ]
    reused = [run(capsys, *argv) for argv in sequence]
    assert [code for code, _, _ in reused] == [0, 0, 2, 1, 2, 0]
    assert json.loads(reused[0][1])["window"] == [-2, 3]
    assert json.loads(reused[1][1])["window"] == [0, 1]
    monkeypatch.setattr(cli, "_parser", cli._parser.__wrapped__)
    assert [run(capsys, *argv) for argv in sequence] == reused


def test_help_wraps_to_the_columns_at_print_time(capsys, monkeypatch):
    shown = []
    for columns in ("200", "80"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, _ = run(capsys, "--help")
        cli._parser.__wrapped__().print_help()
        assert (code, out) == (0, capsys.readouterr().out), columns
        shown.append(out)
    assert shown[0] != shown[1]


def test_complex_labels_that_python_would_merge_are_a_usage_error(capsys, tmp_path):
    source = tmp_path / "complex.json"
    for text in ('{"max_simplices": [[true, 1, 2]]}', '{"max_simplices": [[1, 1.0]]}'):
        source.write_text(text)
        for action in ("flag", "barycentric"):
            code, out, err = run(capsys, "simplicial", action, str(source))
            assert code == 2, text
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
