"""Command-line front end: output shapes, exit codes, round-trips."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from chainreg import cli, normalize_spec
from chainreg.cli import load_spec, main


@pytest.fixture
def spec_file(tmp_path):
    def write(payload, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
        return str(path)

    return write


TABLE = {"r": 10, "edges": [[1, 10], [2, 4], [3, 5], [7, 9]]}
EXPANSION = {"r": 7, "edges": [[3, 4], [2, 7]]}
SIX_EDGE = {"r": 9, "edges": [[1, 5], [1, 8], [2, 9], [3, 6], [4, 7], [5, 9]]}


class TestLoadSpec:
    def test_normalizes_on_load(self, spec_file):
        spec = load_spec(spec_file(EXPANSION))
        assert spec == normalize_spec(7, [(2, 7), (3, 4)])

    def test_malformed_json(self, spec_file):
        from chainreg.errors import ParseError

        with pytest.raises(ParseError):
            load_spec(spec_file("{not json"))
        with pytest.raises(ParseError):
            load_spec(spec_file({"edges": [[1, 2]]}))
        with pytest.raises(ParseError):
            load_spec(spec_file({"r": 3, "edges": [[1, "a"]]}))

    def test_undecodable_bytes_exit_2(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_bytes(b'\xff{"r": 2}')
        assert main(["classify", str(path)]) == 2
        assert "ParseError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [{"r": 3, "edges": [[True, 3], [2, 3]]}, {"r": True, "edges": [[1, 2]]}],
    )
    def test_booleans_are_not_integers(self, spec_file, payload, capsys):
        assert main(["expand", spec_file(payload), "--n", "4"]) == 2
        assert "ParseError" in capsys.readouterr().err


class TestExpandCommand:
    def test_text_output(self, spec_file, capsys):
        assert main(["expand", spec_file(EXPANSION), "--n", "9"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "G_9: 12 edges"
        assert lines[1:] == [
            "2 7", "2 8", "2 9", "3 4", "3 5", "3 6",
            "3 8", "3 9", "4 5", "4 6", "4 9", "5 6",
        ]

    def test_json_round_trip(self, spec_file, capsys):
        assert main(["expand", spec_file(EXPANSION), "--n", "9", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        respec = normalize_spec(data["n"], [tuple(e) for e in data["edges"]])
        assert set(respec.edges) == {tuple(e) for e in data["edges"]}

    def test_below_stability_is_invalid_input(self, spec_file, capsys):
        assert main(["expand", spec_file(EXPANSION), "--n", "5"]) == 2
        assert "IndexBelowStability" in capsys.readouterr().err


class TestClassifyCommand:
    def test_golden_json(self, spec_file, capsys):
        assert main(["classify", spec_file(TABLE), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {
            "limit_reg": 2,
            "case": "jq-is-max",
            "n0": 30,
            "N": 288,
            "coarse": 300,
            "limit_indmatch": 1,
            "reduced_r": 10,
        }


class TestRegCommand:
    def test_value_line(self, spec_file, capsys):
        assert main(["reg", spec_file(TABLE), "--n", "10"]) == 0
        out = capsys.readouterr().out
        assert "reg(G_10) = 5" in out

    def test_field_flag(self, spec_file, capsys):
        assert main(["reg", spec_file(TABLE), "--n", "12", "--field", "3", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"] == 3 and data["field_char"] == 3


class TestIndmatchCommand:
    def test_witness(self, spec_file, capsys):
        assert main(["indmatch", spec_file(TABLE), "--n", "10", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["indmatch"] == 4
        assert data["witness"] == [[1, 10], [2, 4], [3, 5], [7, 9]]


class TestAnticycleCommand:
    def test_golden_trace_json(self, spec_file, capsys):
        assert main(["anticycle", spec_file(SIX_EDGE), "--n", "18", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {
            "case": "I",
            "J": [[4, 5], [1]],
            "K": [[4, 5], [6]],
            "u": [4, 1],
            "v": [5, 6],
            "beta": 2,
            "gamma": 2,
            "vertices": [1, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 27],
        }

    def test_hypothesis_failure_exit(self, spec_file, capsys):
        path = spec_file({"r": 9, "edges": [[1, 9], [6, 8]]})
        assert main(["anticycle", path, "--n", "20"]) == 1
        assert "HypothesisViolated" in capsys.readouterr().err


class TestQuasisatCommand:
    def test_json_derived_round_trip(self, spec_file, capsys):
        assert main(["quasisat", spec_file(TABLE), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["quasi_saturated"] is False
        derived = data["derived"]
        respec = normalize_spec(derived["r"], [tuple(e) for e in derived["edges"]])
        assert respec.to_json() == derived

    def test_text(self, spec_file, capsys):
        path = spec_file({"r": 2, "edges": [[1, 2]]})
        assert main(["quasisat", path]) == 0
        assert capsys.readouterr().out.strip() == "quasi-saturated: true"


class TestSweepCommand:
    def test_spec_round_trip_and_rows(self, spec_file, capsys):
        path = spec_file({"r": 2, "edges": [[2, 1]]})
        assert main(["sweep", path, "--from", "2", "--to", "6", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        respec = normalize_spec(data["spec"]["r"], [tuple(e) for e in data["spec"]["edges"]])
        assert respec.to_json() == data["spec"]
        assert [row["reg"] for row in data["rows"]] == [2, 2, 2, 2, 2]
        assert data["violations"] == []


class TestErrors:
    def test_invalid_input_exit_codes(self, spec_file, capsys):
        assert main(["expand", spec_file("{oops"), "--n", "4"]) == 2
        assert "ParseError" in capsys.readouterr().err
        assert main(["expand", spec_file({"r": 3, "edges": []}), "--n", "4"]) == 2
        assert "EmptyEdgeSet" in capsys.readouterr().err
        assert main(["expand", spec_file({"r": 3, "edges": [[1, 7]]}), "--n", "4"]) == 2
        assert "EdgeOutOfRange" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, argv",
        [
            (TABLE, ["reg", "--n", "10", "--field", "4"]),
            (TABLE, ["sweep", "--from", "30", "--to", "31", "--field", "4"]),
            (TABLE, ["sweep", "--from", "9", "--to", "12"]),
            (EXPANSION, ["expand", "--n", "10001"]),
            ({"r": 0, "edges": [[1, 2]]}, ["expand", "--n", "4"]),
            (TABLE, ["reg", "--n", "12", "--oracle-cap", "-1"]),
            (TABLE, ["sweep", "--from", "10", "--to", "12", "--oracle-cap", "-1"]),
        ],
        ids=[
            "non-prime-field",
            "sweep-non-prime-field-past-oracle-cap",
            "sweep-below-r",
            "past-materialize-limit",
            "r-below-one",
            "reg-negative-oracle-cap",
            "sweep-negative-oracle-cap",
        ],
    )
    def test_invalid_arguments_exit_2(self, spec_file, payload, argv, capsys):
        verb, *rest = argv
        assert main([verb, spec_file(payload), *rest]) == 2
        assert "InvalidArgument" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, argv, error",
        [
            (TABLE, ["indmatch", "--n", "9"], "IndexBelowStability"),
            (TABLE, ["reg", "--n", "9"], "IndexBelowStability"),
            (SIX_EDGE, ["anticycle", "--n", "17"], "IndexTooSmall"),
        ],
        ids=["indmatch-below-r", "reg-below-r", "anticycle-below-2r"],
    )
    def test_index_too_small_exit_2(self, spec_file, payload, argv, error, capsys):
        verb, *rest = argv
        assert main([verb, spec_file(payload), *rest]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert error in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_expand_refuses_past_edge_list_limit(self, spec_file, fmt, capsys):
        # One generator at n = 10000 gives 49,995,000 edges: the rows are
        # cheap, but listing them as pairs would not be.
        argv = ["expand", spec_file({"r": 2, "edges": [[1, 2]]}), "--n", "10000", "--format", fmt]
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert code == 2
        assert "InvalidArgument" in err and "49995000 edges" in err
        assert out == ""
        assert elapsed < 5.0

    def test_sweep_refuses_past_materialize_limit_before_any_row(self, spec_file, capsys):
        # Each row near n = 5000 takes about 0.1 s, so a check made only when
        # G_10001 is reached would first spend minutes on the rows below it.
        argv = ["sweep", spec_file(SIX_EDGE), "--from", "30", "--to", "10001"]
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert code == 2
        assert "InvalidArgument" in err and "10001" in err
        assert out == ""
        assert elapsed < 1.0

    def test_internal_value_error_is_not_user_error(self, spec_file, monkeypatch):
        def broken(spec, n):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "expand", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["expand", spec_file(EXPANSION), "--n", "9"])

    def test_internal_value_error_exits_1(self, spec_file):
        code = (
            "import sys\n"
            "from chainreg import cli\n"
            "def broken(spec, n):\n"
            "    raise ValueError('internal fault')\n"
            "cli.expand = broken\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), *sys.path])}
        argv = ["expand", spec_file(EXPANSION), "--n", "9"]
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 1
        assert "ValueError: internal fault" in proc.stderr

    def test_missing_flag_is_usage_error(self, spec_file):
        with pytest.raises(SystemExit) as exc:
            main(["expand", spec_file(TABLE)])
        assert exc.value.code == 2


class TestGenerateRandomSpec:
    def test_single_possible_edge(self):
        from chainreg import generate_random_spec, normalize_spec

        for seed in (0, 1, 42):
            assert generate_random_spec(2, 1.0, seed) == normalize_spec(2, [(1, 2)])

    def test_full_density_takes_every_pair(self):
        from chainreg import generate_random_spec

        spec = generate_random_spec(4, 1.0, seed=5)
        assert len(spec.edges) == 6

    def test_deterministic_per_seed(self):
        from chainreg import generate_random_spec, normalize_spec

        a = generate_random_spec(5, 0.3, seed=42)
        assert a == generate_random_spec(5, 0.3, seed=42)
        # Mersenne Twister output is stable, so the draw itself can be pinned.
        assert a == normalize_spec(5, [(1, 3), (1, 4), (1, 5), (3, 4), (4, 5)])

    def test_validation(self):
        from chainreg import generate_random_spec

        with pytest.raises(ValueError):
            generate_random_spec(1, 0.5, seed=0)
        with pytest.raises(ValueError):
            generate_random_spec(4, 0.0, seed=0)
        with pytest.raises(ValueError):
            generate_random_spec(4, 1.5, seed=0)


class TestVerifyCommand:
    def test_wiring(self, monkeypatch, capsys):
        calls = {}

        def fake_run_suite(suite, seed=None):
            calls["suite"] = suite
            calls["seed"] = seed
            return suite == "golden"

        monkeypatch.setattr(cli, "run_suite", fake_run_suite)
        assert main(["verify", "--suite", "golden", "--seed", "7"]) == 0
        assert calls == {"suite": "golden", "seed": 7}
        assert main(["verify", "--suite", "properties"]) == 1

    def test_run_suite_reports_failures(self, monkeypatch, capsys):
        from chainreg import verify as verify_mod

        def cold():
            return "fine"

        def broken():
            raise AssertionError("boom")

        monkeypatch.setattr(verify_mod, "GOLDEN_CHECKS", (("ok", cold), ("bad", broken)))
        ok = verify_mod.run_suite("golden")
        out = capsys.readouterr().out
        assert not ok
        assert "PASS ok: fine" in out
        assert "FAIL bad: boom" in out


REPO = Path(__file__).resolve().parent.parent
GOLDEN_SPECS = sorted((REPO / "bench" / "specs").glob("*.json"))
GOLDEN_COMMANDS = {
    "expand": ["--n", "30"],
    "indmatch": ["--n", "12"],
    "classify": [],
    "sweep": ["--from", "30", "--to", "33"],
}


class TestGoldenSnapshots:
    """The output on the golden chains, byte for byte, against snapshots in
    tests/golden/: JSON named <chain>.<command>.json, or <chain>.anticycle.<n>.json
    for the anticycle construction, which applies to two of the chains; the
    anticycle text output as <chain>.anticycle.<n>.txt; the table chain's
    sweep with every row through the oracle as table.sweep.oracle.json; and
    the report of ``verify --suite all`` as verify.all.txt."""

    def test_every_golden_chain_is_covered(self):
        assert [p.stem for p in GOLDEN_SPECS] == ["near_sharp", "reg3", "six_edge", "table"]

    @pytest.mark.parametrize("verb", sorted(GOLDEN_COMMANDS))
    @pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=lambda p: p.stem)
    def test_json_output_is_unchanged(self, spec, verb, capsys):
        argv = [verb, str(spec), *GOLDEN_COMMANDS[verb], "--format", "json"]
        assert main(argv) == 0
        want = (REPO / "tests" / "golden" / f"{spec.stem}.{verb}.json").read_text()
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("n", [18, 19, 20])
    @pytest.mark.parametrize("chain", ["reg3", "six_edge"])
    def test_anticycle_json_is_unchanged(self, chain, n, capsys):
        spec = REPO / "bench" / "specs" / f"{chain}.json"
        assert main(["anticycle", str(spec), "--n", str(n), "--format", "json"]) == 0
        want = (REPO / "tests" / "golden" / f"{chain}.anticycle.{n}.json").read_text()
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("chain", ["reg3", "six_edge"])
    def test_anticycle_text_is_unchanged(self, chain, capsys):
        spec = REPO / "bench" / "specs" / f"{chain}.json"
        assert main(["anticycle", str(spec), "--n", "18"]) == 0
        want = (REPO / "tests" / "golden" / f"{chain}.anticycle.18.txt").read_text()
        assert capsys.readouterr().out == want

    def test_sweep_through_the_oracle_is_unchanged(self, capsys):
        # An oracle cap of 34 sends rows 10..34 to the oracle, below and past n0 = 30.
        spec = REPO / "bench" / "specs" / "table.json"
        argv = ["sweep", str(spec), "--from", "10", "--to", "34", "--oracle-cap", "34"]
        assert main([*argv, "--format", "json"]) == 0
        want = (REPO / "tests" / "golden" / "table.sweep.oracle.json").read_text()
        assert capsys.readouterr().out == want

    def test_verify_report_is_unchanged(self, capsys):
        assert main(["verify", "--suite", "all"]) == 0
        want = (REPO / "tests" / "golden" / "verify.all.txt").read_text()
        assert capsys.readouterr().out == want
