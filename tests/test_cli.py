"""Command-line front end: output shapes, exit codes, round-trips."""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from chainreg import cli, construct_anticycle, expand, normalize_spec
from chainreg.cli import load_spec, main
from chainreg.errors import InvalidArgument

from conftest import GOLDEN_CHAINS, random_specs
from golden_cases import GOLDEN_CASES, GOLDEN_CHAIN_NAMES, GOLDEN_COMMANDS


@pytest.fixture
def spec_file(tmp_path):
    def write(payload, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
        return str(path)

    return write


TABLE = GOLDEN_CHAINS["table"].to_json()
EXPANSION = {"r": 7, "edges": [[3, 4], [2, 7]]}
SIX_EDGE = GOLDEN_CHAINS["six_edge"].to_json()


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

    @pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing-file", "directory"])
    def test_unreadable_path_exit_2(self, tmp_path, capsys, name):
        assert main(["classify", str(tmp_path / name)]) == 2
        assert "ParseError: cannot read spec file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [{"r": 3, "edges": [[True, 3], [2, 3]]}, {"r": True, "edges": [[1, 2]]}],
    )
    def test_booleans_are_not_integers(self, spec_file, payload, capsys):
        assert main(["expand", spec_file(payload), "--n", "4"]) == 2
        assert "ParseError" in capsys.readouterr().err


class TestExpandCommand:
    def test_json_round_trip(self, spec_file, capsys):
        assert main(["expand", spec_file(EXPANSION), "--n", "9", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        respec = normalize_spec(data["n"], [tuple(e) for e in data["edges"]])
        assert set(respec.edges) == {tuple(e) for e in data["edges"]}

    @staticmethod
    def batch_cases():
        """41 seeded (spec, n), every fourth at n = r; expand writes in
        batches of 4096, and the last, one generator at n = 100, gives 4,950
        edges, across a batch boundary."""
        specs = [*random_specs(40, (2, 3, 5, 8), seed=2207), normalize_spec(2, [(1, 2)])]
        return [(spec, 100 if k == 40 else spec.r + k % 4) for k, spec in enumerate(specs)]

    def test_json_is_the_indented_encoders_text(self, spec_file, capsys):
        for spec, n in self.batch_cases():
            argv = ["expand", spec_file(spec.to_json()), "--n", str(n), "--format", "json"]
            assert main(argv) == 0
            payload = {"n": n, "edges": expand(spec, n).sorted_edges()}
            assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n", (spec, n)
        empty = {"n": 3, "edges": []}
        assert "".join(cli._json_chunks(empty)) == json.dumps(empty, indent=2)

    def test_text_is_the_per_line_rendering(self, spec_file, capsys):
        for spec, n in self.batch_cases():
            assert main(["expand", spec_file(spec.to_json()), "--n", str(n)]) == 0
            edges = expand(spec, n).sorted_edges()
            lines = [f"G_{n}: {len(edges)} edges", *(f"{u} {v}" for u, v in edges)]
            assert capsys.readouterr().out == "".join(f"{line}\n" for line in lines), (spec, n)

    def test_below_stability_is_invalid_input(self, spec_file, capsys):
        assert main(["expand", spec_file(EXPANSION), "--n", "5"]) == 2
        assert "IndexBelowStability" in capsys.readouterr().err

    def test_json_peak_memory_matches_text_in_fresh_process(self, spec_file):
        # G_700 of one generator has 244,650 edges.  Built as one string,
        # the indented JSON took about 2.5x the text path's peak.
        launcher = (
            "import resource, subprocess, sys\n"
            "subprocess.run([sys.executable, '-m', 'chainreg.cli', *sys.argv[1:]],\n"
            "               stdout=subprocess.DEVNULL, check=True)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), *sys.path])}
        spec = spec_file({"r": 2, "edges": [[1, 2]]})
        peak_kb = {}
        for fmt in ("text", "json"):
            proc = subprocess.run(
                [sys.executable, "-c", launcher, "expand", spec, "--n", "700", "--format", fmt],
                env=env,
                capture_output=True,
                text=True,
                check=True,
                timeout=120,
            )
            peak_kb[fmt] = int(proc.stdout)
        assert peak_kb["json"] <= 1.3 * peak_kb["text"], peak_kb


class TestRegCommand:
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

    def test_thousand_edge_matching(self, spec_file, capsys):
        edges = [[2 * i + 1, 2 * i + 2] for i in range(1000)]
        spec = spec_file({"r": 2000, "edges": edges})
        assert main(["indmatch", spec, "--n", "2000", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["indmatch"] == 1000 and data["witness"] == edges


class TestAnticycleCommand:
    def test_hypothesis_failure_exit(self, spec_file, capsys):
        path = spec_file({"r": 9, "edges": [[1, 9], [6, 8]]})
        assert main(["anticycle", path, "--n", "20"]) == 1
        assert "HypothesisViolated" in capsys.readouterr().err

    def test_failed_self_check_is_a_program_fault(self, spec_file, ex58_spec, monkeypatch):
        # construct_anticycle verifies its own witness and fails closed.  The
        # RuntimeError is no input error, so main lets it through and the
        # process exits 1, not 2.
        monkeypatch.setattr("chainreg.anticycle.verify_anticycle", lambda g, w: False)
        with pytest.raises(RuntimeError, match="failed anticycle verification"):
            construct_anticycle(ex58_spec, 18)
        with pytest.raises(RuntimeError, match="failed anticycle verification"):
            main(["anticycle", spec_file(SIX_EDGE), "--n", "18"])


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

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_violations_exit_1(self, spec_file, fmt, monkeypatch, capsys):
        real = cli.sweep_verify

        def violating(*args, **kwargs):
            report = real(*args, **kwargs)
            report["rows"][0]["flag"] = True
            report["violations"] = [report["rows"][0]["n"]]
            return report

        monkeypatch.setattr(cli, "sweep_verify", violating)
        path = spec_file({"r": 2, "edges": [[2, 1]]})
        assert main(["sweep", path, "--from", "2", "--to", "3", "--format", fmt]) == 1
        out = capsys.readouterr().out
        if fmt == "json":
            assert json.loads(out)["violations"] == [2]
        else:
            assert "VIOLATION" in out and out.endswith("violations at n = [2]\n")


class TestErrors:
    @pytest.mark.parametrize(
        "payload, err",
        [
            ({"r": 5, "edges": [[7, 2]]}, "EdgeOutOfRange: edge (2, 7) leaves [1, 5]\n"),
            ({"r": 5, "edges": []}, "EmptyEdgeSet: a chain needs at least one generator edge\n"),
        ],
        ids=["reversed-out-of-range", "empty"],
    )
    def test_bad_presentation_message(self, spec_file, payload, err, capsys):
        # ChainSpec's check names the oriented edge.
        assert main(["expand", spec_file(payload), "--n", "9"]) == 2
        assert capsys.readouterr() == ("", err)

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

    @pytest.mark.parametrize(
        "payload, argv, vertices",
        [
            ({"r": 1_000_000, "edges": [[1, 1_000_000]]}, ["classify"], 1_000_000),
            # Irreducible, so limit_indmatch expands G_{3r}.
            ({"r": 4000, "edges": [[1, 4000]]}, ["classify"], 12_000),
            (SIX_EDGE, ["anticycle", "--n", "1000000000"], 1_000_000_009),
        ],
        ids=["classify-r-past-limit", "classify-3r-past-limit", "anticycle-n-past-limit"],
    )
    def test_refuses_past_materialize_limit_before_any_work(self, spec_file, payload, argv, vertices):
        # A packed matrix of G_r, or the anticycle's O(n) ladder walk, would
        # need gigabytes here; under a 1 GB address space either one fails
        # with a MemoryError instead of the refusal.
        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        verb, *rest = argv
        code = "import sys\nfrom chainreg.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), *sys.path])}
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code, verb, spec_file(payload), *rest],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=limit_address_space,
        )
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert proc.stderr == (
            f"InvalidArgument: refusing to materialize {vertices} vertices, "
            "past the limit of 10000\n"
        )
        assert elapsed < 2.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["reg", "--n", "8"],
            ["sweep", "--from", "8", "--to", "8"],
        ],
        ids=["reg", "sweep"],
    )
    def test_large_field_refused_before_trial_division(self, argv):
        # Trial division of the prime 2^61 - 1 would run for minutes.
        verb, *rest = argv
        spec = str(REPO / "bench" / "specs" / "reg3.json")
        code = "import sys\nfrom chainreg.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), *sys.path])}
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code, verb, spec, *rest, "--field", str(2**61 - 1)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert proc.stderr == (
            f"InvalidArgument: field characteristic must be below 2^31, got {2**61 - 1}\n"
        )
        assert elapsed < 2.0

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

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_closed_stdout_exits_1_without_traceback(self, fmt):
        # G_300 lists 44,537 edges, far more than a pipe holds, so the reader
        # closes the pipe while the command is still writing.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), *sys.path])}
        spec = str(REPO / "bench" / "specs" / "table.json")
        proc = subprocess.Popen(
            [sys.executable, "-m", "chainreg", "expand", spec, "--n", "300", "--format", fmt],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err, err

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

        for r_max, density in ((1, 0.5), (4, 0.0), (4, 1.5)):
            with pytest.raises(InvalidArgument):
                generate_random_spec(r_max, density, seed=0)


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

    def test_seed_sets_the_base_of_each_check(self, monkeypatch, capsys):
        # --seed names the base seed, so the frozen one draws a plain run's pools.
        from chainreg import verify as verify_mod

        seeds = []
        real = verify_mod.spec_pool

        def recording_pool(count, rs, seed):
            seeds.append(seed)
            return real(count, rs, seed)

        monkeypatch.setattr(verify_mod, "spec_pool", recording_pool)
        main(["verify", "--suite", "properties"])
        plain, seeds[:] = list(seeds), []
        main(["verify", "--suite", "properties", "--seed", str(verify_mod.BASE_SEED)])
        assert len(plain) == 5 and seeds == plain

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

    def test_unknown_suite_is_invalid_argument(self, capsys):
        from chainreg import verify as verify_mod

        with pytest.raises(InvalidArgument, match="unknown suite 'smoke'"):
            verify_mod.run_suite("smoke")
        assert capsys.readouterr().out == ""

    def test_corrupted_golden_value_fails_under_optimisation(self):
        # python -O strips assert statements, so the checks raise their own
        # AssertionError: a corrupted golden value still fails.
        code = (
            "from chainreg import verify\n"
            "verify.TABLE_REGS[0] = 99\n"
            "print(verify.run_suite('golden'))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), *sys.path])}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        lines = proc.stdout.splitlines()
        assert lines[2].startswith("FAIL golden-regularity-table: GF(2) table mismatch"), lines
        assert lines[-1] == "False", lines

    def test_golden_chains_are_the_spec_files(self):
        from chainreg import verify as verify_mod

        assert verify_mod.TABLE_CHAIN == GOLDEN_CHAINS["table"]
        assert verify_mod.NEAR_SHARP_CHAIN == GOLDEN_CHAINS["near_sharp"]
        assert verify_mod.REG3_CHAIN == GOLDEN_CHAINS["reg3"]
        assert verify_mod.SIX_EDGE_CHAIN == GOLDEN_CHAINS["six_edge"]

    def test_runs_as_a_module(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), *sys.path])}
        proc = subprocess.run(
            [sys.executable, "-m", "chainreg", "verify", "--suite", "golden"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        golden = (REPO / "tests" / "golden" / "verify.all.txt").read_text().splitlines()
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == golden[:6]


REPO = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO / "tests" / "golden"


# The snapshots of the per-chain matrix: every golden chain runs every command
# of GOLDEN_COMMANDS, in JSON and in text.  The special entries are the rest.
MATRIX_CASES = {
    f"{chain}.{verb}.{suffix}"
    for chain in GOLDEN_CHAIN_NAMES
    for verb in GOLDEN_COMMANDS
    for suffix in ("json", "txt")
}


class TestGoldenSnapshots:
    """The output on the golden chains, byte for byte, against the snapshots
    in tests/golden/: one case per entry of ``golden_cases.GOLDEN_CASES``,
    whose argv names spec files relative to the repository root.  The
    per-chain matrix and the special entries, each commented beside its
    entry, are the two parametrized tests below."""

    @pytest.fixture(autouse=True)
    def _from_the_root(self, monkeypatch):
        monkeypatch.chdir(REPO)

    @staticmethod
    def _check(name, capsys):
        assert main(GOLDEN_CASES[name]) == 0
        assert capsys.readouterr().out == (GOLDEN_DIR / name).read_text()

    def test_every_golden_chain_is_covered(self):
        assert GOLDEN_CHAIN_NAMES == ["near_sharp", "reg3", "six_edge", "table"]

    def test_every_snapshot_has_a_case(self):
        # A snapshot missing from the list, or an entry with no snapshot.
        assert sorted(GOLDEN_CASES) == sorted(p.name for p in GOLDEN_DIR.iterdir())
        assert MATRIX_CASES <= set(GOLDEN_CASES)

    # Case ids: <chain>-<verb> for JSON, <chain>-<verb>-text for text.
    @pytest.mark.parametrize(
        "verb, suffix",
        [
            pytest.param(verb, suffix, id=verb if suffix == "json" else f"{verb}-text")
            for verb in sorted(GOLDEN_COMMANDS)
            for suffix in ("json", "txt")
        ],
    )
    @pytest.mark.parametrize("chain", GOLDEN_CHAIN_NAMES)
    def test_json_output_is_unchanged(self, chain, verb, suffix, capsys):
        self._check(f"{chain}.{verb}.{suffix}", capsys)

    # Case ids: the snapshot's file name.
    @pytest.mark.parametrize("name", sorted(set(GOLDEN_CASES) - MATRIX_CASES))
    def test_output_is_unchanged(self, name, capsys):
        self._check(name, capsys)
