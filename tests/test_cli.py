import ast
import os
import shutil
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from ipdyn import cli, config, dynamics
from ipdyn.config import ParseError, ValidationError, parse_config

CHACON_PREAMBLE = """
[system chacon]
kind = substitution
rules = 0 -> 0010; 1 -> 1
seeds = 0

[set U]
system = chacon
word = 0

[set V]
system = chacon
word = 0

[set V2]
system = chacon
word = 00

[poly p1]
expr = n

[poly p2]
expr = 2n
"""


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseConfig:
    def test_minimal_valid(self):
        cfg = parse_config(
            CHACON_PREAMBLE
            + """
[run]
system = chacon
u = U
v = V
window = 100
"""
        )
        assert "chacon" in cfg.systems
        assert cfg.run["window"] == "100"

    def test_undefined_set_named(self):
        with pytest.raises(ValidationError, match="V9"):
            parse_config(
                CHACON_PREAMBLE
                + """
[run]
system = chacon
u = U
v = V9
window = 10
"""
            )

    def test_non_integral_polynomial_names_section(self):
        with pytest.raises(ValidationError, match=r"\[poly bad\]"):
            parse_config(
                """
[poly bad]
expr = n/2
"""
            )

    def test_syntax_errors_name_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_config("[run]\nnot a key value\n")
        with pytest.raises(ParseError, match="unclosed"):
            parse_config("[run\n")
        with pytest.raises(ParseError, match="outside"):
            parse_config("key = value\n")

    def test_inadmissible_word_rejected(self):
        with pytest.raises(ValidationError, match="admissible"):
            parse_config(
                """
[system chacon]
kind = substitution
rules = 0 -> 0010; 1 -> 1

[set W]
system = chacon
word = 11
"""
            )


def run_cli(args):
    return cli.main(args)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestSubcommands:
    def test_return_set_csv_schema(self, tmp_path):
        cfg = write_config(
            tmp_path,
            CHACON_PREAMBLE + "\n[run]\nsystem = chacon\nu = U\nv = V\nwindow = 20\n",
        )
        out = tmp_path / "out"
        assert run_cli(["return-set", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "return-set.csv").read_text().splitlines()
        assert lines[0] == "n,member"
        assert len(lines) == 42
        ns = [int(row.split(",")[0]) for row in lines[1:]]
        assert ns == sorted(ns) and ns[0] == -20 and ns[-1] == 20
        assert all(row.split(",")[1] in {"0", "1"} for row in lines[1:])

    def test_whole_space_fills_window(self, tmp_path):
        cfg = write_config(
            tmp_path,
            """
[system chacon]
kind = substitution
rules = 0 -> 0010; 1 -> 1

[set E]
system = chacon
word =

[run]
system = chacon
u = E
v = E
window = 5
""",
        )
        out = tmp_path / "out"
        assert run_cli(["return-set", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "return-set.csv").read_text().splitlines()[1:]
        assert all(row.endswith(",1") for row in rows)

    def test_pet_trace_first_reduction(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[gamma-system S]\nmembers = T1^{n^2}; T1^{2n^2}\n\n[run]\ngamma-system = S\n",
        )
        out = tmp_path / "out"
        assert run_cli(["pet-trace", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "pet-trace.txt").read_text()
        assert "{T1^{2n}; T1^{n^2 + 4n}}" in text
        assert "(2(1,2))" in text

    def test_weights_inline(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            [
                "weights",
                "--members",
                "T1^{n}; T2^{n}; T1^{n} * T2^{n^3}",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        csv_text = (out / "weights.csv").read_text()
        assert "T1^{n},1,1" in csv_text
        assert "T1^{n} * T2^{n^3},2,3" in csv_text

    def test_fs_generators_flag(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["fs", "--generators", "1,2,4", "--out", str(out)]) == 0
        lines = (out / "fs.csv").read_text().splitlines()
        assert lines[0] == "alpha,value"
        assert len(lines) == 8
        assert "1|2,3" in lines

    def test_fs_labels_match_the_sorted_index_sets(self, tmp_path):
        for gens in ([7], [1, 3, 9], [2, 2, 5, 1], list(range(1, 12))):
            out = tmp_path / str(len(gens))
            text = ",".join(map(str, gens))
            assert run_cli(["fs", "--generators", text, "--out", str(out)]) == 0
            rows = (out / "fs.csv").read_text().splitlines()[1:]
            picked = [
                [i for i in range(len(gens)) if mask >> i & 1]
                for mask in range(1, 1 << len(gens))
            ]
            want = [
                f"{'|'.join(str(i + 1) for i in alpha)},{sum(gens[i] for i in alpha)}"
                for alpha in picked
            ]
            assert rows == want

    def test_hindman_verified(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            ["hindman", "--N", "5", "--r", "2", "--depth", "2", "--all",
             "--out", str(out)]
        )
        assert code == 0
        assert "Verified" in (out / "hindman.txt").read_text()

    def test_hindman_failing_coloring(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            ["hindman", "--N", "4", "--r", "2", "--depth", "2", "--all",
             "--out", str(out)]
        )
        assert code == 0
        assert "0,1,1,0" in (out / "hindman.csv").read_text()

    def test_hindman_huge_count_is_not_built(self, tmp_path):
        # 3**10**7 has 4.8 million digits: the power alone takes seconds
        out = tmp_path / "out"
        start = time.perf_counter()
        code = run_cli(
            ["hindman", "--N", "10000000", "--r", "3", "--depth", "2", "--all",
             "--out", str(out)]
        )
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert "(3^10000000 colorings checked)" in (out / "hindman.txt").read_text()
        assert "verified,colorings=3^10000000" in (out / "hindman.csv").read_text()

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="no int-to-str digit limit",
    )
    def test_power_text_switches_past_the_int_to_str_limit(self):
        digits = sys.get_int_max_str_digits()
        assert cli._power_text(10, digits - 1) == "1" + "0" * (digits - 1)
        assert cli._power_text(10, digits) == f"10^{digits}"
        # 2**exp < 10**digits < 2**(exp + 1): the last power of 2 that fits
        exp = (10**digits).bit_length() - 1
        assert cli._power_text(2, exp) == str(2**exp)
        assert cli._power_text(2, exp + 1) == f"2^{exp + 1}"
        assert cli._power_text(1, 10**9) == "1"

    def test_density_predicate(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            ["density", "--predicate", "evens", "--lo", "0", "--hi", "100",
             "--length", "10", "--out", str(out)]
        )
        assert code == 0
        assert "10,1/2,1/2" in (out / "density.csv").read_text()

    def test_density_csv_source(self, tmp_path):
        data = tmp_path / "set.csv"
        data.write_text("1\n3\n5\n")
        out = tmp_path / "out"
        code = run_cli(
            ["density", "--csv-path", str(data), "--lo", "0", "--hi", "8",
             "--length", "4", "--out", str(out)]
        )
        assert code == 0

    def test_poly_return_and_mixing_report(self, tmp_path):
        cfg = write_config(
            tmp_path,
            CHACON_PREAMBLE
            + """
[fs F1]
generators = 1, 3, 9

[fs F2]
generators = 2, 5

[run]
system = chacon
u = U
vs = V, V2
polys = p1, p2
window = 60
truncations = F1, F2
""",
        )
        out = tmp_path / "out"
        assert run_cli(["poly-return", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "poly-return.csv").exists()
        assert run_cli(["mixing-report", "--config", cfg, "--out", str(out)]) == 0
        report = (out / "mixing-report.csv").read_text().splitlines()
        assert report[0] == "truncation,status,alpha,value"
        assert len(report) == 3
        assert report[1].startswith("F1,") and report[2].startswith("F2,")

    def test_lemma213(self, tmp_path):
        cfg = write_config(
            tmp_path,
            """
[system chacon]
kind = substitution
rules = 0 -> 0010; 1 -> 1

[set V]
system = chacon
word = 0

[gamma g]
expr = T1^{n}

[run]
system = chacon
vs = V
gammas = g
depth = 2
window = 200
""",
        )
        out = tmp_path / "out"
        assert run_cli(["lemma213", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "lemma213.txt").read_text()
        assert "containments verified = True" in text


class TestExitCodes:
    def test_hypothesis_violation_is_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            CHACON_PREAMBLE
            + """
[poly c]
expr = 3

[run]
system = chacon
u = U
vs = V
polys = c
window = 10
""",
        )
        assert run_cli(["poly-return", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_window_error_is_3(self, tmp_path):
        cfg = write_config(
            tmp_path,
            CHACON_PREAMBLE
            + """
[poly q]
expr = n^2

[run]
system = chacon
u = U
vs = V
polys = q
window = 500
""",
        )
        assert run_cli(["poly-return", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_config_error_is_1(self, tmp_path):
        cfg = write_config(tmp_path, "[run\n")
        assert run_cli(["return-set", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        rotation = write_config(
            tmp_path,
            "[system rot]\nkind = rotation\nq = 7\np = 3\n",
            name="rot.cfg",
        )
        assert run_cli(["return-set", "--config", rotation, "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("bound", ["0", "-5"])
    def test_word_bound_below_one_is_1(self, tmp_path, capsys, bound):
        cfg = write_config(
            tmp_path,
            CHACON_PREAMBLE.replace("seeds = 0", f"seeds = 0\nmax-word-length = {bound}")
            + "\n[run]\nsystem = chacon\nu = U\nv = V\nwindow = 10\n",
        )
        assert run_cli(["return-set", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "max word length must be >= 1" in capsys.readouterr().err

    def test_empty_seed_list_is_1(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            CHACON_PREAMBLE.replace("seeds = 0", "seeds = ,")
            + "\n[run]\nsystem = chacon\nu = U\nv = V\nwindow = 10\n",
        )
        assert run_cli(["return-set", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert (
            "section [system chacon]: at least one seed is required"
            in capsys.readouterr().err
        )

    def test_out_naming_a_file_is_1(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run_cli(["fs", "--generators", "1", "--out", str(taken)]) == 1
        assert "error: cannot create output directory" in capsys.readouterr().err

    def test_missing_config_is_1(self, tmp_path):
        assert (
            run_cli(
                ["return-set", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "o")]
            )
            == 1
        )

    def test_unverified_chain_is_4(self, tmp_path, monkeypatch):
        verify_chain = dynamics.verify_chain
        monkeypatch.setattr(
            dynamics, "verify_chain",
            lambda *args, **kwargs: (False, verify_chain(*args, **kwargs)[1]),
        )
        out = tmp_path / "out"
        code = run_cli(
            ["lemma213", "--config", str(GOLDEN / "configs" / "lemma.cfg"),
             "--out", str(out)]
        )
        assert code == cli.EXIT_UNVERIFIED == 4
        assert "containments verified = False" in (out / "lemma213.txt").read_text()
        assert (out / "lemma213.csv").read_text().startswith(
            "level,cylinder,shift,contained\n"
        )

    def test_negative_chain_depth_is_1(self, tmp_path, capsys):
        cfg = str(GOLDEN / "configs" / "lemma.cfg")
        out = str(tmp_path / "o")
        assert run_cli(["lemma213", "--config", cfg, "--depth", "-1", "--out", out]) == 1
        assert "at least one level" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "n_max, colors, depth",
        [("5", "-1", "2"), ("5", "0", "2"), ("5", "2", "-1"), ("0", "2", "2")],
    )
    def test_hindman_size_below_one_is_1(self, tmp_path, capsys, n_max, colors, depth):
        argv = ["hindman", "--N", n_max, "--r", colors, "--depth", depth, "--all"]
        assert run_cli(argv + ["--out", str(tmp_path / "o")]) == 1
        assert "must be >= 1" in capsys.readouterr().err

    def test_zero_divisor_is_1(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert run_cli(["weights", "--members", "T1^{n/0}", "--out", out]) == 1
        cfg = write_config(tmp_path, CHACON_PREAMBLE + "\n[poly z]\nexpr = 1/0n\n")
        assert run_cli(["poly-return", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "division by zero in 'n/0'" in err
        assert "[poly z]: division by zero in '1/0n'" in err

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["fs", "--bogus"], 1),
            (["return-set", "--window", "x"], 1),
            (["hindman", "--N"], 1),
            ([], 1),
            (["bogus"], 1),
            (["--help"], 0),
            (["return-set", "--help"], 0),
        ],
    )
    def test_usage_error_is_1_and_help_is_0(self, capsys, argv, code):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == code
        out, err = capsys.readouterr()
        if code:
            assert err.startswith("usage: ipdyn") and ": error: " in err
        else:
            assert out.startswith("usage: ipdyn") and not err

    @pytest.mark.parametrize(
        "run, argv, message",
        [
            ("window = abc", ["return-set"], "parameter window: not an integer: 'abc'"),
            ("n-max = 4.5\ncolors = 2\ndepth = 2", ["hindman"],
             "parameter N: not an integer: '4.5'"),
            ("base-power = two\nshifts = 1", ["lemma213"],
             "parameter base-power: not an integer: 'two'"),
            # comma lists name their key too
            ("generators = 1,3,x", ["fs"], "parameter generators: not an integer: 'x'"),
            ("shifts = 2,y", ["lemma213"], "parameter shifts: not an integer: 'y'"),
            ("n-max = 2\ncolors = 2\ndepth = 1\ncoloring = 0,a", ["hindman"],
             "parameter coloring: not an integer: 'a'"),
        ],
    )
    def test_non_integer_value_names_its_key(self, tmp_path, capsys, run, argv, message):
        cfg = write_config(
            tmp_path,
            CHACON_PREAMBLE
            + "\n[gamma g]\nexpr = T1^{n}\n\n[run]\nsystem = chacon\nu = U\n"
            + "v = V\nvs = V\ngammas = g\n" + run + "\n",
        )
        assert run_cli(argv + ["--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_comma_lists_skip_blank_items(self, tmp_path):
        def files(coloring, out):
            argv = ["hindman", "--N", "4", "--r", "2", "--depth", "2"]
            assert run_cli(argv + ["--coloring", coloring, "--out", str(out)]) == 0
            return [(out / name).read_text() for name in ("hindman.txt", "hindman.csv")]

        assert files("0,1,,1, 0,", tmp_path / "a") == files("0,1,1,0", tmp_path / "b")

    def test_truncation_overflow_is_3(self, tmp_path):
        gens = ",".join(str(i) for i in range(1, 26))
        assert (
            run_cli(["fs", "--generators", gens, "--out", str(tmp_path / "o")])
            == 3
        )


# Command lines the one-subcommand parser and the full parser must treat
# alike: help, bad and missing values, abbreviations, stray tokens.
PARSER_CORPUS = [
    [], ["-h"], ["--help"], ["-h", "fs"], ["bogus"], ["return"], ["[]"],
    ["--", "fs"], ["fs", "[]"], ["fs", "--", "x"], ["fs", "--"], ["fs", "fs"],
    ["fs", "-h", "--bogus"], ["fs", "--bogus", "-h"], ["fs", "-x"],
    ["fs", "--out=o", "--config=c", "--generators=1,2"],
    ["fs", "--generators", "-1"], ["fs", "--config", "a", "--config", "b"],
    ["return-set", "--win", "7"], ["return-set", "--win", "x"],
    ["return-set", "--window=-5"], ["return-set", "--window", "1.5"],
    ["lemma213", "--de", "3", "--win", "x"], ["hindman", "--N", "-1", "--N"],
    ["hindman", "--d", "3"], ["hindman", "--all", "--all", "extra", "more"],
    ["density", "--lo", "1", "--lo", "x"], ["density", "--c", "a"],
    ["density", "--csv", "a"], ["weights", "--members", "--out", "o"],
    ["pet-trace", "--help", "--members"], ["poly-return", "-h", "x"],
] + [
    [name] + tail
    for name in cli._COMMANDS
    for tail in ([], ["-h"], ["--help"], ["--bogus"], ["--out"], ["extra"],
                 ["--", "extra"])
]


def parse_outcome(parse, argv):
    """Exit code (None when parsing returned), stdout, stderr and the
    parsed namespace of one parse."""
    stdout, stderr = StringIO(), StringIO()
    args = code = None
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            args = vars(parse(list(argv)))
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue(), args


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=" ".join)
def test_one_subcommand_parser_matches_the_full_parser(argv):
    # help wraps at the terminal width (COLUMNS); CI runs this at two
    full = parse_outcome(lambda a: cli._build_parser().parse_args(a), argv)
    assert parse_outcome(cli._parse, argv) == full
    assert full[0] in (None, cli.EXIT_OK, cli.EXIT_USAGE)


class TestDeterminism:
    def test_all_subcommands_byte_identical(self, tmp_path):
        shared = write_config(
            tmp_path,
            CHACON_PREAMBLE
            + """
[fs F1]
generators = 1, 3, 9

[fs F2]
generators = 2, 5

[gamma-system S]
members = T1^{n^2}; T1^{2n^2}

[gamma g]
expr = T1^{n}

[run]
system = chacon
u = U
v = V
vs = V, V2
polys = p1, p2
gammas = g
window = 40
truncations = F1, F2
gamma-system = S
generators = 1,3,9
""",
        )
        lemma_cfg = write_config(
            tmp_path,
            """
[system chacon]
kind = substitution
rules = 0 -> 0010; 1 -> 1

[set V]
system = chacon
word = 0

[gamma g]
expr = T1^{n}

[run]
system = chacon
vs = V
gammas = g
depth = 2
window = 150
""",
            name="lemma.cfg",
        )
        invocations = [
            (["pet-trace", "--config", shared], ["pet-trace.txt", "pet-trace.csv"]),
            (["weights", "--config", shared], ["weights.txt", "weights.csv"]),
            (["fs", "--config", shared], ["fs.txt", "fs.csv"]),
            (
                ["hindman", "--N", "5", "--r", "2", "--depth", "2", "--all"],
                ["hindman.txt", "hindman.csv"],
            ),
            (
                ["density", "--predicate", "evens", "--lo", "0", "--hi", "60",
                 "--length", "6"],
                ["density.txt", "density.csv"],
            ),
            (["return-set", "--config", shared], ["return-set.txt", "return-set.csv"]),
            (["poly-return", "--config", shared], ["poly-return.txt", "poly-return.csv"]),
            (["lemma213", "--config", lemma_cfg], ["lemma213.txt", "lemma213.csv"]),
            (
                ["mixing-report", "--config", shared],
                ["mixing-report.txt", "mixing-report.csv"],
            ),
        ]
        for args, artifacts in invocations:
            out_a = tmp_path / ("a-" + args[0])
            out_b = tmp_path / ("b-" + args[0])
            assert run_cli(args + ["--out", str(out_a)]) == 0
            assert run_cli(args + ["--out", str(out_b)]) == 0
            for name in artifacts:
                assert read_bytes(out_a / name) == read_bytes(out_b / name), name

    def test_csv_writer_empty_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        cli._write_csv(path, ["n", "member"], [])
        assert path.read_text() == "n,member\n"


def keys_cli_reads():
    """Every [run] key the CLI reads: the key each flag overrides, and
    the first argument of every run-parameter lookup (``p.get``,
    ``self.need``, ...) and ``run[...]`` subscript in its source."""
    keys = {key for _, flags, _ in cli._COMMANDS.values() for _, key, _ in flags if key}
    lookups = {"get", "need", "integer", "integers", "names"}
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in lookups
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("p", "self")
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            keys.add(node.args[0].value)
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "run"
            and isinstance(node.slice, ast.Constant)
        ):
            keys.add(node.slice.value)
    return keys


def test_run_keys_are_the_keys_some_subcommand_reads():
    # one [run] serves every subcommand (perfbench's small.cfg feeds fs,
    # hindman and density), so the config accepts the union of their keys
    accepted = config._KEYS["run"]
    assert len(set(accepted)) == len(accepted)
    assert set(accepted) == keys_cli_reads()
    assert set(config._RUN_REFERENCES) <= set(accepted)


GOLDEN = Path(__file__).parent / "golden" / "cli"

# case -> argv without "--out out".  Each case runs in a fresh copy of
# golden/cli/configs, so paths in stdout and in error messages are relative.
GOLDEN_CASES = {
    "pet-trace": ["pet-trace", "--config", "shared.cfg"],
    "weights": ["weights", "--config", "shared.cfg"],
    "fs": ["fs", "--config", "shared.cfg"],
    "hindman": ["hindman", "--N", "5", "--r", "2", "--depth", "2", "--all"],
    "density": ["density", "--predicate", "evens", "--lo", "0", "--hi", "60",
                "--length", "6"],
    "return-set": ["return-set", "--config", "shared.cfg"],
    "poly-return": ["poly-return", "--config", "shared.cfg"],
    "lemma213": ["lemma213", "--config", "lemma.cfg"],
    "mixing-report": ["mixing-report", "--config", "shared.cfg"],
    # flag overrides and the other inputs of each subcommand
    "pet-trace-members": ["pet-trace", "--members", "T1^{n}; T1^{n^2}"],
    "weights-members": ["weights", "--members", "T1^{n}; T2^{n}; T1^{n} * T2^{n^3}"],
    "fs-generators": ["fs", "--config", "shared.cfg", "--generators", "2,5,11"],
    "hindman-config": ["hindman", "--config", "hindman-all.cfg"],
    "hindman-coloring": ["hindman", "--N", "4", "--r", "2", "--depth", "2",
                         "--coloring", "0,1,1,0"],
    # S(3) = 13: the least failing 3-coloring, then every one verified
    "hindman-least-failing": ["hindman", "--N", "13", "--r", "3", "--depth", "2",
                              "--all"],
    "hindman-verified-past-product": ["hindman", "--N", "14", "--r", "3",
                                      "--depth", "2", "--all"],
    # 2^20000 has more decimal digits than int-to-str conversion allows
    "hindman-count-too-long": ["hindman", "--N", "20000", "--r", "2", "--depth",
                               "2", "--all"],
    "density-csv": ["density", "--csv-path", "set.csv", "--lo", "0", "--hi", "8",
                    "--length", "4"],
    "return-set-window": ["return-set", "--config", "shared.cfg", "--window", "7"],
    "return-set-whole-space": ["return-set", "--config", "whole-space.cfg"],
    # a 57-letter word that first occurs at position 7670 of the fixed
    # point, past the 4096 letters of the 32x expansion for its span
    "return-set-late-word": ["return-set", "--config", "late-word.cfg"],
    "lemma213-shifts": ["lemma213", "--config", "lemma-shifts.cfg"],
    "lemma213-window": ["lemma213", "--config", "lemma.cfg", "--depth", "1",
                        "--window", "60"],
    "mixing-report-window": ["mixing-report", "--config", "shared.cfg",
                             "--window", "15"],
    # a truncation whose sums all lie past the window: an inconclusive row
    "mixing-report-inconclusive": ["mixing-report", "--config",
                                   "mixing-inconclusive.cfg"],
    # one coloring with a witness: the witness line
    "hindman-witness": ["hindman", "--N", "7", "--r", "1", "--depth", "2",
                        "--coloring", "0,0,0,0,0,0,0"],
    # error paths
    "missing-system": ["return-set", "--config", "no-system.cfg"],
    "missing-vs": ["poly-return", "--config", "no-vs.cfg"],
    "missing-polys": ["poly-return", "--config", "no-polys.cfg"],
    "missing-window-before-truncations": ["mixing-report", "--config", "no-window.cfg"],
    "missing-truncations": ["mixing-report", "--config", "no-truncations.cfg"],
    "missing-gammas": ["lemma213", "--config", "lemma-no-gammas.cfg"],
    "missing-depth": ["lemma213", "--config", "lemma-no-depth.cfg"],
    "lemma213-empty-shifts": ["lemma213", "--config", "lemma-empty-shifts.cfg"],
    "missing-gamma-system": ["pet-trace"],
    "missing-generators": ["fs"],
    "missing-N": ["hindman"],
    "missing-lo": ["density"],
    "density-no-source": ["density", "--lo", "0", "--hi", "10", "--length", "2"],
    "density-unreadable-csv": ["density", "--csv-path", "nope.csv", "--lo", "0",
                               "--hi", "10", "--length", "2"],
    "unreadable-config": ["return-set", "--config", "nope.cfg"],
    "config-syntax-error": ["return-set", "--config", "broken.cfg"],
    "unknown-system-key": ["return-set", "--config", "unknown-system-key.cfg"],
    # base_power for base-power: no subcommand reads it
    "unknown-run-key": ["lemma213", "--config", "unknown-run-key.cfg"],
    "duplicate-section": ["return-set", "--config", "duplicate-section.cfg"],
    "foreign-set": ["return-set", "--config", "foreign-set.cfg"],
    "negative-window": ["return-set", "--config", "shared.cfg", "--window", "-1"],
    "window-over-bound": ["poly-return", "--config", "quadratic-wide.cfg"],
    "hypothesis-violation": ["poly-return", "--config", "constant-poly.cfg"],
    "truncation-overflow": ["fs", "--generators", ",".join(map(str, range(1, 26)))],
    "non-integer-window": ["return-set", "--config", "non-integer-window.cfg"],
    "non-integer-generator": ["fs", "--generators", "1,x"],
    "non-integer-multiples": ["density", "--predicate", "multiples:x", "--lo", "0",
                              "--hi", "10", "--length", "2"],
}


def run_golden_case(argv, workdir: Path) -> dict[str, bytes]:
    """Exit code, stdout, stderr and every written file of one CLI run,
    keyed by their paths under the case's golden directory."""
    shutil.copytree(GOLDEN / "configs", workdir, dirs_exist_ok=True)
    stdout, stderr = StringIO(), StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(argv + ["--out", "out"])
    finally:
        os.chdir(cwd)
    result = {
        "exit": f"{code}\n".encode(),
        "stdout": stdout.getvalue().encode(),
        "stderr": stderr.getvalue().encode(),
    }
    out = workdir / "out"
    if out.is_dir():
        for path in sorted(out.iterdir()):
            result[f"files/{path.name}"] = path.read_bytes()
    return result


def read_golden(case: str) -> dict[str, bytes]:
    root = GOLDEN / case
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_output(case, tmp_path):
    assert run_golden_case(GOLDEN_CASES[case], tmp_path) == read_golden(case)


if __name__ == "__main__":
    # Rewrite the golden files from the current code: run this only when
    # an output change is intended.  Usage: python tests/test_cli.py
    import tempfile

    for case, argv in GOLDEN_CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            captured = run_golden_case(argv, Path(tmp))
        shutil.rmtree(GOLDEN / case, ignore_errors=True)
        for rel, data in captured.items():
            target = GOLDEN / case / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)
        print(f"{case}: exit {captured['exit'].decode().strip()}", file=sys.stderr)
