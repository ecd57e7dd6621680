import json
import shlex
import warnings
from pathlib import Path

import pytest

from ordspectra import cli
from ordspectra.data import DataStore, load_lines
from ordspectra.errors import DuplicateKey, ParseError


def test_load_valid_records():
    store = DataStore()
    count = load_lines([
        "# comment",
        "",
        "classnum PSL 2 5 5",
        "spectrum G2 4 1,2,3,4,5,6,7,8,12,13,15,21",
        "q0 7 32",
        "q0 2B2 128",
        "constant monster_omega 194",
    ], store)
    assert count == 5
    assert store.class_numbers.lookup("PSL", 2, 5) == 5
    assert store.spectra.get("G2", 4) is not None
    assert store.q0[7] == 32 and store.q0["2B2"] == 128
    assert store.constants["monster_omega"] == 194


def test_parse_error_carries_line_number():
    store = DataStore()
    with pytest.raises(ParseError) as err:
        load_lines(["classnum PSL 2 5 5", "classnum WAT 1 2 3"], store)
    assert err.value.line_no == 2
    # transactional: the first record must not have been applied
    assert store.class_numbers.lookup("PSL", 2, 5) is None


def test_duplicate_key_rejected():
    store = DataStore()
    with pytest.raises(DuplicateKey):
        load_lines(["q0 3 4", "q0 3 8"], store)
    load_lines(["q0 3 4"], store)
    with pytest.raises(DuplicateKey):
        load_lines(["q0 3 8"], store)


def test_bad_values_rejected():
    store = DataStore()
    with pytest.raises(ParseError):
        load_lines(["classnum PSL 2 5 zero"], store)
    with pytest.raises(ParseError):
        load_lines(["q0 3 6"], store)  # 6 is not a prime power
    with pytest.raises(ParseError):
        load_lines(["spectrum A 4 1,2"], store)  # classical spectra not ingestable
    with pytest.raises(ParseError):
        load_lines(["wat 1 2"], store)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_sym(capsys):
    code, out, _ = run_cli(capsys, "sym", "omicron", "--n", "4")
    assert code == 0 and out.strip() == "4"
    code, out, _ = run_cli(capsys, "sym", "omicron", "--n", "0")
    assert code == 0 and out.strip() == "1"
    code, out, err = run_cli(capsys, "sym", "omicron", "--n", "-1")
    assert code == 1 and out == "" and "n must be >= 0" in err
    code, out, _ = run_cli(capsys, "sym", "r", "--n", "7")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run_cli(capsys, "sym", "r", "--n", "0")
    assert code == 0 and out.strip() == "1"
    code, out, err = run_cli(capsys, "sym", "r", "--n", "-1")
    assert code == 1 and out == "" and "n must be >= 0" in err
    code, out, _ = run_cli(capsys, "sym", "constants", "--max", "70", "--argmax")
    assert code == 0 and "argmax=66" in out


def test_python_m_runs_cli():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "ordspectra", "sym", "omicron", "--n", "4"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "4"


def test_cli_lie(capsys):
    code, out, _ = run_cli(capsys, "lie", "order", "--family", "2B2", "--q", "8")
    assert code == 0 and out.strip() == "29120"
    code, out, _ = run_cli(capsys, "lie", "coxeter", "--family", "E8")
    assert code == 0 and out.strip() == "30"
    code, out, _ = run_cli(capsys, "lie", "spectrum", "--family", "2B2", "--q", "8")
    assert code == 0 and out.strip() == "1,2,4,5,7,13"
    code, out, _ = run_cli(capsys, "lie", "k", "--family", "C", "--d", "2",
                           "--q", "3", "--level", "2")
    assert code == 0 and out.strip() == "17"
    code, out, _ = run_cli(capsys, "lie", "outdiag", "--family", "E6", "--q", "4")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run_cli(capsys, "lie", "out", "--family", "2B2", "--q", "8")
    assert code == 0 and out.strip() == "3"


def test_cli_availability_exit_code(capsys):
    code, out, err = run_cli(capsys, "lie", "omega-bound", "--family", "A",
                             "--d", "1", "--q", "5", "--level", "1")
    assert code == 2
    assert err.strip() == ("This quality level is not available. "
                           "Please set the quality level to 2.")
    code, _, err = run_cli(capsys, "survey", "classical1", "--d", "5",
                           "--type", "9")
    assert code == 2
    assert err.strip() == ("This type is not available. "
                           "Please set the type to 1, 2, 3 or 4.")


def test_cli_data_missing_exit_code(capsys):
    code, _, err = run_cli(capsys, "lie", "k", "--family", "A", "--d", "9",
                           "--q", "101")
    assert code == 3
    assert "PSL 10 101" in err


def test_cli_usage_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["lie", "order", "--bogus"])
    assert exc.value.code == 64


def test_cli_builds_its_parser_once(tmp_path, capsys):
    """``main`` builds the parser on its first call and keeps it; a usage
    error leaves it as it was, and each call starts from the defaults (a
    ``--data`` list carried over would load the file twice)."""
    cli._shared_parser.cache_clear()
    extra = tmp_path / "extra.dat"
    extra.write_text("classnum PSL 5 2 27\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cli.main(["lie"])
    assert exc.value.code == cli.EXIT_USAGE
    capsys.readouterr()
    for _ in range(2):
        assert run_cli(capsys, "--data", str(extra), "sym", "omicron", "--n", "10") == (
            0, "16\n", "")
    assert cli._shared_parser.cache_info().misses == 1


@pytest.mark.parametrize("levels", ["x,1", "1", "1,2,3"])
def test_cli_malformed_levels_is_usage_error(capsys, levels):
    with pytest.raises(SystemExit) as exc:
        cli.main(["lie", "epsilon-q", "--family", "A", "--d", "1", "--q", "7",
                  "--levels", levels])
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: argument --levels: levels must be given as L1,L2 with integer levels, "
        f"not {levels!r}"]


def test_cli_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "--json", "lie", "epsilon-q", "--family",
                           "A", "--d", "1", "--q", "7", "--levels", "2,1")
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["omega_bound"] == "3"
    assert payload["omicron_bound"] == "10"
    assert isinstance(payload["value"], float)
    # round trip: re-render the parsed object and compare
    assert json.loads(json.dumps(payload, sort_keys=True)) == payload


def test_cli_renders_every_value_kind(capsys):
    """One row holding each kind of value, in text and in JSON."""
    from fractions import Fraction
    from types import SimpleNamespace

    from ordspectra.survey import UNDEFINED
    from ordspectra.torus_spectra import OrderSet

    row = {"undefined": UNDEFINED, "flag": True, "exact": 10**20, "real": 100000.0,
           "ratio": Fraction(7, 1), "orders": OrderSet((1, 2, 4)), "label": "PSL"}
    cli._emit([row], SimpleNamespace(json=False, precision=15))
    assert capsys.readouterr().out == (
        "undefined=undefined  flag=True  exact=100000000000000000000  real=100000  "
        "ratio=7/1  orders=1,2,4  label=PSL\n")
    cli._emit([row], SimpleNamespace(json=True, precision=15))
    assert capsys.readouterr().out == (
        '{"exact": "100000000000000000000", "flag": true, "label": "PSL", '
        '"orders": ["1", "2", "4"], "ratio": "7/1", "real": 100000.0, "undefined": null}\n')


def readme_cli_examples():
    """(argv, documented output) for each README CLI line that ends in a
    comment; an output ending in " ..." documents a prefix."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
    return [(shlex.split(command)[1:], value.strip())
            for command, _, value in (line.partition(" # ") for line in block.splitlines())
            if command.startswith("ordspectra ") and value]


def test_readme_cli_examples(capsys):
    examples = readme_cli_examples()
    assert len(examples) == 4
    for argv, documented in examples:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        if documented.endswith(" ..."):
            assert out.startswith(documented[:-4]), (argv, out)
        else:
            assert out.strip() == documented, (argv, out)


def test_cli_matches_library(capsys, store):
    from ordspectra import bounds, lie_catalog

    code, out, _ = run_cli(capsys, "lie", "omega-bound", "--family", "2B2",
                           "--q", "8")
    library = bounds.nr_aut_orbits_lower(lie_catalog.make_spec("2B2", Q=8),
                                         None, store.class_numbers)
    assert code == 0 and int(out.strip()) == library == 4


def test_cli_precision_flag(capsys):
    code, out, _ = run_cli(capsys, "--precision", "4", "lie", "loglog",
                           "--family", "A", "--d", "1", "--q", "5")
    assert code == 0
    assert len(out.strip()) <= 6  # e.g. "1.41"


def test_cli_negative_precision_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--precision", "-1", "lie", "loglog", "--family", "A", "--d", "1",
                  "--q", "5"])
    assert exc.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "error: argument --precision: must be >= 0, not -1"


def test_cli_library_warning_is_one_stderr_line(capsys):
    # under an "error" filter as under python -W error: still no traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "lie", "epsilon-q-fixed", "--family", "A", "--d", "3")
    assert (code, out) == (cli.EXIT_DATA_MISSING, "")
    assert err == ("warning: d = 3 is outside the intended range 54..90\n"
                   "missing data: constant oss_A_90_2\n")


@pytest.mark.parametrize("group, message", [
    ("GL:0:3", "dimension n must be >= 1; got 0"),
    ("Sp:0:3", "dimension n must be >= 1; got 0"),
    ("GOplus:3:3", "GOplus needs an even dimension; got 3"),
    ("Omegaminus:5:3", "Omegaminus needs an even dimension; got 5"),
    ("PSL:2:1", "1 is not a prime power"),
    ("SL:2:10007", "group order 1002101460336 exceeds cap 10000000"),
])
def test_cli_oracle_dump_refuses_before_any_work(capsys, group, message):
    assert run_cli(capsys, "oracle", "dump", "--group", group, "--out", "-") == (
        cli.EXIT_GENERIC, "", message + "\n")


def test_cli_data_import(tmp_path, capsys):
    path = tmp_path / "extra.dat"
    path.write_text("classnum PSL 5 2 27\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "data", "import", "--file", str(path))
    assert code == 0 and out.strip() == "1"
    bad = tmp_path / "bad.dat"
    bad.write_text("classnum PSL 5 2\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "data", "import", "--file", str(bad))
    assert code == 1 and "line 1" in err


def test_cli_oracle_dump(tmp_path, capsys):
    out_file = tmp_path / "dump.dat"
    code, out, _ = run_cli(capsys, "oracle", "dump", "--group", "PSL:2:5",
                           "--out", str(out_file))
    assert code == 0
    content = out_file.read_text(encoding="utf-8")
    assert "classnum PSL 2 5 5" in content
    # the dump must load cleanly
    store = DataStore()
    load_lines(content.splitlines(), store)
    assert store.class_numbers.lookup("PSL", 2, 5) == 5


def test_cli_oracle_dump_to_stdout(tmp_path, monkeypatch, capsys):
    # "--out -" is the form seed.dat documents; it must not create a file
    # named "-" and stdout must hold the dump alone
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "oracle", "dump", "--group", "PSL:2:5",
                           "--out", "-")
    assert code == 0
    assert not (tmp_path / "-").exists()
    assert "classnum PSL 2 5 5" in out
    store = DataStore()
    load_lines(out.splitlines(), store)
    assert store.class_numbers.lookup("PSL", 2, 5) == 5


def test_cli_oord_bound(capsys):
    code, out, _ = run_cli(capsys, "lie", "oord-bound", "--family", "A",
                           "--d", "1", "--q", "7", "--level", "1")
    assert code == 0 and out.strip() == "10"


def test_cli_epsilon_q_fixed(tmp_path, capsys):
    extra = tmp_path / "constants.dat"
    extra.write_text("constant oss_A_90_2 1000000\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "--data", str(extra), "lie",
                           "epsilon-q-fixed", "--family", "A", "--d", "54")
    assert code == 0 and "value=" in out
    code, _, err = run_cli(capsys, "lie", "epsilon-q-fixed", "--family", "B",
                           "--d", "60")
    assert code == 3 and "oss_B_90_2" in err


def test_cli_general3_sqrt_form(capsys):
    code, out, _ = run_cli(capsys, "survey", "general3", "--d", "10",
                           "--qsqrt-exponent", "3")
    assert code == 0
    from ordspectra import survey

    assert abs(float(out.strip()) - survey.epsilon_omega_general3(10, (2, 3))) < 1e-9


def test_cli_exceptions_roundtrip(tmp_path, capsys):
    q0 = tmp_path / "q0.dat"
    q0.write_text("q0 1 8\n", encoding="utf-8")
    config = tmp_path / "config.dat"
    config.write_text(
        "constant monster_omega 194\n"
        "constant monster_omicron 74\n"
        "constant monster_order "
        "808017424794512875886459904961710757005754368000000000\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "survey", "exceptions", "omega",
                           "--q0", str(q0), "--config", str(config))
    assert code == 0
    assert "family=A" in out


_EXCEPTION_ROWS = (
    ("family=A  d=1  Q=4  bound=0.0667191998952023  reason=level 2",
     '{"Q": "4", "bound": 0.0667191998952023, "d": "1", "family": "A", "reason": "level 2"}'),
) + tuple(
    (f"family={f}  d=1  Q=4  bound=undefined  "
     "reason=unavailable: no data-free bound below rank 3",
     f'{{"Q": "4", "bound": null, "d": "1", "family": "{f}", '
     '"reason": "unavailable: no data-free bound below rank 3"}')
    for f in "BC")
_DUMP = "# oracle dump for PSL:2:5: order 60\n# element orders: 1,2,3,5\nclassnum PSL 2 5 5\n"

#: one invocation of each subcommand: (command, exit code, text stdout,
#: JSON stdout, stderr of both, the usage line of the subcommand's --help)
CLI_PINS = [
    ("sym omicron --n 10", 0, "16\n", '{"omicron": "16"}\n', "",
     "sym omicron [-h] --n N"),
    ("sym r --n 7", 0, "3\n", '{"r": "3"}\n', "", "sym r [-h] --n N"),
    ("sym constants --max 70 --argmax", 0, "argmax=66  value=0.986537233242447\n",
     '{"argmax": "66", "value": 0.986537233242447}\n', "",
     "sym constants [-h] --max MAX [--argmax]"),
    ("lie order --family 2B2 --q 8", 0, "29120\n", '{"order": "29120"}\n', "",
     "lie order [-h] --family FAMILY [--d D] --q Q"),
    ("lie loglog --family A --d 1 --q 5", 0, "1.40960664642895\n",
     '{"loglog": 1.40960664642895}\n', "",
     "lie loglog [-h] --family FAMILY [--d D] --q Q"),
    ("lie out --family 2B2 --q 8", 0, "3\n", '{"out": "3"}\n', "",
     "lie out [-h] --family FAMILY [--d D] --q Q"),
    ("lie outdiag --family E6 --q 4", 0, "3\n", '{"outdiag": "3"}\n', "",
     "lie outdiag [-h] --family FAMILY [--d D] --q Q"),
    ("lie coxeter --family E8", 0, "30\n", '{"coxeter": "30"}\n', "",
     "lie coxeter [-h] --family FAMILY [--d D]"),
    ("lie k --family C --d 2 --q 3 --level 2", 0, "17\n", '{"k_bound": "17"}\n', "",
     "lie k [-h] --family FAMILY [--d D] --q Q [--level LEVEL]"),
    ("lie omega-bound --family 2B2 --q 8", 0, "4\n", '{"omega_bound": "4"}\n', "",
     "lie omega-bound [-h] --family FAMILY [--d D] --q Q [--level LEVEL]"),
    ("lie oord-bound --family A --d 1 --q 7 --level 1", 0, "10\n",
     '{"oord_bound": "10"}\n', "",
     "lie oord-bound [-h] --family FAMILY [--d D] --q Q [--level LEVEL]"),
    ("lie epsilon-omega --family 2B2 --q 8", 0,
     "value=0.140179125709043  omega_bound=4  loglog_order=2.33012053917533\n",
     '{"loglog_order": 2.33012053917533, "omega_bound": "4", '
     '"value": 0.140179125709043}\n', "",
     "lie epsilon-omega [-h] --family FAMILY [--d D] --q Q [--level LEVEL]"),
    ("lie epsilon-q --family A --d 1 --q 7 --levels 2,1", 0,
     "value=0.108477264701139  omega_bound=3  omicron_bound=10  "
     "loglog_order=1.63392835422899\n",
     '{"loglog_order": 1.63392835422899, "omega_bound": "3", "omicron_bound": "10", '
     '"value": 0.108477264701139}\n', "",
     "lie epsilon-q [-h] --family FAMILY [--d D] --q Q [--levels LEVELS]"),
    ("lie epsilon-q-fixed --family B --d 60", 3, "", "",
     "missing data: constant oss_B_90_2\n",
     "lie epsilon-q-fixed [-h] --family FAMILY --d D"),
    ("lie spectrum --family A --d 2 --q 4 --semisimple", 0, "1,3,5,7\n",
     '{"orders": ["1", "3", "5", "7"]}\n', "",
     "lie spectrum [-h] --family FAMILY [--d D] --q Q [--semisimple]"),
    ("survey general2 --d 12", 0, "0.0557113406227292\n",
     '{"value": 0.0557113406227292}\n', "", "survey general2 [-h] --d D"),
    ("survey general3 --d 10 --qsqrt-exponent 3", 0, "0.190623135949929\n",
     '{"value": 0.190623135949929}\n', "",
     "survey general3 [-h] --d D [--q Q] [--qsqrt-exponent QSQRT_EXPONENT]"),
    ("survey classical1 --d 5 --type 9", 2, "", "",
     "This type is not available. Please set the type to 1, 2, 3 or 4.\n",
     "survey classical1 [-h] --d D --type TYPE"),
    ("survey classical2 --d 10 --q 3", 0, "undefined\n", '{"value": null}\n', "",
     "survey classical2 [-h] --d D --q Q"),
    ("survey exceptions omega --q0 {q0} --config {config}", 0,
     "".join(text + "\n" for text, _ in _EXCEPTION_ROWS),
     "".join(obj + "\n" for _, obj in _EXCEPTION_ROWS), "",
     "survey exceptions [-h] --q0 Q0 --config CONFIG [--strict] "
     "{omega,q-classical,q-exceptional}"),
    ("oracle dump --group PSL:2:5 --out -", 0, _DUMP, _DUMP, "",
     "oracle dump [-h] --group GROUP --out OUT"),
    ("data import --file {extra}", 0, "1\n", '{"loaded": "1"}\n', "",
     "data import [-h] --file FILE"),
]


def test_cli_pins_cover_every_subcommand():
    parser = cli.build_parser()
    groups = parser._subparsers._group_actions[0].choices
    names = {f"{group} {name}" for group, p in groups.items()
             for name in p._subparsers._group_actions[0].choices}
    assert names == {" ".join(command.split()[:2]) for command, *_ in CLI_PINS}
    assert len(names) == 22


@pytest.mark.parametrize("command, code, text, as_json, err, usage", CLI_PINS,
                         ids=[" ".join(pin[0].split()[:2]) for pin in CLI_PINS])
def test_cli_subcommand_pins(tmp_path, capsys, command, code, text, as_json, err, usage):
    files = {"q0": "q0 1 5\n", "extra": "classnum PSL 5 2 27\n",
             "config": "constant monster_omega 194\nconstant monster_omicron 74\n"
                       "constant monster_order "
                       "808017424794512875886459904961710757005754368000000000\n"}
    for name, content in files.items():
        (tmp_path / f"{name}.dat").write_text(content, encoding="utf-8")
    argv = command.format(**{name: tmp_path / f"{name}.dat" for name in files}).split()
    assert run_cli(capsys, *argv) == (code, text, err)
    assert run_cli(capsys, "--json", *argv) == (code, as_json, err)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv[:2] + ["--help"])
    assert exc.value.code == 0
    page = capsys.readouterr().out
    assert " ".join(page.split("\n\n")[0].split()) == f"usage: ordspectra {usage}"


def test_cli_epsilon_q_fixed_needs_d(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["lie", "epsilon-q-fixed", "--family", "A"])
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == "error: the following arguments are required: --d"


@pytest.mark.parametrize("argv", [["data", "import", "--file", "{missing}"],
                                  ["--data", "{missing}", "sym", "r", "--n", "4"]])
def test_cli_unreadable_file_is_an_error_not_a_traceback(tmp_path, capsys, argv):
    missing = tmp_path / "missing.dat"
    code, out, err = run_cli(capsys, *(arg.format(missing=missing) for arg in argv))
    assert (code, out) == (cli.EXIT_GENERIC, "")
    assert err == f"[Errno 2] No such file or directory: '{missing}'\n"
