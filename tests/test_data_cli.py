import json
import shlex
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
    code, out, _ = run_cli(capsys, "sym", "r", "--n", "7")
    assert code == 0 and out.strip() == "3"
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
