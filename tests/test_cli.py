import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stochlim

from stochlim.cli import main, make_parser
from stochlim.correlator import FOCK, finite_lambda_correlator, temperature
from stochlim.oracle import Assignment, numeric_eval
from stochlim.scalars import ScalarSum
from stochlim.words import word_from_pattern


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_diagrams_report(capsys):
    code, out = run_cli(capsys, "--pattern", "a a a+ a+", "--mode", "diagrams")
    assert code == 0
    assert "pairings: 2" in out
    assert "non-crossing: 1" in out
    assert "fock-surviving: 2" in out
    assert "(4,1)(3,2) non-crossing" in out


def test_finite_json_round_trip(capsys):
    code, out = run_cli(capsys, "--pattern", "a a a+ a+", "--mode", "finite", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schemaVersion"] == 1
    parsed = ScalarSum.from_json(payload["result"]["sum"])
    expected = finite_lambda_correlator(word_from_pattern([-1, -1, 1, 1]), FOCK)
    assert parsed == expected


def test_output_deterministic(capsys):
    _, first = run_cli(
        capsys, "--pattern", "a a+ a a+", "--mode", "limit", "--state", "gaussian"
    )
    _, second = run_cli(
        capsys, "--pattern", "a a+ a a+", "--mode", "limit", "--state", "gaussian"
    )
    assert first == second


def test_check_free_small_sweep(capsys):
    code, out = run_cli(
        capsys, "--mode", "check-free", "--max-n", "4", "--state", "gaussian"
    )
    assert code == 0
    assert "checked: 8  mismatches: 0" in out


def test_pattern_parse_error_positions():
    with pytest.raises(SystemExit) as exc:
        main(["--pattern", "a b a+", "--mode", "finite"])
    assert exc.value.code == 2


def test_pattern_length_cap():
    with pytest.raises(SystemExit) as exc:
        main(["--pattern", " ".join(["a"] * 7 + ["a+"] * 7), "--mode", "diagrams"])
    assert exc.value.code == 2


def test_limit_side_modes_take_fourteen_letters(capsys):
    # the 14-letter finite job is an INPUT_ERRORS case
    pattern = "a a a+ a+ a a+ a+ a+ a a a a+ a a+"
    results = []
    for mode in ("free", "limit"):
        code, out = run_cli(capsys, "--pattern", pattern, "--mode", mode, "--state", "gaussian")
        assert code == 0
        results.append(out.split("result:")[1])
    assert results[0] == results[1]


# a a+ a a a+ a+ with labels that are not t1..tN, k1..kN and not in label order
RELABELLED = [
    {"eps": eps, "time": time, "wave": wave}
    for eps, time, wave in [
        (-1, "s17", "k07"),
        (1, "q42", "w3"),
        (-1, "s2", "m11"),
        (-1, "u10", "k9"),
        (1, "t1", "q42"),
        (1, "r05", "k10"),
    ]
]


@pytest.mark.parametrize(
    "mode, state, dual, relabelled",
    [
        ("finite", "fock", True, False),
        ("oracle-fock", "fock", True, False),
        ("finite", "gaussian", False, False),
        ("finite", "fock", True, True),
        ("oracle-fock", "fock", True, True),
    ],
    ids=[
        "finite-fock",
        "oracle-fock-fock",
        "finite-gaussian",
        "finite-fock-relabelled",
        "oracle-fock-fock-relabelled",
    ],
)
def test_seed_dual_path_report(tmp_path, capsys, mode, state, dual, relabelled):
    # in the Fock state finite and oracle-fock print the other path's value beside theirs
    if relabelled:
        job = tmp_path / "job.json"
        job.write_text(json.dumps({**_job(RELABELLED), "mode": mode, "state": state}))
        word = ["--job", str(job)]
    else:
        word = ["--pattern", "a a a+ a+", "--mode", mode, "--state", state]
    code, out = run_cli(capsys, *word, "--seed", "11")
    assert code == 0
    numeric = [line for line in out.splitlines() if line.startswith("numeric")]
    if dual:
        assert [line.split(":")[0] for line in numeric] == [
            "numeric (seed=11)",
            "numeric (dual path)",
        ]
        diff = float(out.split("|difference| = ")[1].split()[0])
        assert diff < 1e-9
    else:
        assert len(numeric) == 1 and numeric[0].startswith("numeric: ")
        assert "|difference|" not in out


def test_numeric_file(tmp_path, capsys):
    path = tmp_path / "assign.json"
    path.write_text(
        json.dumps(
            {
                "lambda": 0.8,
                "times": {"t1": 0.3, "t2": -0.4},
                "omega": {"k1": 1.1},
                "dot": {"k1,k1": 0.7, "k1,k2": 0.0},
                "dotP": {"k1": 0.2},
                "occupation": {"k1": 0.5},
            }
        )
    )
    code, out = run_cli(
        capsys,
        "--pattern",
        "a a+",
        "--mode",
        "finite",
        "--state",
        "gaussian",
        "--numeric",
        str(path),
    )
    assert code == 0
    assert "numeric:" in out


def test_temperature_numeric_file_derives_occupations(tmp_path, capsys):
    # under temperature N(k) = 1/(exp(beta*w(k)) - 1) from the file's omega
    numbers = {
        "lambda": 0.8,
        "times": {"t1": 0.3, "t2": -0.4},
        "omega": {"k1": 1.1},
        "dot": {"k1,k1": 0.7},
        "dotP": {"k1": 0.2},
    }
    path = tmp_path / "assign.json"
    path.write_text(json.dumps(numbers))
    word = word_from_pattern([-1, 1])
    values = []
    for beta in (0.1, 2.0):
        code, out = run_cli(
            capsys, "--pattern", "a a+", "--state", "temperature", "--beta", str(beta),
            "--numeric", str(path),
        )
        assert code == 0
        value = complex(out.split("numeric: ")[1].strip())
        assign = Assignment(
            lam=0.8,
            times=numbers["times"],
            omega=numbers["omega"],
            dot={("k1", "k1"): 0.7},
            dot_p=numbers["dotP"],
            occupation={"k1": 1.0 / math.expm1(beta * 1.1)},
        )
        expected = numeric_eval(finite_lambda_correlator(word, temperature(beta)), assign)
        assert abs(value - expected) <= 1e-11 * abs(expected)  # printed to 13 digits
        values.append(value)
    assert values[0] != values[1]


def test_temperature_seed_at_large_beta(capsys):
    # beta*w(k) beyond the range of exp
    code, out = run_cli(
        capsys, "--pattern", "a a+", "--state", "temperature", "--beta", "1000", "--seed", "1"
    )
    assert code == 0
    assert "numeric: " in out


def test_job_file_with_explicit_labels(tmp_path, capsys):
    job = {
        "schemaVersion": 1,
        "mode": "finite",
        "state": "fock",
        "pattern": [
            {"eps": -1, "time": "s", "wave": "q1"},
            {"eps": 1, "time": "s2", "wave": "q2"},
        ],
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code, out = run_cli(capsys, "--job", str(path))
    assert code == 0
    assert "q1" in out


def test_quadrature_csv(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code, out = run_cli(capsys, "--mode", "quadrature", "--csv", str(target))
    assert code == 0
    assert "converging: yes" in out
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "lambda,realPart,imagPart,absError"
    assert len(lines) == 5


def test_parser_has_documented_flags():
    parser = make_parser()
    text = parser.format_help()
    for flag in (
        "--pattern",
        "--state",
        "--beta",
        "--mode",
        "--max-n",
        "--numeric",
        "--json",
        "--csv",
        "--seed",
    ):
        assert flag in text


def _job(pattern, version=1) -> dict:
    return {"schemaVersion": version, "mode": "finite", "state": "fock", "pattern": pattern}


def _k9_job(tmp_path) -> str:
    # a a a+ a+ with wave labels k9..k12: k9 sorts before k10
    pattern = [
        {"eps": eps, "time": f"t{i}", "wave": f"k{i + 8}"}
        for i, eps in enumerate((-1, -1, 1, 1), start=1)
    ]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(_job(pattern)))
    return str(path)


def test_seeded_job_with_two_digit_labels(tmp_path, capsys):
    code, out = run_cli(capsys, "--job", _k9_job(tmp_path), "--seed", "1")
    assert code == 0
    assert "k9.k10" in out
    diff = float(out.split("|difference| = ")[1].split()[0])
    assert diff < 1e-9


def test_numeric_dot_keys_in_either_order(tmp_path, capsys):
    waves = [f"k{i}" for i in range(9, 13)]
    outputs = []
    for flip in (False, True):
        dots = {}
        for i, a in enumerate(waves):
            for b in waves[i:]:
                dots[f"{b},{a}" if flip else f"{a},{b}"] = 0.1 * len(dots) - 0.4
        path = tmp_path / f"assign-{flip}.json"
        path.write_text(
            json.dumps(
                {
                    "lambda": 0.8,
                    "times": {f"t{i}": 0.3 * i - 0.7 for i in range(1, 5)},
                    "omega": {k: 1.0 + 0.1 * i for i, k in enumerate(waves)},
                    "dot": dots,
                    "dotP": {k: 0.2 - 0.1 * i for i, k in enumerate(waves)},
                    "occupation": {k: 0.5 for k in waves},
                }
            )
        )
        code, out = run_cli(capsys, "--job", _k9_job(tmp_path), "--numeric", str(path))
        assert code == 0
        outputs.append(out)
    assert "numeric:" in outputs[0]
    assert outputs[0] == outputs[1]


def _letter_without(key: str) -> dict:
    letter = {"eps": -1, "time": "t1", "wave": "k1"}
    del letter[key]
    return letter


# argv with {dir} standing for the test's directory, the JSON contents
# of the files to write there, and a fragment of the one-line message
INPUT_ERRORS = [
    pytest.param(
        ["--pattern", "a a+", "--numeric", "{dir}/missing.json"], {}, "cannot read numeric file",
        id="missing-numeric-file",
    ),
    pytest.param(["--job", "{dir}/missing.json"], {}, "cannot read job file", id="missing-job-file"),
    pytest.param(
        ["--pattern", "a a+", "--numeric", "{dir}/n.json"],
        {"n.json": {"times": {"t1": 0.1}}},
        "has no 'lambda'",
        id="numeric-without-lambda",
    ),
    pytest.param(
        ["--pattern", "a a+", "--numeric", "{dir}/n.json"],
        {"n.json": {"lambda": 0.5}},
        "no numeric value assigned to t1",
        id="numeric-unassigned-symbol",
    ),
    pytest.param(
        ["--pattern", "a a+", "--numeric", "{dir}/n.json"],
        {"n.json": {"lambda": 0.5, "dot": []}},
        "'dot' must be an object",
        id="numeric-dot-not-an-object",
    ),
    pytest.param(
        ["--pattern", "a a+", "--numeric", "{dir}/n.json"],
        {"n.json": {"lambda": None}},
        "lambda must be a number",
        id="numeric-lambda-null",
    ),
    pytest.param(
        ["--pattern", "a a+", "--numeric", "{dir}/n.json"],
        {"n.json": {"lambda": 0.5, "dot": {"k1": 0.3}}},
        "dot key 'k1' is not two labels",
        id="numeric-dot-key-without-comma",
    ),
    *(
        pytest.param(
            ["--job", "{dir}/job.json"],
            {"job.json": _job([_letter_without(key), "a+"])},
            f"letter object lacks {key}",
            id=f"job-letter-without-{key}",
        )
        for key in ("eps", "time", "wave")
    ),
    pytest.param(
        ["--job", "{dir}/job.json"],
        {"job.json": _job([{"eps": -1, "time": 5, "wave": "k1"}, "a+"])},
        "must be strings",
        id="job-letter-time-number",
    ),
    pytest.param(
        ["--job", "{dir}/job.json"],
        {"job.json": _job([{"eps": True, "time": "t1", "wave": "k1"}, "a"])},
        "letter eps must be a number, got True",
        id="job-letter-eps-true",
    ),
    *(
        pytest.param(
            ["--job", "{dir}/job.json"],
            {"job.json": _job([{"eps": -1, "time": "t1", "wave": "k1", key: ""}, "a+"])},
            "must be strings, not empty",
            id=f"job-letter-empty-{key}",
        )
        for key in ("time", "wave")
    ),
    # a label the report grammar could not read back: p.p would name both
    # k.k and k.p of a wave p, and "k,1" or "t 2" would split on , or space
    pytest.param(
        ["--job", "{dir}/job.json"],
        {"job.json": _job(["a", {"eps": 1, "time": "t2", "wave": "p"}])},
        "pattern token 2: letter wave 'p' is reserved",
        id="job-letter-wave-p",
    ),
    pytest.param(
        ["--job", "{dir}/job.json"],
        {"job.json": _job([{"eps": -1, "time": "t1", "wave": "k,1"}, "a+"])},
        "pattern token 1: letter wave 'k,1' is not a name",
        id="job-letter-wave-comma",
    ),
    pytest.param(
        ["--job", "{dir}/job.json"],
        {"job.json": _job(["a", {"eps": 1, "time": "t 2", "wave": "k2"}])},
        "pattern token 2: letter time 't 2' is not a name",
        id="job-letter-time-space",
    ),
    pytest.param(
        ["--job", "{dir}/job.json"], {"job.json": _job(5)}, "must be a list", id="job-pattern-number"
    ),
    pytest.param(
        ["--job", "{dir}/job.json"],
        {"job.json": {"schemaVersion": 1, "mode": "check-free", "maxN": -4}},
        "check-free maxN must be from 2 to 16, got -4",
        id="check-free-max-n-negative",
    ),
    pytest.param(
        ["--mode", "check-free", "--max-n", "1"],
        {},
        "check-free maxN must be from 2 to 16, got 1",
        id="check-free-max-n-one",
    ),
    pytest.param(
        ["--mode", "check-free", "--max-n", "18"],
        {},
        "check-free maxN must be from 2 to 16, got 18",
        id="check-free-max-n-above-cap",
    ),
    pytest.param(
        ["--mode", "finite", "--pattern", " ".join(["a", "a+"] * 7)],
        {},
        "maximum of 12 letters for mode finite",
        id="finite-fourteen-letters",
    ),
    pytest.param(
        ["--mode", "free", "--pattern", " ".join(["a", "a+"] * 9)],
        {},
        "maximum of 16 letters for mode free",
        id="free-eighteen-letters",
    ),
    pytest.param(
        ["--job", "{dir}/job.json"],
        {"job.json": {**_job(["a", "a+"]), "maxN": None}},
        "maxN must be a number",
        id="job-max-n-null",
    ),
    pytest.param(
        ["--job", "{dir}/job.json"],
        {"job.json": {**_job(["a", "a+"]), "maxN": math.inf}},
        "maxN must be a number, got inf",
        id="job-max-n-infinite",
    ),
    pytest.param(
        ["--job", "{dir}/job.json"],
        {"job.json": {**_job(["a", "a+"]), "state": "bogus", "beta": 2}},
        "unknown state 'bogus'",
        id="job-unknown-state",
    ),
    pytest.param(
        ["--job", "{dir}/job.json"],
        {"job.json": _job(["a", "a+"], version=2)},
        "schemaVersion 2 is not supported",
        id="job-schema-version",
    ),
    pytest.param(
        ["--job", "{dir}/job.json"],
        {"job.json": {**_job(["a", "a+"]), "patern": ["a", "a+"]}},
        "unknown keys patern",
        id="job-unknown-key",
    ),
    pytest.param(
        ["--job", "{dir}/job.json"],
        {"job.json": {k: v for k, v in _job(["a", "a+"]).items() if k != "schemaVersion"}},
        "has no 'schemaVersion'",
        id="job-without-schema-version",
    ),
    pytest.param(
        ["--job", "{dir}/job.json"],
        {"job.json": {"schemaVersion": 1, "mode": "bogus"}},
        "unknown mode 'bogus'",
        id="job-unknown-mode",
    ),
    pytest.param(
        ["--job", "{dir}/job.json"],
        {"job.json": {**_job(["a", "a+"]), "mode": ["finite"]}},
        "unknown mode ['finite']",
        id="job-mode-list",
    ),
    *(
        pytest.param(
            ["--job", "{dir}/job.json"],
            {"job.json": _job([{"eps": eps, "time": "t1", "wave": "k1"}, "a+"])},
            f"letter eps must be an integer, got {eps!r}",
            id=f"job-letter-eps-{eps}",
        )
        for eps in (-1.5, "-1")
    ),
    *(
        pytest.param(
            ["--job", "{dir}/job.json"],
            {"job.json": {"schemaVersion": 1, "mode": "check-free", "maxN": max_n}},
            f"maxN must be an integer, got {max_n!r}",
            id=f"job-max-n-{max_n}",
        )
        for max_n in (4.9, "4")
    ),
    *(
        pytest.param(
            ["--mode", "quadrature", "--csv", path],
            {},
            "cannot write csv file",
            id=f"csv-{name}",
        )
        for name, path in (("missing-directory", "{dir}/no/such/x.csv"), ("directory", "{dir}"))
    ),
    pytest.param(
        ["--mode", "diagrams"], {}, "mode diagrams needs --pattern", id="diagrams-without-pattern"
    ),
    pytest.param(
        ["--mode", "oracle-double", "--state", "gaussian"],
        {},
        "mode oracle-double needs --pattern",
        id="oracle-double-without-pattern",
    ),
    pytest.param(
        ["--mode", "oracle-fock", "--pattern", "a a+", "--state", "gaussian"],
        {},
        "oracle-fock requires a fock state",
        id="oracle-fock-gaussian",
    ),
    pytest.param(
        ["--mode", "oracle-double", "--pattern", "a a+"],
        {},
        "oracle-double requires a gaussian or temperature state",
        id="oracle-double-fock",
    ),
    pytest.param(
        ["--pattern", "a a+", "--state", "temperature", "--beta", "nan", "--seed", "3"],
        {},
        "beta must be a finite number, got nan",
        id="beta-nan",
    ),
    pytest.param(
        ["--job", "{dir}/job.json", "--seed", "1"],
        {"job.json": {**_job(["a", "a+"]), "state": "temperature", "beta": "2"}},
        "beta must be a number, got '2'",
        id="job-beta-string",
    ),
    pytest.param(
        ["--pattern", "a a+", "--numeric", "{dir}/n.json"],
        {"n.json": {"lambda": "0.5"}},
        "lambda must be a number, got '0.5'",
        id="numeric-lambda-string",
    ),
    pytest.param(
        ["--pattern", "a a+", "--numeric", "{dir}/n.json"],
        {"n.json": {"lambda": 0.5, "omega": {"k1": "1.1"}}},
        "omega 'k1' must be a number, got '1.1'",
        id="numeric-omega-string",
    ),
    pytest.param(
        ["--pattern", "a a+", "--numeric", "{dir}/n.json"],
        {"n.json": {"lambda": math.nan}},
        "lambda must be a finite number, got nan",
        id="numeric-lambda-nan",
    ),
    pytest.param(
        ["--pattern", "a a+", "--state", "temperature", "--beta", "2", "--numeric", "{dir}/n.json"],
        {"n.json": {"lambda": 0.5, "omega": {"k1": 1.0}, "occupation": {"k1": 0.5}}},
        "'occupation' is derived from beta and omega",
        id="temperature-numeric-occupation",
    ),
    pytest.param(
        ["--pattern", "a a+", "--state", "temperature", "--beta", "2", "--numeric", "{dir}/n.json"],
        {"n.json": {"lambda": 0.5, "omega": {"k1": 0.0}}},
        "omega 'k1' must be positive",
        id="temperature-numeric-omega-zero",
    ),
    pytest.param(
        ["--pattern", "a a+", "--state", "temperature", "--beta", "1e-320", "--seed", "3"],
        {},
        "thermal occupation is not finite",
        id="temperature-seed-beta-tiny",
    ),
    pytest.param(
        ["--pattern", "a a+", "--state", "temperature", "--beta", "1e-20", "--numeric", "{dir}/n.json"],
        {"n.json": {"lambda": 0.5, "omega": {"k1": 1e-300}}},
        "thermal occupation is not finite",
        id="temperature-numeric-omega-tiny",
    ),
    *(
        pytest.param(
            ["--mode", mode, "--pattern", "a a+ a"],
            {},
            f"mode {mode} takes no pattern",
            id=f"{mode}-with-pattern",
        )
        for mode in ("check-free", "quadrature")
    ),
    *(
        pytest.param(
            ["--job", "{dir}/job.json"],
            {"job.json": {**_job(["a", "a+"]), "mode": mode}},
            f"mode {mode} takes no pattern",
            id=f"job-{mode}-with-pattern",
        )
        for mode in ("check-free", "quadrature")
    ),
]


@pytest.mark.parametrize("argv, files, says", INPUT_ERRORS)
def test_input_errors_exit_2_with_one_line(tmp_path, capsys, argv, files, says):
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    argv = [a.format(dir=tmp_path) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert says in err


def test_job_keys_default_to_the_flags(tmp_path, capsys):
    # a job file without 'pattern' or 'mode' takes both from the command line
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"schemaVersion": 1}))
    code, out = run_cli(capsys, "--job", str(path), "--pattern", "a a+", "--mode", "limit")
    assert code == 0
    _, direct = run_cli(capsys, "--pattern", "a a+", "--mode", "limit")
    assert out == direct


def test_import_does_not_load_scipy():
    # a fresh interpreter, started next to the package it is testing
    code = "import sys, stochlim.cli; assert 'scipy' not in sys.modules"
    src = Path(stochlim.__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-c", code], cwd=src, check=True)


@pytest.mark.parametrize(
    "mode, extra",
    [("finite", []), ("oracle-double", ["--seed", "1"])],
    ids=["finite", "oracle-double"],
)
def test_reports_do_not_depend_on_the_hash_seed(mode, extra):
    # labels and bases hash by identity, so set order follows object addresses
    # and differs between processes; one process cannot see that
    src = Path(stochlim.__file__).resolve().parents[1]
    cmd = [sys.executable, "-m", "stochlim.cli", "--mode", mode, "--state", "gaussian",
           "--pattern", "a a a+ a a+ a+ a a+", "--json", *extra]
    outputs = [
        subprocess.run(
            cmd, cwd=src, env={**os.environ, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE, check=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert outputs[0].startswith(b"{")
    assert outputs[0] == outputs[1]


def test_closed_stdout_exits_141_without_a_traceback():
    # the report (about 1.3 MB) is far larger than a 64 KiB pipe buffer, so
    # the writer meets the closed pipe after the reader stops
    src = Path(stochlim.__file__).resolve().parents[1]
    word = "a a+ a a+ a a+ a a+ a a+"
    cmd = [sys.executable, "-m", "stochlim.cli", "--mode", "finite",
           "--state", "gaussian", "--pattern", word, "--json"]
    proc = subprocess.Popen(cmd, cwd=src, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(50).startswith(b"{")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert err == b""
