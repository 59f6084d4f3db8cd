"""End-to-end CLI checks through subprocess: exit codes, JSON shapes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import padicdyn

# the child process imports the same package the tests do
_SRC = str(Path(padicdyn.__file__).resolve().parents[1])
_ENV = {**os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))}


def run_cli(*argv, stdin_text=None):
    proc = subprocess.run(
        [sys.executable, "-m", "padicdyn.cli", *argv],
        capture_output=True,
        text=True,
        input=stdin_text,
        timeout=120,
        env=_ENV,
    )
    return proc


def parse(proc):
    return json.loads(proc.stdout)


FIG_PAYLOAD = '{"series": {"binom": 5, "iterate": 2, "minus_x": true}}'


def test_polygon_flagship():
    proc = run_cli("polygon", "--p", "2", "--N", "16", "--K", "64",
                   "--json", FIG_PAYLOAD)
    assert proc.returncode == 0
    out = parse(proc)
    assert out["vertices"] == [[1, "3"], [2, "2"], [4, "1"], [8, "0"]]
    assert out["root_valuations"] == [["1", 1], ["1/2", 2], ["1/4", 4]]
    assert "ascii" in out


def test_reruns_are_byte_identical():
    args = ("polygon", "--p", "2", "--N", "16", "--K", "64", "--json", FIG_PAYLOAD)
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert first.stdout.endswith("\n")


def test_stdin_payload():
    proc = run_cli("wideg", "--p", "2", "--N", "8", "--K", "32",
                   stdin_text='{"series": {"binom": 25, "ring": "residue", "minus_x": true}}')
    assert proc.returncode == 0
    assert parse(proc)["wideg"] == 8


def test_output_flag_writes_file(tmp_path):
    target = tmp_path / "out.json"
    proc = run_cli("wideg", "--p", "2", "--N", "8", "--K", "32",
                   "--json", '{"series": {"binom": 25, "ring": "residue", "minus_x": true}}',
                   "--output", str(target))
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert json.loads(target.read_text())["wideg"] == 8


def test_negative_verdict_still_exits_zero():
    payload = json.dumps({
        "f": {"binom": 5},
        "u": {"coeffs": [3, 1]},
    })
    proc = run_cli("validate-pair", "--p", "2", "--N", "10", "--K", "12",
                   "--json", payload)
    assert proc.returncode == 0
    out = parse(proc)
    assert out["commutes"] is False
    assert out["is_minimal"] is False


def test_order_not_torsion_exits_zero():
    proc = run_cli("order", "--p", "2", "--N", "4", "--K", "64",
                   "--json", '{"omega": {"binom": 5, "ring": "residue"}, "d_max": 3}')
    assert proc.returncode == 0
    out = parse(proc)
    assert out["order"] == "not torsion within bounds"
    assert out["kind"] == "nottingham"


def test_exit_one_on_bad_json():
    proc = run_cli("polygon", "--json", "{oops")
    assert proc.returncode == 1
    assert parse(proc)["error"]["code"] == "input"


def test_exit_one_on_unknown_command():
    proc = run_cli("frobnicate", "--p", "2", "--N", "4", "--K", "8")
    assert proc.returncode == 1
    assert "unknown command" in parse(proc)["error"]["message"]


def test_exit_one_on_missing_key():
    proc = run_cli("polygon", "--p", "2", "--N", "4", "--K", "8", "--json", "{}")
    assert proc.returncode == 1
    assert "series" in parse(proc)["error"]["message"]


def test_exit_one_on_incomplete_context():
    proc = run_cli("polygon", "--p", "2", "--N", "4",
                   "--json", '{"series": [1, 1]}')
    assert proc.returncode == 1
    assert "missing" in parse(proc)["error"]["message"]


@pytest.mark.parametrize("payload", [
    '{"ctx": {"p": 2.9, "N": 8, "K": 8}, "series": [0, 1]}',
    '{"ctx": {"p": 2, "N": 8, "K": 8}, "series": [0, 1.7]}',
    '{"ctx": {"p": true, "N": 8, "K": 8}, "series": [0, 1]}',
])
def test_exit_one_on_non_integer_field(payload):
    # truncating 2.9 to 2 or 1.7 to 1, or reading true as 1, would compute
    # on an input nobody gave
    proc = run_cli("wideg", "--json", payload)
    assert proc.returncode == 1
    assert parse(proc)["error"]["code"] == "input"


@pytest.mark.parametrize("command,payload", [
    ("wideg", {"series": {"binom": True, "ring": "residue"}}),
    ("wideg", {"series": {"binom": 3, "ring": "residue", "iterate": True}}),
    ("torsion-check", {"f": [2, 1], "min_output_precision": True}),
    ("ramification", {"omega": {"binom": 5, "ring": "residue"}, "n_max": True}),
    ("order", {"omega": {"binom": 5, "ring": "residue"}, "d_max": True}),
    ("normalizer", {"theta": {"binom": 3, "ring": "residue"},
                    "omega": {"binom": 5, "ring": "residue"}, "m": True}),
    ("lambda-check", {"f": {"binom": 2}, "u": {"binom": 3}, "n": True}),
    ("lambda-check", {"f": {"binom": 2}, "u": {"binom": 3}, "n": 2, "delta": True}),
    ("gen-pair", {"kind": "conjugated", "seed": True}),
    ("validate-pair", {"f": {"binom": 2}, "u": {"binom": 3}, "commute_mod": True}),
    ("zp-iterate", {"omega": {"binom": 5, "ring": "residue"}, "a": True, "m": 2}),
    ("zp-iterate", {"omega": {"binom": 5, "ring": "residue"}, "a": 3, "m": True}),
])
def test_exit_one_on_boolean_integer_field(command, payload):
    # true is not the integer 1: every payload integer is read by one
    # reader that refuses bool
    proc = run_cli(command, "--p", "2", "--N", "16", "--K", "8",
                   "--json", json.dumps(payload))
    assert proc.returncode == 1
    assert parse(proc)["error"]["code"] == "input"


def test_exit_two_on_precision_failure():
    payload = '{"omega": {"binom": 5, "ring": "residue"}, "a": 5, "m": 2}'
    proc = run_cli("zp-iterate", "--p", "2", "--N", "4", "--K", "16",
                   "--json", payload)
    assert proc.returncode == 2
    assert parse(proc)["error"]["code"] == "precision"


def test_exit_two_on_precondition_failure():
    # u's linear coefficient sits at the wrong distance from 1
    payload = json.dumps({"f": {"coeffs": [2, 1]}, "u": {"coeffs": [2, 1]},
                          "min_output_precision": 2})
    proc = run_cli("torsion-check", "--p", "2", "--N", "12", "--K", "8",
                   "--json", payload)
    assert proc.returncode == 2
    assert parse(proc)["error"]["code"] == "precondition"


def test_jobs_batch_order_isolation_and_exit(tmp_path):
    jobs = [
        {"command": "wideg", "ctx": {"p": 2, "N": 8, "K": 32},
         "inputs": {"series": {"binom": 25, "ring": "residue", "minus_x": True}}},
        {"command": "polygon", "ctx": {"p": 2, "N": 8, "K": 16}, "inputs": {}},
        {"command": "order", "ctx": {"p": 2, "N": 4, "K": 64},
         "inputs": {"omega": {"coeffs": [1] * 64, "ring": "residue"}}},
    ]
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps({"jobs": jobs}))
    proc = run_cli("--jobs", str(path))
    assert proc.returncode == 1
    out = parse(proc)["results"]
    assert len(out) == 3
    assert out[0]["ok"] and out[0]["result"]["wideg"] == 8
    assert not out[1]["ok"] and out[1]["error"]["code"] == "input"
    assert out[2]["ok"] and out[2]["result"]["order"] == 2


def test_jobs_exit_code_is_max(tmp_path):
    jobs = [
        {"command": "zp-iterate", "ctx": {"p": 2, "N": 4, "K": 16},
         "inputs": {"omega": {"binom": 5, "ring": "residue"}, "a": 5, "m": 2}},
        {"command": "polygon", "inputs": {}},
    ]
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(jobs))
    proc = run_cli("--jobs", str(path))
    assert proc.returncode == 2
    out = parse(proc)["results"]
    assert out[0]["error"]["code"] == "precision"
    assert out[1]["error"]["code"] == "input"


def test_jobs_and_command_conflict():
    proc = run_cli("polygon", "--jobs", "whatever.json")
    assert proc.returncode == 1


def test_gen_pair_seed_determinism():
    args = ("gen-pair", "--p", "3", "--N", "12", "--K", "10",
            "--json", '{"kind": "conjugated"}', "--seed", "7")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    other = run_cli("gen-pair", "--p", "3", "--N", "12", "--K", "10",
                    "--json", '{"kind": "conjugated"}', "--seed", "8")
    assert other.stdout != first.stdout
    out = parse(first)
    assert out["provenance"] == {"kind": "conjugated", "seed": 7}


def test_gen_pair_validate_roundtrip():
    gen = run_cli("gen-pair", "--p", "2", "--N", "12", "--K", "10",
                  "--json", '{"kind": "lt"}')
    assert gen.returncode == 0
    pair = parse(gen)
    payload = json.dumps({"f": pair["f"], "u": pair["u"], "commute_mod": 3})
    proc = run_cli("validate-pair", "--json", payload)
    assert proc.returncode == 0
    out = parse(proc)
    assert out["is_minimal"] is True


def test_commutant_zeta_scalar():
    proc = run_cli("commutant", "--p", "5", "--N", "10", "--K", "8",
                   "--json", '{"f": {"binom": 5}, "a": "zeta"}')
    assert proc.returncode == 0
    series = parse(proc)["series"]
    # a padic scalar routes the recursion through the float ring
    assert series["ring"] == "float"
    assert len(series["coeffs"]) == 8
    from padicdyn import PrimeContext, primitive_torsion_root

    zeta = primitive_torsion_root(PrimeContext(5, 10, 8))
    assert int(series["coeffs"][0]["u"]) % 5 ** 4 == zeta.unit % 5 ** 4


def test_torsion_check_full_run():
    payload = json.dumps({
        "f": {"coeffs": [2, 1]},
        "min_output_precision": 8,
    })
    proc = run_cli("torsion-check", "--p", "2", "--N", "72", "--K", "64",
                   "--json", payload)
    assert proc.returncode == 0
    out = parse(proc)
    assert out["outcome"] == "integral"
    assert "witness_index" not in out
