import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ergoarrays import pet, szemeredi
from ergoarrays.cli import _build_parser, main
from ergoarrays.util import fraction_to_json

ROT = '{"kind":"circle-rotation-rational","params":{"angle":"1/2"}}'
BERN = '{"kind":"bernoulli-shift","params":{"probs":["1/2","1/2"]}}'
IRR = '{"kind":"circle-rotation-irrational","params":{"angle":"sqrt2-1"}}'


def run(args):
    return main(args)


def run_cli(tmp_path, args):
    """The CLI in a fresh interpreter, from tmp_path."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", "ergoarrays.cli", *args], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=20)


def test_recurrence_and_syndetic_roundtrip(tmp_path):
    out = tmp_path / "r"
    code = run(
        [
            "--out-dir", str(out), "recurrence",
            "--system", ROT,
            "--set", '{"arc":["0","1/4"]}',
            "--pq", "(1,0),(-1,1)",
            "--Nmax", "20",
            "--out", "series",
        ]
    )
    assert code == 0
    csv_text = (out / "series.csv").read_text().splitlines()
    assert csv_text[0] == "N,S_num,S_den"
    assert csv_text[2] == "2,1,8"
    assert csv_text[3] == "3,0,1"
    code = run(["--out-dir", str(out), "syndetic", "--in", str(out / "series.csv")])
    assert code == 0
    doc = json.loads((out / "syndetic.json").read_text())
    assert doc["verdict"] == "syndetic-in-window"
    assert doc["max_gap"] == 2
    assert doc["threshold"] == {"num": "1", "den": "16"}


def test_avg_sweep_json_deterministic(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "observables": [{"set": {"arc": ["0", "1/4"]}}] * 2,
                "exponents": ["N - n", "n"],
            }
        )
    )
    outputs = []
    for run_dir in ("a", "b"):
        out = tmp_path / run_dir
        code = run(
            [
                "--out-dir", str(out), "--format", "both", "avg-sweep",
                "--system", ROT, "--spec", str(spec), "--Ns", "3,4,5,6,7,8",
            ]
        )
        assert code == 0
        outputs.append((out / "avg_sweep.json").read_bytes())
    assert outputs[0] == outputs[1]  # byte-identical exact-tier reports
    doc = json.loads(outputs[0])
    assert doc["verdict"] == "oscillating"
    assert {"num": "1", "den": "256"} in [r["value"] for r in doc["rows"]]
    assert (tmp_path / "a" / "avg_sweep.csv").exists()


def test_avg_sweep_csv_bytes(tmp_path):
    # exact values are written as p/q, Monte Carlo values and errors as floats
    half = {"observables": [{"set": {"arc": ["0", "1/4"]}}] * 2, "exponents": ["N - n", "n"]}
    centered = {"observables": [{"set": {"arc": ["0", "1/4"]}}], "exponents": ["n"], "center": True}
    mc = ["--method", "mc", "--samples", "20"]
    for name, system, spec, Ns, extra in (("exact", ROT, half, "3,4,5", []), ("mc", IRR, centered, "4,8", mc)):
        args = ["avg-sweep", "--system", system, "--spec", json.dumps(spec), "--Ns", Ns, "--out", name, *extra]
        assert run(["--out-dir", str(tmp_path), "--format", "csv", *args]) == 0
    assert (tmp_path / "exact.csv").read_bytes() == (
        b"N,value,method,stderr\r\n3,1/256,exact,0.0\r\n4,25/256,exact,0.0\r\n5,1/256,exact,0.0\r\n"
    )
    assert (tmp_path / "mc.csv").read_bytes() == (
        b"N,value,method,stderr\r\n4,0.025,montecarlo,0.0070243935868627054\r\n"
        b"8,0.00625,montecarlo,0.0017560983967156764\r\n"
    )


def test_avg_sweep_rejects_duplicate_linear_coefficients(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "observables": [{"set": {"cylinder": {"0": 0}}}] * 2,
                "exponents": ["n", "n + N"],
                "assert_distinct": True,
            }
        )
    )
    code = run(["avg-sweep", "--system", BERN, "--spec", str(spec), "--Ns", "4,8"])
    assert code == 2


@pytest.mark.parametrize("field", [{"center": "no"}, {"center": 0}, {"assert_distinct": None}, {"assert_distinct": [True]}])
def test_spec_switches_take_only_json_booleans(tmp_path, capsys, field):
    # "center": "no" used to center, as true does
    spec = json.dumps({"observables": [{"set": {"cylinder": {"0": 0}}}], "exponents": ["n"], **field})
    assert run(["--out-dir", str(tmp_path), "avg-sweep", "--system", BERN, "--spec", spec, "--Ns", "4"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "must be true or false" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "system",
    [
        {"kind": "cyclic-rotation", "params": {"modulus": None}},
        {"kind": "cyclic-rotation", "params": {"modulus": [3]}},
        '{"kind": "cyclic-rotation", "params": {"modulus": 1e400}}',
        {"kind": "cyclic-rotation", "params": {"modulus": 5, "step": True}},
        {"kind": "bernoulli-lattice", "params": {"probs": ["1/2", "1/2"], "d": None}},
        {"kind": "product", "params": {"moduli": [2, None]}},
        {"kind": "relabeled", "params": {"base": {"kind": "cyclic-rotation", "params": {"modulus": 2}}, "relabel": 5}},
        {"kind": "relabeled", "params": {"base": {"kind": "cyclic-rotation", "params": {"modulus": 2}}, "relabel": [5]}},
    ],
    ids=["null", "list", "overflow", "bool", "lattice-null-d", "null-modulus-entry", "relabel-scalar", "relabel-entry"],
)
def test_malformed_scalar_system_params_exit_2(tmp_path, system):
    spec = json.dumps({"observables": [{"set": {"points": [0]}}], "exponents": ["n"]})
    system = system if isinstance(system, str) else json.dumps(system)
    proc = run_cli(tmp_path, ["avg-sweep", "--system", system, "--spec", spec, "--Ns", "4"])
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: system parameter ")


@pytest.mark.parametrize("angle", ['"inf"', '"-inf"', '"nan"', "1e400"])
def test_non_finite_irrational_angle_exits_2(tmp_path, angle):
    system = '{"kind": "circle-rotation-irrational", "params": {"angle": %s}}' % angle
    spec = json.dumps({"observables": [{"set": {"arc": ["0", "1/2"]}}], "exponents": ["n"]})
    proc = run_cli(tmp_path, ["avg-sweep", "--system", system, "--spec", spec, "--Ns", "4", "--method", "mc"])
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: system parameter 'angle' must be finite")


def test_relabeled_product_system_from_json(tmp_path):
    system = '{"kind":"relabeled","params":{"base":{"kind":"product","params":{"moduli":[2]}},"relabel":[[[0],[1]],[[1],[0]]]}}'
    spec = json.dumps({"observables": [{"set": {"points": [[0]]}}], "exponents": ["n"]})
    proc = run_cli(tmp_path, ["avg-sweep", "--system", system, "--spec", spec, "--Ns", "4"])
    assert proc.returncode == 0, proc.stderr
    # a JSON object is no point
    for bad in (system.replace("[[[0],[1]]", '[[[0],{"a":1}]'), system.replace("[[[0],[1]]", '[[[0],[[{}]]]')):
        proc = run_cli(tmp_path, ["avg-sweep", "--system", bad, "--spec", spec, "--Ns", "4"])
        assert proc.returncode == 2 and proc.stderr.count("\n") == 1 and "a point must be" in proc.stderr


def test_malformed_json_is_argument_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run(["avg-sweep", "--system", str(bad), "--spec", str(bad), "--Ns", "4"])
    assert code == 2


def test_malformed_probs_is_argument_error(tmp_path, capsys):
    spec = json.dumps({"observables": [{"set": {"cylinder": {"0": 0}}}], "exponents": ["n"]})
    for system in (
        '{"kind": "bernoulli-shift", "params": {"probs": 5}}',
        '{"kind": "bernoulli-lattice", "params": {"probs": 5, "d": 2}}',
    ):
        args = ["--out-dir", str(tmp_path), "avg-sweep", "--system", system, "--spec", spec, "--Ns", "4"]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'probs' must be a list" in err


BAD_MATRICES = (
    [["1/2", "1/2", "0"], ["1/2", "1/2", "0"]],  # 2x3
    5,
    [["1/2", "1/2"], ["1"]],  # ragged
    [],
    [["1/2", None], ["1/2", "1/2"]],
)


def test_malformed_markov_matrix_is_argument_error(tmp_path, capsys):
    for matrix in BAD_MATRICES:
        system = json.dumps({"kind": "markov-shift", "params": {"matrix": matrix}})
        args = [
            "--out-dir", str(tmp_path), "recurrence", "--system", system,
            "--set", '{"cylinder": {"0": 0}}', "--pq", "(1,0)", "--Nmax", "4",
        ]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Markov matrix" in err
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps({"matrix": matrix}))
        assert run(["--out-dir", str(tmp_path), "mixing", "--chain", str(chain), "--alpha", "1..2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Markov matrix" in err
    assert not list(tmp_path.glob("*.csv")) and not (tmp_path / "mixing_alpha.json").exists()


GOOD_SYSTEM = '{"kind": "cyclic-rotation", "params": {"modulus": 5}}'
GOOD_OBS = '[{"set": {"points": [0]}}]'


def sweep(spec, system=GOOD_SYSTEM):
    return ["avg-sweep", "--system", system, "--spec", spec, "--Ns", "4"]


WRONG_SHAPES = [
    ["mixing", "--chain", "[[1, 2]]"],
    ["mixing-check", "--chain", "[[1, 2]]"],
    ["pet-reduce", "--exprs", "[1]"],
    ["pet-reduce", "--exprs", '{"system": 5}'],
    ["pet-reduce", "--exprs", '{"system": [1]}'],
    ["pet-reduce", "--exprs", '{"system": [{"N": ["N"]}]}'],
    ["pet-reduce", "--exprs", '{"system": [{"n": "n**2"}]}'],
    ["pet-reduce", "--exprs", '{"system": [{"n": ["n**2"], "N": 5}]}'],
    ["pet-reduce", "--exprs", '{"system": [{"n": [null]}]}'],
    sweep('{"observables": %s, "exponents": ["n"]}' % GOOD_OBS, system="[1]"),
    sweep("[1]"),
    sweep('{"observables": 5, "exponents": ["n"]}'),
    sweep('{"observables": [1], "exponents": ["n"]}'),
    sweep('{"observables": [{"set": [0]}], "exponents": ["n"]}'),
    sweep('{"observables": %s, "exponents": [5]}' % GOOD_OBS),
    sweep('{"observables": [{"set": {"points": [[0, 1]]}}], "exponents": ["n"]}'),
    sweep('{"observables": [{"set": {"arc": 5}}], "exponents": ["n"]}', system=ROT),
    sweep('{"observables": [{"set": {"arcs": [["0"]]}}], "exponents": ["n"]}', system=ROT),
    ["recurrence", "--system", GOOD_SYSTEM, "--set", '[1, "a"]', "--pq", "(1,0)", "--Nmax", "4"],
]


@pytest.mark.parametrize("args", WRONG_SHAPES, ids=lambda a: a[0])
def test_wrong_json_shape_is_argument_error(tmp_path, capsys, args):
    # well-formed JSON of the wrong shape: one line on stderr, exit 2
    assert run(["--out-dir", str(tmp_path), *args]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "system",
    [
        '{"kind": "product", "params": {"moduli": [0, 3]}}',
        '{"kind": "product", "params": {"moduli": []}}',
        '{"kind": "circle-rotation-rational", "params": {"angle": "1/0"}}',
        '{"kind": "bernoulli-shift", "params": {"probs": ["1/0", "1/2"]}}',
    ],
    ids=["zero-modulus", "no-moduli", "zero-denominator-angle", "zero-denominator-probs"],
)
def test_degenerate_system_parameters_are_argument_errors(tmp_path, capsys, system):
    args = ["recurrence", "--system", system, "--set", '{"points": [0]}', "--pq", "(1,0)", "--Nmax", "4"]
    assert run(["--out-dir", str(tmp_path), *args]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not list(tmp_path.iterdir())


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2


def test_jobs_flag_and_config_key_are_gone(tmp_path, capsys):
    # sweeps run in one thread: --jobs is an unknown argument, "jobs" an unknown key
    args = ["avg-sweep", "--system", ROT, "--spec", '{"observables": [], "exponents": []}', "--Ns", "4"]
    assert run(["--out-dir", str(tmp_path), *args, "--jobs", "2"]) == 2
    err_lines = capsys.readouterr().err.splitlines()
    assert err_lines[-1] == "ergoarrays: error: unrecognized arguments: --jobs 2"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"jobs": 2}))
    assert run(["--out-dir", str(tmp_path), "--config", str(cfg), *args]) == 2
    assert capsys.readouterr().err == "error: unknown config fields for avg-sweep: ['jobs']\n"


def test_pattern_search(tmp_path):
    code = run(
        [
            "--out-dir", str(tmp_path), "pattern-search",
            "--set", "0 mod 2", "--window", "0,2000",
            "--spec", "(0,0),(1,0),(-1,1)", "--Nmax", "30", "--eps", "1/4",
        ]
    )
    assert code == 0
    doc = json.loads((tmp_path / "pattern_search.json").read_text())
    assert doc["max_gap"] == 2
    assert doc["counts"]["7"] == 0 and doc["counts"]["8"] == 5


@pytest.mark.parametrize(
    "descriptor, window, word",
    [
        ("1 mod 0", "0,100", "modulus"),
        ("1 mod -3", "0,100", "modulus"),
        ("random 1.5 7 0,100", None, "density"),
        ("random nan 7 0,100", None, "density"),
        ("{empty}", None, "window"),
    ],
    ids=["zero-modulus", "negative-modulus", "density-above-1", "nan-density", "empty-file"],
)
def test_malformed_set_descriptors_are_argument_errors(tmp_path, capsys, descriptor, window, word):
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    out = tmp_path / "out"
    args = ["--out-dir", str(out), "pattern-search", "--set", descriptor.format(empty=empty)]
    args += ["--window", window] if window else []
    assert run([*args, "--spec", "(0,0),(1,0)", "--Nmax", "3"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and word in err
    assert not out.exists() or not list(out.iterdir())


def test_pattern_search_counts_each_N_once(tmp_path, monkeypatch):
    s = szemeredi.IntegerSet.from_residue(0, 2, (0, 2000))
    spec = szemeredi.PatternSpec.parse("(0,0),(1,0),(-1,1)")
    counts = {str(N): szemeredi.pattern_count(s, spec, N).count for N in range(1, 31)}
    rep = szemeredi.syndetic_pattern_report(s, spec, 30)
    calls = []
    real = szemeredi.pattern_count
    monkeypatch.setattr(szemeredi, "pattern_count", lambda *a: calls.append(a[2]) or real(*a))
    code = run(
        [
            "--out-dir", str(tmp_path), "pattern-search",
            "--set", "0 mod 2", "--window", "0,2000",
            "--spec", "(0,0),(1,0),(-1,1)", "--Nmax", "30",
        ]
    )
    assert code == 0
    assert sorted(calls) == list(range(1, 31))
    doc = json.loads((tmp_path / "pattern_search.json").read_text())
    assert doc["counts"] == counts
    assert doc["members"] == list(rep.members) and doc["max_gap"] == rep.max_gap
    assert doc["threshold"] == fraction_to_json(rep.threshold)


def test_pet_reduce(tmp_path):
    exprs = tmp_path / "sys.json"
    exprs.write_text(json.dumps({"system": [{"n": ["n**2"]}]}))
    code = run(["--out-dir", str(tmp_path), "pet-reduce", "--exprs", str(exprs)])
    assert code == 0
    doc = json.loads((tmp_path / "pet_reduce.json").read_text())
    assert doc["steps"] == 1 and doc["terminal_is_m0"] is True
    assert doc["chain"][0]["entries"] == [{"r": 1, "d": 2, "count": 1}]


def test_mixing_commands(tmp_path):
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"matrix": [["9/10", "1/10"], ["1/10", "9/10"]]}))
    code = run(
        ["--out-dir", str(tmp_path), "mixing", "--chain", str(chain), "--alpha", "1..3"]
    )
    assert code == 0
    doc = json.loads((tmp_path / "mixing_alpha.json").read_text())
    assert doc["alpha"]["1"] == {"num": "1", "den": "5"}
    code = run(
        [
            "--seed", "5", "--out-dir", str(tmp_path),
            "mixing-check", "--chain", str(chain), "--k", "3", "--trials", "25",
        ]
    )
    assert code == 0
    doc = json.loads((tmp_path / "mixing_check.json").read_text())
    assert doc["holds"] == 25


def test_spectral_command(tmp_path):
    code = run(
        [
            "--out-dir", str(tmp_path), "spectral",
            "--eps", "1/10", "--kmax", "2", "--verify", "--samples", "64",
        ]
    )
    assert code == 0
    doc = json.loads((tmp_path / "spectral.json").read_text())
    assert doc["Ns"] == [1, 50, 125000]
    assert doc["verify_k1"]["samples"] >= 64
    assert run(["spectral", "--eps", "2"]) == 2  # outside (0, 1/(2 pi))


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"Nmax": 6, "out-dir": str(tmp_path / "cfgout")}))
    code = run(
        [
            "--config", str(cfg), "recurrence",
            "--system", ROT, "--set", '{"arc":["0","1/4"]}',
            "--pq", "(1,0),(-1,1)", "--Nmax", "50",
        ]
    )
    assert code == 0
    lines = (tmp_path / "cfgout" / "series.csv").read_text().splitlines()
    assert len(lines) == 7  # header + N = 1..6, config Nmax won

    bad = tmp_path / "bad_cfg.json"
    bad.write_text(json.dumps({"Nmax": 6, "bogus": 1}))
    code = run(
        [
            "--config", str(bad), "recurrence",
            "--system", ROT, "--set", '{"arc":["0","1/4"]}',
            "--pq", "(1,0),(-1,1)", "--Nmax", "50",
        ]
    )
    assert code == 2


SEARCH = ["pattern-search", "--set", "0 mod 2", "--window", "0,100", "--spec", "(0,0),(1,0)", "--Nmax", "3"]


@pytest.mark.parametrize(
    "config, args, message",
    [
        ({"kmax": None}, ["spectral"], "config key 'kmax' must be a JSON string or number, not null"),
        ({"Nmax": None}, SEARCH, "config key 'Nmax' must be a JSON string or number, not null"),
        ({"Nmax": [3]}, SEARCH, "config key 'Nmax' must be a JSON string or number, not [3]"),
        ({"Nmax": "three"}, SEARCH, "config key 'Nmax': invalid int value 'three'"),
        ({"seed": None}, ["spectral"], "config key 'seed' must be a JSON string or number, not null"),
        ({"format": "xml"}, ["spectral"], "config key 'format' must be one of json, csv, both, not 'xml'"),
        ({"verify": 1}, ["spectral"], "config key 'verify' must be true or false, not 1"),
        (["Nmax"], SEARCH, "config file must be a JSON object"),
    ],
    ids=["kmax-null", "nmax-null", "nmax-list", "nmax-word", "seed-null", "format-choice", "switch-int", "list-file"],
)
def test_config_values_take_their_flags_types(tmp_path, capsys, config, args, message):
    # each config value passes its flag's argparse type and choices: one line, exit 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run(["--out-dir", str(out), "--config", str(cfg), *args]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_config_values_are_converted_like_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"Nmax": "4", "seed": 3, "format": "both"}))
    assert run(["--out-dir", str(tmp_path), "--config", str(cfg), *SEARCH]) == 0
    doc = json.loads((tmp_path / "pattern_search.json").read_text())
    assert list(doc["counts"]) == ["1", "2", "3", "4"]
    assert (tmp_path / "pattern_search.csv").exists()
    cfg.write_text(json.dumps({"kmax": "1", "verify": True, "samples": 8}))
    assert run(["--out-dir", str(tmp_path), "--config", str(cfg), "spectral"]) == 0
    doc = json.loads((tmp_path / "spectral.json").read_text())
    assert doc["Ns"] == [1, 50] and doc["verify_k1"]["samples"] >= 8


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    assert _build_parser() is _build_parser()
    # a bad flag exits 2 and leaves the parser fit for the next call
    assert run(["--out-dir", str(tmp_path), "spectral", "--kmax", "two"]) == 2
    assert "argument --kmax: invalid int value: 'two'" in capsys.readouterr().err
    assert run(["--out-dir", str(tmp_path / "a"), "spectral", "--kmax", "1"]) == 0
    assert json.loads((tmp_path / "a" / "spectral.json").read_text())["Ns"] == [1, 50]
    # config overrides do not outlive their call: the next call sees the defaults
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kmax": 1, "eps": "1/20"}))
    assert run(["--out-dir", str(tmp_path / "b"), "--config", str(cfg), "spectral"]) == 0
    assert run(["--out-dir", str(tmp_path / "c"), "spectral"]) == 0
    with_config = json.loads((tmp_path / "b" / "spectral.json").read_text())
    defaults = json.loads((tmp_path / "c" / "spectral.json").read_text())
    assert len(with_config["Ns"]) == 2 and with_config["eps"] == {"num": "1", "den": "20"}
    assert defaults["Ns"] == [1, 50, 125000] and defaults["eps"] == {"num": "1", "den": "10"}


def test_repro_subset(tmp_path):
    code = run(["--out-dir", str(tmp_path), "repro-all", "--criteria", "3"])
    assert code == 0
    doc = json.loads((tmp_path / "repro_all.json").read_text())
    assert doc["results"][0]["number"] == 3 and doc["results"][0]["passed"] is True


def test_resource_cap_exit_code(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "observables": [{"set": {"cylinder": {"0": 0}}}] * 2,
                "exponents": ["n", "n**2"],
            }
        )
    )
    code = run(["avg-sweep", "--system", BERN, "--spec", str(spec), "--Ns", "8192"])
    assert code == 3
    chain = json.dumps({"matrix": [["1/17"] * 17] * 17})
    assert run(["--out-dir", str(tmp_path), "mixing", "--chain", chain, "--alpha", "1"]) == 3


def test_markov_power_past_the_bit_budget_exits_3(tmp_path, capsys):
    # D = 6, so A^30000 would hold entries of about 77500 bits, past the
    # 65536-bit budget: refused before it is built
    args = ["--out-dir", str(tmp_path), "recurrence", "--system", MARKOV, "--set", '{"cylinder": {"0": 0}}',
            "--pq", "(30000,0)", "--Nmax", "2"]
    assert run(args) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("resource cap: matrix power 30000 would pass")
    assert not (tmp_path / "series.csv").exists()


# a dense two-generator system whose descent grows past any desk-scale size
BLOW_UP = {"system": [
    {"n": ["0", "1/6*n**3 - 1/2*n**2 + 1/3*n"], "N": ["-1*N", "-2*N"]},
    {"n": ["1/2*n**2 - 1/2*n", "-1*n**2 - 1*n"], "N": ["N", "0"]},
    {"n": ["1/3*n**3 - 2*n**2 + 8/3*n", "-1/6*n**3 - 1/2*n**2 - 1/3*n"], "N": ["-1*N", "-1*N"]},
]}


def test_pet_reduce_past_the_size_cap_exits_3(tmp_path, capsys, monkeypatch):
    trace = pet.pet_trace
    monkeypatch.setattr(pet, "pet_trace", lambda system: trace(system, max_system_size=64))
    assert run(["--out-dir", str(tmp_path), "pet-reduce", "--exprs", json.dumps(BLOW_UP)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("resource cap: system grew past 64 members at step ")
    assert not list(tmp_path.iterdir())


GAUSS = '{"kind":"gauss-map"}'


@pytest.mark.parametrize("system", [IRR, GAUSS])
@pytest.mark.parametrize("set_doc", [{"arc": ["0", "1/4"]}, {"arcs": [["0", "1/8"], ["1/2", "5/8"]]}])
def test_avg_sweep_mc_on_sampled_systems(tmp_path, system, set_doc):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"observables": [{"set": set_doc}], "exponents": ["n"], "center": True}))
    args = ["avg-sweep", "--system", system, "--spec", str(spec), "--Ns", "4,8", "--method", "mc", "--samples", "20"]
    assert run(["--out-dir", str(tmp_path), *args]) == 0
    doc = json.loads((tmp_path / "avg_sweep.json").read_text())
    assert [r["method"] for r in doc["rows"]] == ["montecarlo", "montecarlo"]


MARKOV = '{"kind":"markov-shift","params":{"matrix":[["1/2","1/2"],["1/3","2/3"]]}}'
LATTICE = '{"kind":"bernoulli-lattice","params":{"probs":["1/2","1/2"],"d":2}}'


def _sweep_exit(tmp_path, capsys, system, *extra):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"observables": [{"set": {"cylinder": {"0": 0}}}], "exponents": ["n"]}))
    args = ["avg-sweep", "--system", system, "--spec", str(spec), "--Ns", "4,8", *extra]
    code = run(["--out-dir", str(tmp_path), *args])
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) <= 1
    return code, err


def test_avg_sweep_mc_without_sampler_exits_2(tmp_path, capsys):
    code, err = _sweep_exit(tmp_path, capsys, MARKOV, "--method", "mc")
    assert code == 2 and "no sampler" in err


def test_lattice_cylinder_with_integer_coordinate_exits_2(tmp_path, capsys):
    # a key "0" is one integer, not a coordinate of Z^2
    code, err = _sweep_exit(tmp_path, capsys, LATTICE)
    assert code == 2 and "not 2-dimensional" in err


CYCLIC = '{"kind":"cyclic-rotation","params":{"modulus":5}}'


@pytest.mark.parametrize(
    "system, set_doc, accepted",
    [
        (BERN, {"arc": ["0", "1/4"]}, "cylinder"),
        (MARKOV, {"points": [0]}, "cylinder"),
        (CYCLIC, {"cylinder": {"0": 0}}, "points"),
        (ROT, {"cylinder": {"0": 0}}, "arc or arcs"),
        (GAUSS, {"points": [0]}, "arc or arcs"),
    ],
    ids=["arc-on-bernoulli", "points-on-markov", "cylinder-on-cyclic", "cylinder-on-rotation", "points-on-gauss"],
)
def test_set_descriptor_of_the_wrong_kind_exits_2(tmp_path, capsys, system, set_doc, accepted):
    spec = json.dumps({"observables": [{"set": set_doc}], "exponents": ["n"]})
    assert run(["--out-dir", str(tmp_path), "avg-sweep", "--system", system, "--spec", spec, "--Ns", "4"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and f"takes set descriptors {accepted}," in err


def test_lattice_cylinder_keys_are_vectors(tmp_path, capsys):
    from fractions import Fraction

    from ergoarrays.averages import ArraySpec, Observable, l2_distance_exact
    from ergoarrays.systems import BernoulliLattice

    cylinders = [{"0,0": 0, "1,0": 1}, {"0,1": 1}]
    spec = json.dumps({"observables": [{"set": {"cylinder": c}} for c in cylinders], "exponents": ["n", "2*n"]})
    args = ["avg-sweep", "--system", LATTICE, "--spec", spec, "--Ns", "3,5"]
    assert run(["--out-dir", str(tmp_path), *args]) == 0
    lat = BernoulliLattice((Fraction(1, 2), Fraction(1, 2)), 2)
    obs = [Observable.indicator(lat.cylinder({(0, 0): 0, (1, 0): 1})), Observable.indicator(lat.cylinder({(0, 1): 1}))]
    expected = [fraction_to_json(l2_distance_exact(ArraySpec.create(lat, obs, ["n", "2*n"]), N)) for N in (3, 5)]
    doc = json.loads((tmp_path / "avg_sweep.json").read_text())
    assert [row["value"] for row in doc["rows"]] == expected
    # malformed keys and symbols: one line, exit 2
    for cylinder in ({"0,a": 0}, {"": 0}, {"0,,1": 0}, {"0,1": [1]}):
        spec = json.dumps({"observables": [{"set": {"cylinder": cylinder}}], "exponents": ["n"]})
        assert run(["--out-dir", str(tmp_path / "bad"), "avg-sweep", "--system", LATTICE, "--spec", spec, "--Ns", "4"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: cylinder ")


def _series_csv(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("N,S_num,S_den\n1,0,1\n2,1,8\n3,0,1\n")
    return str(path)


# malformed series CSVs for syndetic --in, by placeholder
BAD_SERIES = {
    "{csv-zero-den}": "N,S_num,S_den\n1,0,1\n2,1,0\n",
    "{csv-no-num}": "N,S_den\n1,1\n2,8\n",
    "{csv-fraction-cell}": "N,S_num,S_den\n1,0,1\n2,1,8\n3,1/2,1\n",
    "{csv-short-row}": "N,S_num,S_den\n1,0\n",
    "{csv-empty}": "",
}
SERIES_FORM = "a series CSV is N,S_num,S_den with integer cells and S_den > 0"

CHAIN = json.dumps({"matrix": [["9/10", "1/10"], ["1/10", "9/10"]]})


@pytest.mark.parametrize(
    "args, message",
    [
        (["syndetic", "--in", "{csv}", "--eps", "0"], "eps must be > 0"),
        (["syndetic", "--in", "{csv}", "--eps", "-1"], "eps must be > 0"),
        # the file, the line and the form a series CSV needs, not a traceback or a bare key
        (["syndetic", "--in", "{csv-zero-den}"], f"series.csv, line 3: {SERIES_FORM}"),
        (["syndetic", "--in", "{csv-no-num}"], f"series.csv, line 1: {SERIES_FORM}"),
        (["syndetic", "--in", "{csv-fraction-cell}"], f"series.csv, line 4: {SERIES_FORM}"),
        (["syndetic", "--in", "{csv-short-row}"], f"series.csv, line 2: {SERIES_FORM}"),
        (["syndetic", "--in", "{csv-empty}"], f"series.csv, line 1: {SERIES_FORM}"),
        (["spectral", "--verify", "--samples", "0"], "samples must be >= 1"),
        (["spectral", "--verify", "--samples", "-5"], "samples must be >= 1"),
        (["mixing-check", "--chain", CHAIN, "--trials", "-2"], "--trials must be >= 1"),
        (["mixing-check", "--chain", CHAIN, "--k", "0"], "--k must be >= 2"),
        (["mixing-check", "--chain", CHAIN, "--horizon", "-1"], "--horizon must be >= 0"),
        (["repro-all", "--criteria", "99"], "unknown criteria [99]: the criteria are 1-11"),
        (["pattern-search", "--set", "0 mod 2", "--window", "0,100", "--spec", "(0,0),(1,0)", "--Nmax", "0"],
         "--Nmax must be >= 1"),
        # a window or pattern spec of the wrong form names the input and the form it needs
        ([*SEARCH[:3], "--window", "5", *SEARCH[5:]], "--window must be lo,hi"),
        ([*SEARCH[:3], "--window", "a,b", *SEARCH[5:]], "--window must be lo,hi"),
        (["pattern-search", "--set", "random 0.5 7 5", *SEARCH[5:]], "'random <density> <seed> lo,hi' must be lo,hi"),
        (["pattern-search", "--set", "random 0.5 7 a,b", *SEARCH[5:]], "'random <density> <seed> lo,hi' must be lo,hi"),
        ([*SEARCH[:6], "(0,0),(1,0", *SEARCH[7:]], "pattern spec must be pairs (p,q)"),
        ([*SEARCH[:6], "((0,0),(1,0))", *SEARCH[7:]], "pattern spec must be pairs (p,q)"),
    ],
    ids=[
        "syndetic-eps-0", "syndetic-eps-negative", "syndetic-zero-den", "syndetic-no-num-column",
        "syndetic-fraction-cell", "syndetic-short-row", "syndetic-empty-file", "spectral-samples-0", "spectral-samples-negative",
        "mixing-check-trials", "mixing-check-k", "mixing-check-horizon", "repro-unknown-criterion",
        "pattern-search-nmax-0", "window-one-value", "window-not-integers", "inline-window-one-value",
        "inline-window-not-integers", "spec-unclosed", "spec-double-parentheses",
    ],
)
def test_degenerate_arguments_name_the_bad_input(tmp_path, capsys, args, message):
    # a threshold, sample or trial count that makes every check pass is an argument error
    out = tmp_path / "out"
    csv_path = _series_csv(tmp_path)
    for a in args:
        if a in BAD_SERIES:
            Path(csv_path).write_text(BAD_SERIES[a])
    args = [csv_path if a == "{csv}" or a in BAD_SERIES else a for a in args]
    assert run(["--out-dir", str(out), *args]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err
    assert not out.exists()


def test_polynomial_past_degree_cap_exits_3_quickly(tmp_path):
    # the parser refuses the product before expanding it: one line, exit 3
    spec = json.dumps({"observables": [{"set": {"cylinder": {"0": 0}}}], "exponents": ["(n+N)**500"]})
    args = ["avg-sweep", "--system", BERN, "--spec", spec, "--Ns", "4"]
    proc = run_cli(tmp_path, args)
    assert proc.returncode == 3
    assert proc.stderr.count("\n") == 1 and "total degree" in proc.stderr


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit before Python 3.11")
def test_recurrence_csv_past_the_int_str_digit_limit(tmp_path):
    # S(N) on this chain passes 640 digits near N = 37: the CSV must still
    # hold every row, syndetic must read them back, and the caller's limit
    # must come back unchanged and still guard the arguments
    chain = json.dumps(
        {"kind": "markov-shift", "params": {"matrix": [["1/1000000", "999999/1000000"], ["999999/1000000", "1/1000000"]]}}
    )
    args = ["--out-dir", str(tmp_path), "recurrence", "--system", chain, "--set", '{"cylinder": {"0": 0}}',
            "--pq", "(1,0),(2,1)", "--Nmax", "60"]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        codes = [run(args), run(["--out-dir", str(tmp_path), "syndetic", "--in", str(tmp_path / "series.csv")])]
        assert sys.get_int_max_str_digits() == 640
        codes.append(run(args[:-1] + ["1" * 700]))
    finally:
        sys.set_int_max_str_digits(limit)
    assert codes == [0, 0, 2]
    rows = (tmp_path / "series.csv").read_text().splitlines()
    assert len(rows) == 61
    assert max(len(r) for r in rows) > 640
