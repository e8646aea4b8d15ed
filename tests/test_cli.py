"""Command-line surface: pinned JSON shapes, exit codes, golden atlas."""

from __future__ import annotations

import json
import multiprocessing
import os
from pathlib import Path

import pytest

from modhom.cli import RunConfig, main

DATA = Path(__file__).parent / "data"

P4_GRAPH = "p graph 4 3\ne 1 2\ne 2 3\ne 3 4\n"
K2_GRAPH = "p graph 2 1\ne 1 2\n"
K2_BIP = "p bip 2 1\nl 1\ne 1 2\n"
PHI_CNF = "c tiny formula\np cnf 2 1\n1 2 0\n"
SPIN_GRAPH = "p multi 3 3\ne 1 2\ne 1 2\ne 2 3\npin 3 1\n"


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, text in [
        ("p4.graph", P4_GRAPH),
        ("k2.graph", K2_GRAPH),
        ("k2.bip", K2_BIP),
        ("phi.cnf", PHI_CNF),
        ("spin.graph", SPIN_GRAPH),
    ]:
        path = tmp_path / name
        path.write_text(text)
        out[name] = str(path)
    out["dir"] = tmp_path
    return out


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv: str) -> dict:
    code, out = run(capsys, *argv)
    assert code == 0
    return json.loads(out)


# ---------------------------------------------------------------------------
# config


def test_config_defaults_and_validation(tmp_path):
    cfg = RunConfig()
    assert cfg.jobs == 1 and cfg.primes == (2, 3, 5)
    good = tmp_path / "conf.json"
    good.write_text('{"jobs": 2, "primes": [2, 7]}')
    loaded = RunConfig.load(str(good))
    assert loaded.jobs == 2 and loaded.primes == (2, 7)
    bad = tmp_path / "bad.json"
    bad.write_text('{"job": 2}')
    from modhom.errors import InputError

    with pytest.raises(InputError):
        RunConfig.load(str(bad))
    with pytest.raises(InputError):
        RunConfig(primes=(4,))
    with pytest.raises(InputError):
        RunConfig(jobs=0)


# ---------------------------------------------------------------------------
# counting and classification commands


def test_count_simple(capsys, files):
    doc = run_json(
        capsys, "count", files["k2.graph"], files["p4.graph"], "--mod", "5"
    )
    assert doc == {"exact": 6, "modulus": 5, "residue": 1}


def test_count_composite_modulus(capsys, files):
    doc = run_json(
        capsys, "count", files["k2.graph"], files["p4.graph"], "--mod", "6"
    )
    assert doc["residue"] == 0
    assert doc["parts"] == {"2": 0, "3": 0}


def test_classify_pinned_verdicts(capsys, files):
    doc2 = run_json(capsys, "classify", files["p4.graph"], "--p", "2")
    assert doc2["verdict"] == "PolyTime"
    doc3 = run_json(capsys, "classify", files["p4.graph"], "--p", "3")
    assert doc3["verdict"] == "Hard"
    assert doc3["certificate"]["a"] == 2
    assert doc3["certificate"]["b"] == 2


def test_reduce_modes(capsys, files):
    doc = run_json(capsys, "reduce", files["p4.graph"], "--p", "2")
    assert doc["result"]["n"] == 0
    assert len(doc["steps"]) == 1
    doc_all = run_json(
        capsys, "reduce", files["p4.graph"], "--p", "2", "--all-paths"
    )
    assert doc_all["mode"] == "all_paths"


# ---------------------------------------------------------------------------
# wbis commands


def test_wbis_z(capsys, files):
    doc = run_json(
        capsys,
        "wbis", "z", files["k2.bip"],
        "--p", "5", "--lambda-left", "3", "--lambda-right", "2",
    )
    assert doc["z"] == 1  # 1 + 3 + 2 mod 5


def test_wbis_gadget(capsys):
    doc = run_json(
        capsys,
        "wbis", "gadget",
        "--p", "3", "--lambda-left", "1", "--lambda-right", "1",
    )
    assert doc["case"] == "i"
    assert doc["z_b"] == 0


def test_wbis_sat_reduce(capsys, files):
    doc = run_json(
        capsys,
        "wbis", "sat-reduce", files["phi.cnf"],
        "--p", "3", "--lambda-left", "1", "--lambda-right", "1",
    )
    assert doc["ok"] is True
    assert doc["sat"] == 3
    assert doc["lhs"] == 0  # K * 3 mod 3


# ---------------------------------------------------------------------------
# spin commands


def test_spin_z(capsys, files):
    doc = run_json(
        capsys,
        "spin", "z", files["spin.graph"],
        "--p", "7", "--gamma", "3", "--lambda", "2",
    )
    assert doc["z"] == 4


def test_spin_classify(capsys):
    doc = run_json(
        capsys,
        "spin", "classify", "--p", "7", "--gamma", "0", "--lambda", "3",
    )
    assert doc["verdict"] == "Hard"
    assert doc["witness"]["kind"] == "clique"
    assert doc["witness"]["size"] == 6


def test_spin_search_single(capsys):
    doc = run_json(
        capsys,
        "spin", "search", "--p", "5", "--gamma", "2", "--lambda", "4",
    )
    assert doc["result"] == "found"
    assert doc["found"]["entries"] == [2, 0, 0]


def test_spin_search_p41(capsys):
    doc = run_json(
        capsys,
        "spin", "search", "--p", "41", "--gamma", "18", "--lambda", "6",
    )
    assert doc["result"] == "found"
    assert doc["found"]["entries"] == [2, 2, 0, 0, 1, 0, 0]
    assert doc["validated"] is True


def test_spin_search_respects_config_cap(capsys, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text('{"search_m_cap": 5}')
    doc = run_json(
        capsys,
        "--config", str(conf),
        "spin", "search", "--p", "41", "--gamma", "18", "--lambda", "6",
    )
    assert doc["result"] == "none-within-bounds"
    assert doc["max_m"] == 5


def test_spin_classify_respects_config_cap(capsys, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text('{"search_m_cap": 2}')
    doc = run_json(
        capsys,
        "--config", str(conf),
        "spin", "classify", "--p", "41", "--gamma", "18", "--lambda", "6",
    )
    assert doc["verdict"] == "Unknown"
    assert "m <= 2" in doc["reason"]


def test_spin_search_sweep_csv(capsys):
    code, out = run(capsys, "spin", "search", "--sweep", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,gamma,lambda,result,witness,z0"
    assert len(lines) == 1 + 12  # 3 qualifying gammas x 4 lambdas
    assert all(",found," in line for line in lines[1:])


def test_spin_search_needs_target(capsys):
    assert main(["spin", "search", "--p", "5"]) == 1


# ---------------------------------------------------------------------------
# verify commands


def test_verify_p4(capsys, files):
    doc = run_json(capsys, "verify", "p4", files["k2.bip"])
    assert doc["ok"] is True and doc["lhs"] == doc["rhs"] == 6


def test_verify_connbis(capsys, files):
    doc = run_json(capsys, "verify", "connbis", files["k2.bip"])
    assert doc["ok"] is True and doc["lhs"] == 5


def test_verify_reduction_congruence(capsys, files):
    doc = run_json(
        capsys,
        "verify", "reduction-congruence",
        files["k2.graph"], files["p4.graph"], "--p", "2",
    )
    assert doc["ok"] is True
    assert doc["detail"]["steps"] == 1


def test_verify_sat_to_wbis(capsys, files):
    doc = run_json(
        capsys,
        "verify", "sat-to-wbis", files["phi.cnf"],
        "--p", "2", "--lambda-left", "1", "--lambda-right", "1",
    )
    assert doc["ok"] is True and doc["lhs"] == doc["rhs"]


def test_verify_wbis_to_homs(capsys, files, tmp_path):
    hfile = tmp_path / "dstar.graph"
    hfile.write_text(
        "p graph 7 6\ne 1 2\ne 1 3\ne 1 4\ne 1 5\ne 2 6\ne 2 7\n"
    )
    doc = run_json(
        capsys,
        "verify", "wbis-to-homs",
        str(files["k2.bip"]), str(hfile), "--p", "5",
    )
    assert doc["ok"] is True and doc["lhs"] == doc["rhs"]


# ---------------------------------------------------------------------------
# atlas


def test_atlas_matches_golden_file(capsys, tmp_path):
    out = tmp_path / "atlas.json"
    code = main(
        ["atlas", "--max-n", "8", "--primes", "2,3,5", "--out", str(out)]
    )
    assert code == 0
    golden = (DATA / "atlas_n8.json").read_bytes()
    assert out.read_bytes() == golden


def test_atlas_parallel_is_deterministic(capsys, tmp_path):
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    assert main(["atlas", "--max-n", "6", "--jobs", "1", "--out", str(one)]) == 0
    assert main(["atlas", "--max-n", "6", "--jobs", "2", "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()


def test_atlas_rows_are_sound(capsys):
    doc = run_json(capsys, "atlas", "--max-n", "5", "--primes", "2,3")
    assert doc["max_n"] == 5 and doc["primes"] == [2, 3]
    rows = doc["rows"]
    # 1+1+1+2+3 trees times two primes
    assert len(rows) == 8 * 2
    for row in rows:
        assert row["verdict"] in ("PolyTime", "Hard")
        assert row["p"] in (2, 3)


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_missing_file(capsys):
    assert main(["classify", "/nonexistent.graph", "--p", "2"]) == 1


def test_exit_code_bad_modulus(capsys, files):
    assert main(["classify", files["p4.graph"], "--p", "4"]) == 1


def test_exit_code_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("p graph 2 1\ne 1 5\n")
    code = main(["classify", str(bad), "--p", "2"])
    assert code == 1


@pytest.mark.parametrize(
    "argv, text",
    [
        (
            ["wbis", "z", "{f}", "--p", "5", "--lambda-left", "1", "--lambda-right", "1"],
            "p bip 2 1\nl x\ne 1 2\n",
        ),
        (["count", "{f}", "{p4}"], "p graph 2 1\ne 1 2\npin 1 y\n"),
    ],
)
def test_exit_code_non_integer_operand(capsys, files, tmp_path, argv, text):
    bad = tmp_path / "bad.graph"
    bad.write_text(text)
    argv = [a.format(f=bad, p4=files["p4.graph"]) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line ") and err.count("\n") == 1


NOT_UTF8 = b"p graph 2 1\ne 1 2\nc \xff\xfe\n"


CLASSIFY = ["classify", "{p4}", "--p", "2"]


@pytest.mark.parametrize(
    "name, content, argv, needle",
    [
        ("list.json", b"[]", ["--config", "{f}"] + CLASSIFY, "JSON object"),
        ("iso.json", b'{"iso_bound": "x"}', ["--config", "{f}"] + CLASSIFY, "iso_bound"),
        ("primes.json", b'{"primes": 5}', ["--config", "{f}", "atlas", "--max-n", "2"], "primes"),
        ("jobs.json", b'{"jobs": true}', ["--config", "{f}", "atlas", "--max-n", "2"], "jobs"),
        ("latin1.json", b'{"jobs": 1}\n\xe9', ["--config", "{f}"] + CLASSIFY, "UTF-8"),
        ("latin1.graph", b"p graph 2 1\ne 1 2\nc \xff\xfe\n", ["classify", "{f}", "--p", "2"], "UTF-8"),
        (
            "latin1.cnf",
            b"p cnf 1 1\n1 0\nc \xff\n",
            ["wbis", "sat-reduce", "{f}", "--p", "5", "--lambda-left", "1", "--lambda-right", "1"],
            "UTF-8",
        ),
    ],
)
def test_malformed_input_is_an_error_line(capsys, files, tmp_path, name, content, argv, needle):
    bad = tmp_path / name
    bad.write_bytes(content)
    argv = [a.format(f=bad, p4=files["p4.graph"]) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err


def test_atlas_jobs_bounded_by_cpu_count(capsys, monkeypatch, tmp_path):
    sizes: list[int] = []

    class RecordingPool:
        """Stands in for multiprocessing.Pool: records the size, starts nothing."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    cpus = os.cpu_count() or 1
    assert main(["atlas", "--max-n", "3", "--jobs", str(cpus + 1)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --jobs") and err.count("\n") == 1
    conf = tmp_path / "many.json"
    conf.write_text(json.dumps({"jobs": 10**6}))
    assert main(["--config", str(conf), "atlas", "--max-n", "3"]) == 1
    assert sizes == []
    if cpus > 1:
        assert main(["atlas", "--max-n", "3", "--jobs", str(cpus)]) == 0
        assert sizes == [cpus]


def test_exit_code_budget(capsys, files, tmp_path):
    conf = tmp_path / "tiny.json"
    conf.write_text('{"state_budget": 10}')
    code = main(
        [
            "--config", str(conf),
            "count", files["p4.graph"], files["p4.graph"],
        ]
    )
    assert code == 2


def test_exit_code_budget_composite_modulus(capsys, files, tmp_path):
    """The config budget holds for a composite modulus too, and the refusal
    names a budget that suffices."""
    conf = tmp_path / "tiny.json"
    conf.write_text('{"state_budget": 10}')
    code = main(
        [
            "--config", str(conf),
            "count", files["p4.graph"], files["p4.graph"], "--mod", "6",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "state budget >= 16 suffices" in err
    assert "state_budget in the CLI config" in err


def test_exit_code_usage(capsys):
    assert main(["definitely-not-a-command"]) == 1


def test_exit_code_help(capsys):
    assert main(["--help"]) == 0
