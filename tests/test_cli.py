"""Command-line surface: pinned JSON shapes, exit codes, golden atlas."""

from __future__ import annotations

import json
import multiprocessing
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modhom import cli
from modhom.cli import RunConfig, main
from modhom.crossred import P4Report
from modhom.errors import InputError, state_budget_default
from modhom.graphs import parse_graph
from modhom.wbis import parse_dimacs_cnf

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


def test_wbis_sat_reduce_at_p97(capsys):
    """At p=97 each of the 24 gadget copies has 4·96 vertices and
    192² - 84 edges (k = 84 ≡ -(3·5)^-1), around a core of 48 vertices and
    72 edges; no cross-check runs on a graph that size."""
    doc = run_json(
        capsys,
        "wbis", "sat-reduce", str(DATA / "phi_6x12.cnf"),
        "--p", "97", "--lambda-left", "3", "--lambda-right", "5",
    )
    assert doc == {
        "K": 22, "case": "i", "checks": [], "edges": 72 + 24 * (192**2 - 84),
        "lhs": 17, "ok": True, "p": 97, "sat": 14, "vertices": 48 + 24 * 383,
    }


def test_wbis_sat_reduce_counts_under_the_state_budget(capsys, tmp_path, monkeypatch):
    """#SAT on 25 variables takes 2^25 assignments: within the default
    budget, and refused one below 2^25 with 2^25 named as enough."""
    monkeypatch.delenv("MODHOM_BUDGET_STATES", raising=False)
    cnf = tmp_path / "wide.cnf"
    cnf.write_text("p cnf 25 2\n1 -2 0\n3 4 0\n")
    argv = [
        "wbis", "sat-reduce", str(cnf),
        "--p", "3", "--lambda-left", "1", "--lambda-right", "1",
    ]
    doc = run_json(capsys, *argv)
    assert doc["ok"] is True
    assert doc["sat"] == 9 << 21
    conf = tmp_path / "tight.json"
    conf.write_text('{"state_budget": 33554431}')
    assert main(["--config", str(conf), *argv]) == 2
    err = capsys.readouterr().err
    assert "state budget 33554431; a state budget >= 33554432 suffices" in err


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


def test_spin_search_with_entry_and_family_caps(capsys):
    doc = run_json(
        capsys,
        "spin", "search", "--p", "11", "--gamma", "5", "--lambda", "6",
        "--entry-cap", "8", "--max-m", "7",
    )
    assert doc["result"] == "found"
    assert doc["found"]["entries"] == [3, 0, 0, 0, 1, 0, 0]
    assert (doc["entry_cap"], doc["max_m"]) == (8, 7)
    assert doc["z0"] == doc["z1"] != 0


@pytest.mark.parametrize("command", ["classify", "search"])
@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--max-m", "1", "family size cap must be at least 2"),
        ("--entry-cap", "-1", "entry cap must be non-negative"),
    ],
)
def test_spin_refuses_caps_out_of_range(capsys, command, flag, value, message):
    # at (5, 2, 3) lambda is a power of gamma, so classify answers before
    # any search
    argv = ["spin", command, "--p", "5", "--gamma", "2", "--lambda", "3", flag, value]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["--p", "7", "--gamma", "2", "--lambda", "3", "--entry-cap", "0"],
        ["--sweep", "7"],
    ],
)
def test_spin_search_refuses_a_scan_over_the_state_budget(capsys, argv, monkeypatch):
    monkeypatch.delenv("MODHOM_BUDGET_STATES", raising=False)  # the default, 10^8
    assert main(["spin", "search", *argv, "--max-m", "2000"]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # a sweep refuses before its CSV header
    assert err.startswith("error: the gadget scan up to family size 2000 needs 1333331001")
    assert "a state budget >= 1333331001 suffices" in err


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


def test_verify_failure_exits_one(capsys, files, monkeypatch):
    """A failed identity still prints its report, and exits 1."""
    monkeypatch.setattr(
        cli, "verify_p4_identity", lambda g: P4Report(3, 5, False, "counts-only")
    )
    code, out = run(capsys, "verify", "p4", files["k2.bip"])
    assert code == 1
    assert '"ok": false' in out
    assert json.loads(out)["lhs"] == 6


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


def test_atlas_beyond_twelve_vertices(capsys):
    doc = run_json(capsys, "atlas", "--max-n", "13", "--primes", "2")
    rows = doc["rows"]
    assert len(rows) == 2288
    assert sum(row["n"] == 13 for row in rows) == 1301
    assert {row["verdict"] for row in rows} <= {"PolyTime", "Hard"}


def test_atlas_refuses_a_repeated_prime(capsys, tmp_path):
    assert main(["atlas", "--max-n", "4", "--primes", "7,3,3,2"]) == 1
    assert capsys.readouterr().err == "error: prime 3 is listed twice\n"
    conf = tmp_path / "twice.json"
    conf.write_text('{"primes": [5, 2, 5]}')
    assert main(["--config", str(conf), "atlas", "--max-n", "2"]) == 1
    assert capsys.readouterr().err == "error: prime 5 is listed twice\n"


def test_atlas_refuses_an_empty_prime_list(capsys, tmp_path):
    assert main(["atlas", "--max-n", "4", "--primes", ","]) == 1
    assert capsys.readouterr().err == "error: the prime list is empty\n"
    conf = tmp_path / "none.json"
    conf.write_text('{"primes": []}')
    assert main(["--config", str(conf), "atlas", "--max-n", "2"]) == 1
    assert capsys.readouterr().err == "error: the prime list is empty\n"


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_atlas_refuses_max_n_below_one(capsys, max_n):
    assert main(["atlas", "--max-n", max_n, "--primes", "2"]) == 1
    assert capsys.readouterr().err == "error: --max-n must be at least 1\n"


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


_TOKEN = st.one_of(
    st.sampled_from(["p", "graph", "multi", "bip", "cnf", "e", "l", "pin", "c", "0"]),
    st.integers(-3, 12).map(str),
    st.text(max_size=3),
)
_HEADER = st.tuples(
    st.sampled_from(["p graph", "p multi", "p bip", "p cnf", "c"]),
    st.integers(0, 5),
    st.integers(0, 3),
).map(lambda t: " ".join(map(str, t)))
_DIRECTIVE = st.tuples(
    st.sampled_from(["e", "l", "pin", "", "-1"]), st.integers(-1, 5), st.integers(-1, 5)
)
_LINES = st.lists(
    st.one_of(
        st.lists(_TOKEN, max_size=5).map(" ".join),
        _DIRECTIVE.map(lambda t: " ".join(map(str, t))),
    ),
    max_size=8,
)


@given(
    _HEADER,
    _LINES,
    st.sampled_from(["simple", "multi", "bipartite", "labelled", "cnf"]),
)
@settings(max_examples=600, deadline=None)
def test_parsers_answer_or_raise_input_error(header, lines, kind):
    text = "\n".join([header, *lines])
    try:
        if kind == "cnf":
            parse_dimacs_cnf(text)
        else:
            parse_graph(text, kind)
    except InputError:
        pass


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


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "k2.graph", "k2.graph"],
        ["wbis", "z", "k2.bip", "--p", "5", "--lambda-left", "3", "--lambda-right", "2"],
        ["wbis", "sat-reduce", "phi.cnf", "--p", "3", "--lambda-left", "1", "--lambda-right", "1"],
        ["spin", "z", "spin.graph", "--p", "7", "--gamma", "3", "--lambda", "2"],
        ["spin", "search", "--p", "7", "--gamma", "3", "--lambda", "2"],
        ["verify", "wbis-to-homs", "k2.bip", "dstar.graph", "--p", "5"],
        ["verify", "sat-to-wbis", "phi.cnf", "--p", "2", "--lambda-left", "1", "--lambda-right", "1"],
        ["verify", "connbis", "k2.bip"],
        ["verify", "p4", "k2.bip"],
        ["verify", "reduction-congruence", "k2.graph", "p4.graph", "--p", "2"],
    ],
)
def test_config_state_budget_bounds_every_partition_sum(capsys, files, argv, monkeypatch):
    """The config key wins over the environment, for every subcommand that
    evaluates a partition sum, and only while main runs."""
    monkeypatch.setenv("MODHOM_BUDGET_STATES", str(10**6))
    conf = files["dir"] / "one.json"
    conf.write_text('{"state_budget": 1}')
    (files["dir"] / "dstar.graph").write_text(
        "p graph 7 6\ne 1 2\ne 1 3\ne 1 4\ne 1 5\ne 2 6\ne 2 7\n"
    )
    paths = dict(files, **{"dstar.graph": str(files["dir"] / "dstar.graph")})
    argv = [paths.get(a, a) for a in argv]
    assert main(["--config", str(conf), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "state budget 1;" in err
    assert state_budget_default() == 10**6
    assert main(argv) == 0


@pytest.mark.parametrize(
    "header, argv",
    [
        ("p bip 100000000 0", ["wbis", "z", "{f}", "--p", "5", "--lambda-left", "1", "--lambda-right", "1"]),
        ("p graph 100000000 0", ["classify", "{f}", "--p", "2"]),
    ],
)
def test_exit_code_huge_header(capsys, tmp_path, header, argv):
    f = tmp_path / "huge.graph"
    f.write_text(header + "\n")
    assert main([a.format(f=f) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: header announces 100000000") and err.count("\n") == 1


def test_exit_code_usage(capsys):
    assert main(["definitely-not-a-command"]) == 1


def test_exit_code_help(capsys):
    assert main(["--help"]) == 0
