import argparse
import gzip
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from linkgraph import GenerationError, cli, crawl_sim, save_cache
from linkgraph.cli import main

from conftest import TOY8_EDGES, TOY8_N, cache_targets_at, graph_of, reseal, v1_cache


@pytest.fixture
def toy_cache(tmp_path):
    g = graph_of(TOY8_N, TOY8_EDGES)
    p = tmp_path / "toy.wgl"
    p.write_bytes(save_cache(g))
    return p


@pytest.fixture
def edge_file(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("# demo\n1 2\n2 3\n3 1\n3 3\n1 2\n")
    return p


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestIngest:
    def test_report_and_cache(self, edge_file, tmp_path, capsys):
        cache = tmp_path / "g.wgl"
        code, out, _ = run(
            ["ingest", "--input", str(edge_file), "--cache", str(cache)], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ingest"]["edges"] == 3
        assert doc["ingest"]["self_loops_removed"] == 1
        assert doc["ingest"]["duplicates_removed"] == 1
        assert cache.exists()

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code, _, err = run(["ingest", "--input", str(tmp_path / "nope.txt")], capsys)
        assert code == 3
        assert "input error" in err

    def test_parse_error_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 3\n")
        code, _, err = run(["ingest", "--input", str(bad)], capsys)
        assert code == 3
        assert "line 1" in err

    @pytest.mark.parametrize(
        "raw",
        [
            b"1 99999999999999999999\n",
            b"\xff\xfe1\x00 \x002\x00\n\x00",
            "\u0661 \u0662\n".encode(),
        ],
        ids=["id-beyond-int64", "utf16-bom", "arabic-indic-digits"],
    )
    def test_unparseable_bytes_are_input_errors(self, tmp_path, raw, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(raw)
        code, _, err = run(["ingest", "--input", str(bad)], capsys)
        assert code == 3
        assert err.startswith("input error: line 1:")
        assert len(err.splitlines()) == 1


    @pytest.mark.parametrize("truncate", [True, False], ids=["truncated", "junk"])
    def test_corrupt_gzip_is_input_error(self, tmp_path, truncate, capsys):
        packed = gzip.compress(b"0 1\n" * 50_000)
        bad = tmp_path / "bad.gz"
        bad.write_bytes(packed[: len(packed) // 2] if truncate else b"\x1f\x8bjunk")
        code, _, err = run(["ingest", "--input", str(bad)], capsys)
        assert code == 3
        assert err.startswith("input error: line ")
        assert "corrupt gzip stream" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    def test_input_from_a_pipe(self, edge_file, compress):
        raw = edge_file.read_bytes()
        proc = subprocess.run(
            [sys.executable, "-m", "linkgraph.cli", "ingest", "--input", "/dev/stdin"],
            cwd=Path(__file__).parents[1] / "src",
            input=gzip.compress(raw) if compress else raw,
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["ingest"] == {
            "raw_lines": 6, "skipped_lines": 1, "self_loops_removed": 1,
            "duplicates_removed": 1, "nodes": 3, "edges": 3,
        }

    def test_out_naming_a_file_is_usage_error(self, edge_file, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        for out in (taken, taken / "sub"):
            code, stdout, err = run(
                ["ingest", "--input", str(edge_file), "--out", str(out)], capsys
            )
            assert code == 2
            assert stdout == ""
            assert err.startswith("usage error: --out")
            assert len(err.splitlines()) == 1

    def test_input_error_leaves_no_out_dir(self, tmp_path, capsys):
        out = tmp_path / "new" / "out"
        code, _, err = run(
            ["ingest", "--input", str(tmp_path / "missing.txt"), "--out", str(out)], capsys
        )
        assert code == 3
        assert err.startswith("input error:")
        assert not (tmp_path / "new").exists()

    def test_cache_under_a_missing_out_dir(self, edge_file, tmp_path, capsys):
        out = tmp_path / "new" / "out"
        code, stdout, err = run(
            ["ingest", "--input", str(edge_file), "--cache", str(out / "g.wgl"),
             "--out", str(out)],
            capsys,
        )
        assert code == 0, err
        assert json.loads(stdout)["ingest"]["edges"] == 3
        assert (out / "g.wgl").exists()
        assert (out / "ingest.json").read_text() == stdout


class TestBowtie:
    def test_toy_fixture_percentages(self, toy_cache, capsys):
        code, out, _ = run(["bowtie", "--cache", str(toy_cache)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["scc_pct"] == 37.5
        assert doc["in_pct"] == 12.5
        assert doc["out_pct"] == 12.5
        assert doc["tube_pct"] == 12.5
        assert doc["tendril_pct"] == 12.5
        assert doc["disconnected_pct"] == 12.5
        assert doc["main_pct"] == 62.5

    def test_writes_files(self, toy_cache, tmp_path, capsys):
        out_dir = tmp_path / "res"
        code, _, _ = run(
            ["bowtie", "--cache", str(toy_cache), "--out", str(out_dir), "--classes"],
            capsys,
        )
        assert code == 0
        assert (out_dir / "bowtie.json").exists()
        assert (out_dir / "bowtie_summary.txt").exists()
        classes = (out_dir / "bowtie_classes.csv").read_text()
        assert "node,class" in classes.splitlines()[0]

    def test_both_sources_rejected(self, toy_cache, edge_file, capsys):
        code, _, err = run(
            ["bowtie", "--cache", str(toy_cache), "--input", str(edge_file)], capsys
        )
        assert code == 2
        assert "usage error" in err

    def test_no_source_rejected(self, capsys):
        code, _, err = run(["bowtie"], capsys)
        assert code == 2

    def test_corrupt_cache_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.wgl"
        bad.write_bytes(b"XXXX not a cache")
        code, _, err = run(["bowtie", "--cache", str(bad)], capsys)
        assert code == 3

    def test_cache_with_out_of_range_target_is_input_error(self, tmp_path, capsys):
        g = graph_of(TOY8_N, TOY8_EDGES)
        blob = bytearray(save_cache(g))
        at = cache_targets_at(TOY8_N)
        blob[at:at + 4] = (10**6).to_bytes(4, "little")
        bad = tmp_path / "bad.wgl"
        bad.write_bytes(reseal(blob))
        code, _, err = run(["bowtie", "--cache", str(bad)], capsys)
        assert code == 3
        assert err.startswith("input error:")
        assert "out of range" in err


@pytest.mark.parametrize("source", ["--input", "--cache"])
@pytest.mark.parametrize("command", ["bowtie", "degrees", "corr", "recip"])
def test_graph_with_no_nodes_is_one_computation_error(tmp_path, command, source, capsys):
    # self-loops only: ingest keeps no edge and so no node. bowtie used to
    # print every share as 0.0, corr a note per statistic, and degrees and
    # recip two different errors
    loops, cache = tmp_path / "loops.txt", tmp_path / "empty.wgl"
    loops.write_text("1 1\n2 2\n")
    assert run(["ingest", "--input", str(loops), "--cache", str(cache)], capsys)[0] == 0
    out_dir = tmp_path / "out"
    path = loops if source == "--input" else cache
    code, out, err = run([command, source, str(path), "--out", str(out_dir)], capsys)
    assert (code, out, err) == (4, "", "computation error: the graph has no nodes\n")
    assert not out_dir.exists()


def _set_row0(blob: bytearray, row: list[int]) -> bytes:
    at = cache_targets_at(TOY8_N)
    blob[at:at + 4 * len(row)] = np.array(row, dtype="<i4").tobytes()
    return reseal(blob)


def _flip_last(blob: bytearray) -> bytes:
    blob[-1] ^= 1
    return bytes(blob)


# toy8's forward row 0 is [1, 5, 6]
_CACHE_FAULTS = {
    "v1": (lambda blob: v1_cache(graph_of(TOY8_N, TOY8_EDGES)), "linkgraph ingest"),
    "crc": (_flip_last, "checksum"),
    "unsorted": (lambda blob: _set_row0(blob, [5, 1, 6]), "not strictly ascending"),
    "duplicate": (lambda blob: _set_row0(blob, [1, 5, 5]), "duplicate edge"),
    "self-loop": (lambda blob: _set_row0(blob, [0, 5, 6]), "self-loop"),
    "range": (lambda blob: _set_row0(blob, [1, 5, 8]), "out of range"),
}


@pytest.mark.parametrize("command", ["bowtie", "degrees", "corr", "recip"])
@pytest.mark.parametrize("fault", sorted(_CACHE_FAULTS))
def test_faulty_cache_is_one_input_error_line(toy_cache, tmp_path, fault, command, capsys):
    mutate, message = _CACHE_FAULTS[fault]
    bad = tmp_path / "bad.wgl"
    bad.write_bytes(mutate(bytearray(toy_cache.read_bytes())))
    code, out, err = run([command, "--cache", str(bad)], capsys)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("input error:")
    assert message in err


def test_rewired_cache_is_the_graph_of_its_forward_csr(toy_cache, tmp_path, capsys):
    # forward row 0 rewired from 0->1 to 0->3 and re-sealed: it loads as
    # exactly the graph built clean from the rewired edges
    rewired = _set_row0(bytearray(toy_cache.read_bytes()), [3, 5, 6])
    edges = [(u, 3 if (u, v) == (0, 1) else v) for u, v in TOY8_EDGES]
    assert rewired == save_cache(graph_of(TOY8_N, edges))
    bad = tmp_path / "rewired.wgl"
    bad.write_bytes(rewired)
    out_dir = tmp_path / "r"
    code, _, _ = run(["recip", "--cache", str(bad), "--per-node", "--out", str(out_dir)], capsys)
    assert code == 0
    rows = (out_dir / "recip_decomposition.csv").read_text().splitlines()
    assert rows[1:5] == ["0,0,3,0", "1,1,1,0", "2,1,1,0", "3,2,2,0"]


class TestDegrees:
    def test_summaries_and_fit_error_are_graceful(self, edge_file, capsys):
        # a 3-cycle has a single positive degree: no tail fit possible,
        # but the command still succeeds and reports why
        code, out, _ = run(
            ["degrees", "--input", str(edge_file), "--direction", "in"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["in"]["mean"] == 1.0
        assert doc["in"]["kappa"] == 1.0
        assert doc["in"]["fit"] is None
        assert doc["in"]["fit_error"]

    @pytest.mark.parametrize(
        "argv",
        [["degrees", "--kmin", "0"], ["degrees", "--kmin", "-3"], ["recip", "--kmin", "-1"]],
    )
    def test_kmin_below_one_is_usage_error(self, edge_file, argv, capsys):
        code, out, err = run([*argv, "--input", str(edge_file)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:")
        assert len(err.splitlines()) == 1

    def test_all_directions(self, edge_file, tmp_path, capsys):
        out_dir = tmp_path / "deg"
        code, out, _ = run(
            ["degrees", "--input", str(edge_file), "--out", str(out_dir)], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"in", "out", "undirected", "reciprocal"}
        for name in doc:
            assert (out_dir / f"degrees_{name}.csv").exists()


class TestCorrAndRecip:
    def test_corr_outputs(self, toy_cache, tmp_path, capsys):
        out_dir = tmp_path / "corr"
        code, out, _ = run(
            ["corr", "--cache", str(toy_cache), "--out", str(out_dir)], capsys
        )
        assert code == 0
        doc = json.loads(out)
        # n * sum(k_in k_out) / (sum k_in * sum k_out) = 8 * 6 / 64
        assert doc["crossed_one_point"]["value"] == pytest.approx(0.75)
        for variant in ("in_nn_of_in", "out_nn_of_in", "in_nn_of_out", "out_nn_of_out"):
            assert (out_dir / f"corr_knn_{variant}.csv").exists()

    def test_recip_outputs(self, tmp_path, capsys):
        src = tmp_path / "m.txt"
        src.write_text("0 1\n1 0\n0 2\n2 1\n")
        out_dir = tmp_path / "recip"
        code, out, _ = run(
            [
                "recip",
                "--input",
                str(src),
                "--out",
                str(out_dir),
                "--per-node",
                "--scatter",
                "--export-subgraph",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["reciprocity_fraction"] == pytest.approx(0.5)
        assert doc["ratios"]["q_in_q_out"]["value"] == pytest.approx(0.75)
        per_node = (out_dir / "recip_decomposition.csv").read_text().splitlines()
        assert per_node[0] == "node,q_in,q_out,q_r"
        assert len(per_node) == 4
        assert (out_dir / "recip_scatter.csv").exists()
        assert (out_dir / "recip_subgraph_edges.txt").read_text() == "0 1\n"

    def test_out_of_memory_is_computation_error(self, toy_cache, capsys, monkeypatch):
        def too_big(g):  # numpy's own error for an allocation that cannot be made
            return np.empty(1 << 60, dtype=np.uint8)

        monkeypatch.setattr(cli, "decompose", too_big)
        code, _, err = run(["recip", "--cache", str(toy_cache)], capsys)
        assert code == 4
        assert err.startswith("computation error: out of memory: Unable to allocate")
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1

    def test_recip_per_node_files_share_input_ids(self, tmp_path, capsys):
        src = tmp_path / "sparse.txt"
        # a mutual triangle on 100, 200, 300, and a one-way link 300 -> 400
        src.write_text("100 200\n200 100\n100 300\n300 100\n200 300\n300 200\n300 400\n")
        out_dir = tmp_path / "recip"
        code, _, _ = run(
            [
                "recip", "--input", str(src), "--out", str(out_dir),
                "--per-node", "--scatter", "--export-subgraph",
            ],
            capsys,
        )
        assert code == 0
        def table(name):
            lines = (out_dir / name).read_text().splitlines()
            return [line.split(",") for line in lines[1:]]

        q_r = {node: qr for node, _, _, qr in table("recip_decomposition.csv")}
        assert set(q_r) == {"100", "200", "300", "400"}
        scatter = table("recip_scatter.csv")
        assert [node for node, *_ in scatter] == ["100", "200", "300"]
        assert all(q_r[node] == qr for node, qr, *_ in scatter)
        edges = (out_dir / "recip_subgraph_edges.txt").read_text()
        assert set(edges.split()) <= set(q_r)
        assert edges == "100 200\n100 300\n200 300\n"


class TestSimulate:
    def test_runs_and_reports(self, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        code, out, _ = run(
            [
                "simulate",
                "--n", "300",
                "--lambda-in", "4",
                "--reciprocity", "0.3",
                "--budget", "150",
                "--replicas", "2",
                "--seed", "9",
                "--out", str(out_dir),
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["replicas"]) == 2
        names = {e["name"] for e in doc["replicas"][0]["bias"]["entries"]}
        assert names == {
            "scc_pct", "in_pct", "out_pct", "gamma_in",
            "kappa_in", "kappa_out", "reciprocity_fraction", "mean_q_r",
        }
        assert (out_dir / "bias_report_0.csv").exists()
        assert (out_dir / "bias_report_1.csv").exists()

    def test_workers_do_not_change_output(self, tmp_path, capsys, replica_pools):
        argv = ["simulate", "--n", "300", "--lambda-in", "3", "--reciprocity", "0.2",
                "--replicas", "2", "--budget", "150", "--export-observed"]
        files = {}
        for workers in ("1", "3"):
            out_dir = tmp_path / workers
            code, _, _ = run([*argv, "--workers", workers, "--out", str(out_dir)], capsys)
            assert code == 0
            files[workers] = {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}
        assert replica_pools == [2]
        assert "observed_1.txt" in files["1"]
        assert files["1"] == files["3"]

    @pytest.mark.parametrize(
        "cpus, flags",
        [(1, ["--replicas", "3", "--workers", "8"]), (2, ["--replicas", "1", "--workers", "2"])],
    )
    def test_pool_never_outnumbers_cpus_or_replicas(
        self, cpus, flags, capsys, monkeypatch, replica_pools
    ):
        monkeypatch.setattr(crawl_sim, "_usable_cpus", lambda: cpus)
        code, _, err = run(["simulate", "--n", "200", *flags], capsys)
        assert code == 0, err
        assert replica_pools == []

    def test_failed_replica_in_a_worker_keeps_its_message(self, capsys, monkeypatch, replica_pools):
        def infeasible(cfg):
            raise GenerationError("degree sums cannot be balanced")

        monkeypatch.setattr(crawl_sim, "generate", infeasible)
        argv = ["simulate", "--n", "50", "--replicas", "2", "--workers"]
        serial, pooled = run([*argv, "1"], capsys), run([*argv, "2"], capsys)
        assert replica_pools == [2]
        assert serial == pooled == (4, "", "computation error: degree sums cannot be balanced\n")

    def test_dead_worker_is_a_computation_error(self, capsys, monkeypatch, replica_pools):
        parent = os.getpid()

        def die(cfg):  # as a worker the OOM killer ends does
            if os.getpid() == parent:
                raise AssertionError("the replica ran in the test process")
            os._exit(1)

        monkeypatch.setattr(crawl_sim, "generate", die)
        code, out, err = run(["simulate", "--n", "50", "--replicas", "2", "--workers", "2"], capsys)
        assert replica_pools == [2]
        assert (code, out) == (4, "")
        assert err.startswith("computation error: ") and len(err.splitlines()) == 1
        assert multiprocessing.active_children() == []

    def test_bad_workers_rejected(self, capsys):
        code, out, err = run(["simulate", "--n", "200", "--workers", "0"], capsys)
        assert code == 2
        assert out == ""
        assert err == "usage error: argument --workers: must be >= 1\n"

    def test_deterministic_across_invocations(self, capsys):
        argv = ["simulate", "--n", "200", "--lambda-in", "3", "--seed", "4"]
        _, out1, _ = run(argv, capsys)
        _, out2, _ = run(argv, capsys)
        assert out1 == out2

    def test_conflicting_laws_rejected(self, capsys):
        code, _, err = run(
            ["simulate", "--gamma-in", "2.2", "--lambda-in", "3"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--gamma-in", "0.5"],
            ["--budget", "2", "--seed-count", "5"],
            ["--lambda-in", "-1"],
            ["--lambda-in", "nan"],
            ["--lambda-out", "-1"],
            ["--lambda-out", "nan"],
            ["--budget-fraction", "-1"],
            ["--budget-fraction", "3"],
            ["--replicas", "-1"],
            ["--lambda-in", "1e300"],
            ["--lambda-out", "1e300"],
            ["--seed", "-1"],
            ["--n", "0"],
            ["--reciprocity", "2"],
            ["--reciprocity", "nan"],
            # both laws set, so no default law's mean is computed; these
            # asked for a 74.5 GiB arange and a 16 GiB Poisson draw
            ["--gamma-in", "2.1", "--cutoff-in", "10000000000", "--lambda-out", "1"],
            ["--lambda-in", "1", "--gamma-out", "2.1", "--cutoff-out", "200"],
            ["--n", "2147483648", "--lambda-in", "1", "--lambda-out", "1"],
            # checked whatever the law; with a Poisson law it was ignored
            ["--kmin-in", "0", "--lambda-in", "2"],
            # each of these was dropped and the run went on without it
            ["--lambda-in", "2", "--kmin-in", "3"],
            ["--lambda-in", "2", "--cutoff-in", "-5"],
            ["--gamma-in", "2.5", "--kmin-in", "200"],
            ["--kmin-in", "200"],
            ["--kmin-out", "3"],
            ["--budget", "100", "--budget-fraction", "0.9"],
            ["--seed-count", "201"],
        ],
    )
    def test_invalid_settings_are_usage_errors(self, flags, capsys, monkeypatch):
        def no_run(*args):  # a flag that slips through fails here, unallocated
            raise AssertionError("simulate ran")

        monkeypatch.setattr(cli, "run_ensemble", no_run)
        code, _, err = run(["simulate", "--n", "200", *flags], capsys)
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("usage error:")
        assert len(err.splitlines()) == 1

    def test_kmin_and_cutoff_shape_the_default_in_law(self, capsys, monkeypatch):
        # the default in law is a power law, so it reads --kmin-in and
        # --cutoff-in; both were dropped and the output did not change
        plain = run(["simulate", "--n", "300"], capsys)
        laws, real = [], cli.run_ensemble

        def spy(gen_cfg, *rest):
            laws.append(gen_cfg.in_law)
            return real(gen_cfg, *rest)

        monkeypatch.setattr(cli, "run_ensemble", spy)
        shaped = run(["simulate", "--n", "300", "--kmin-in", "5", "--cutoff-in", "50"], capsys)
        assert plain[0] == shaped[0] == 0
        assert shaped[1] != plain[1]
        assert (laws[0].gamma, laws[0].k_min, laws[0].cutoff) == (2.1, 5, 50)

    def test_budget_from_env_excludes_budget_fraction(self, capsys, monkeypatch):
        monkeypatch.setenv("LINKGRAPH_BUDGET", "100")
        code, out, err = run(["simulate", "--n", "200", "--budget-fraction", "0.9"], capsys)
        assert (code, out) == (2, "")
        assert err == (
            "usage error: argument --budget-fraction: not allowed with argument --budget\n"
        )

    def test_default_cutoff_is_never_below_kmin(self, capsys):
        # the default cutoff max(10, n // 10) is 10 here: this was a usage
        # error about --cutoff-in, a flag the command line did not give
        code, out, err = run(
            ["simulate", "--n", "100", "--gamma-in", "2.5", "--kmin-in", "20"], capsys
        )
        assert code == 0, err
        assert json.loads(out)["replicas"][0]["generation"]["node_count"] == 100
        assert cli._zeta_law("in", 2.5, 20, None, 100).cutoff >= 20
        assert cli._zeta_law("in", 2.5, 1, None, 1000).cutoff == 100
        assert cli._zeta_law("in", 2.5, 1, None, 50).cutoff == 10
        assert cli._zeta_law("in", 2.5, 1, None, 5).cutoff == 4

    def test_default_cutoff_fits_a_tiny_graph(self, capsys):
        # the default cutoff was max(10, n // 10) = 10 here, a degree no
        # node of a 5-node graph can have, so draws were clipped
        code, out, err = run(["simulate", "--n", "5", "--replicas", "3"], capsys)
        assert code == 0, err
        replicas = json.loads(out)["replicas"]
        assert len(replicas) == 3
        assert [r["generation"]["clipped_draws"] for r in replicas] == [0, 0, 0]

    def test_infeasible_target_is_computation_error(self, capsys):
        code, _, err = run(
            ["simulate", "--n", "50", "--lambda-in", "2", "--reciprocity", "1.0"],
            capsys,
        )
        assert code == 4
        assert "computation error" in err

    @pytest.mark.parametrize(
        "exc, message",
        [
            (MemoryError("Unable to allocate 16.0 GiB for an array"), "Unable to allocate 16.0 GiB"),
            (MemoryError(), "allocation failed"),
        ],
    )
    def test_out_of_memory_is_computation_error(self, exc, message, capsys, monkeypatch):
        def no_room(*args):
            raise exc

        monkeypatch.setattr(cli, "run_ensemble", no_room)
        code, _, err = run(["simulate", "--n", "200"], capsys)
        assert code == 4
        assert err.startswith(f"computation error: out of memory: {message}")
        assert len(err.splitlines()) == 1


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["degrees", "--bogus"],
            ["degrees", "--format", "xml"],
            ["degrees", "--direction", "sideways"],
            [],
            ["simulate", "--n", "x"],
            # each flag is declared only on the commands that read it
            ["degrees", "--workers", "1"],
            ["bowtie", "--seed", "3"],
            ["report", "--dir", ".", "--format", "json"],
            ["ingest", "--format", "json"],  # ingest writes no table
        ],
    )
    def test_argparse_errors_are_one_line(self, argv, edge_file, capsys):
        if argv and argv[0] in ("degrees", "bowtie", "ingest"):
            argv = [*argv, "--input", str(edge_file)]
        code, out, err = run(argv, capsys)  # returns, never raises SystemExit
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, flag, table",
        [
            (["bowtie", "--cache", "CACHE"], "--classes", "bowtie_classes"),
            (["recip", "--cache", "CACHE"], "--per-node", "recip_decomposition"),
            (["recip", "--cache", "CACHE"], "--scatter", "recip_scatter"),
            (["recip", "--cache", "CACHE"], "--export-subgraph", "recip_subgraph_edges"),
            (["simulate", "--n", "50"], "--export-observed", "observed_0"),
        ],
    )
    def test_table_switch_needs_a_destination(
        self, toy_cache, tmp_path, monkeypatch, capsys, argv, flag, table
    ):
        # with csv and no --out the table was formatted and dropped, and
        # stdout matched a run without the switch
        argv = [str(toy_cache) if a == "CACHE" else a for a in argv]
        rule = f"usage error: {flag} writes a table: give --out DIR, or --format json to print it\n"
        key = "LINKGRAPH_" + flag[2:].replace("-", "_").upper()
        with monkeypatch.context() as m:
            m.setattr(cli, "_load_graph", None)  # the check comes before any work
            m.setattr(cli, "run_ensemble", None)
            assert run([*argv, flag], capsys) == (2, "", rule)
            m.setenv(key, "1")
            assert run(argv, capsys) == (2, "", rule)
            m.setenv("LINKGRAPH_FORMAT", "csv")
            assert run([*argv, flag], capsys) == (2, "", rule)
        code, out, _ = run([*argv, flag, "--format", "json"], capsys)
        assert code == 0 and table in json.loads(out)["tables"]
        code, out, _ = run([*argv, flag, "--out", str(tmp_path / "o")], capsys)
        assert code == 0 and "tables" not in json.loads(out)
        assert list((tmp_path / "o").glob(f"{table}.*"))

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["degrees", "--help"])
        assert exc.value.code == 0
        assert "--direction" in capsys.readouterr().out


# a value outside each flag's range, and argparse's message for it
_RANGES = [
    (["simulate"], "--workers", "0", "must be >= 1"),
    (["simulate"], "--seed", "-1", "must be >= 0"),
    (["simulate"], "--replicas", "0", "must be >= 1"),
    (["simulate"], "--seed-count", "0", "must be >= 1"),
    (["simulate"], "--kmin-in", "0", "must be >= 1"),
    (["simulate"], "--kmin-out", "-2", "must be >= 1"),
    (["simulate"], "--n", "0", "must lie in [1, 2147483647]"),
    (["simulate"], "--n", "2147483648", "must lie in [1, 2147483647]"),
    (["simulate"], "--reciprocity", "-0.1", "must lie in [0, 1]"),
    (["simulate"], "--reciprocity", "nan", "must lie in [0, 1]"),
    (["simulate"], "--budget-fraction", "0", "must lie in (0, 1]"),
    (["simulate"], "--budget-fraction", "nan", "must lie in (0, 1]"),
    (["simulate"], "--gamma-in", "1", "must be > 1"),
    (["simulate"], "--gamma-out", "nan", "must be > 1"),
    (["degrees", "--input", "EDGES"], "--kmin", "0", "must be >= 1"),
    (["recip", "--input", "EDGES"], "--kmin", "-1", "must be >= 1"),
]


class TestEnvAndFormat:
    def test_env_var_supplies_flag(self, edge_file, monkeypatch, capsys):
        monkeypatch.setenv("LINKGRAPH_DIRECTION", "out")
        code, out, _ = run(["degrees", "--input", str(edge_file)], capsys)
        assert code == 0
        assert set(json.loads(out)) == {"out"}

    def test_flag_beats_env(self, edge_file, monkeypatch, capsys):
        monkeypatch.setenv("LINKGRAPH_DIRECTION", "out")
        code, out, _ = run(
            ["degrees", "--input", str(edge_file), "--direction", "in"], capsys
        )
        assert set(json.loads(out)) == {"in"}

    def test_bad_env_value_is_usage_error(self, edge_file, monkeypatch, capsys):
        monkeypatch.setenv("LINKGRAPH_DIRECTION", "sideways")
        code, _, err = run(["degrees", "--input", str(edge_file)], capsys)
        assert code == 2

    @pytest.mark.parametrize("raw, written", [(" Yes ", True), ("OFF", False), ("", False)])
    def test_boolean_env_values(self, toy_cache, tmp_path, monkeypatch, capsys, raw, written):
        monkeypatch.setenv("LINKGRAPH_CLASSES", raw)
        out_dir = tmp_path / "res"
        code, _, _ = run(["bowtie", "--cache", str(toy_cache), "--out", str(out_dir)], capsys)
        assert code == 0
        assert (out_dir / "bowtie_classes.csv").exists() is written

    def test_garbage_boolean_env_is_usage_error(self, toy_cache, tmp_path, monkeypatch, capsys):
        # read as false, it exited 0 and silently wrote no class file
        monkeypatch.setenv("LINKGRAPH_CLASSES", "maybe")
        out_dir = tmp_path / "res"
        code, out, err = run(["bowtie", "--cache", str(toy_cache), "--out", str(out_dir)], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "LINKGRAPH_CLASSES='maybe'" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "key, raw, argv",
        [
            ("LINKGRAPH_N", "abc", ["bowtie", "--input", "EDGES"]),
            ("LINKGRAPH_REPLICAS", "x", ["report", "--dir", "DIR"]),
            ("LINKGRAPH_FORMAT", "xml", ["report", "--dir", "DIR"]),
        ],
    )
    def test_env_of_another_command_is_not_read(
        self, edge_file, tmp_path, monkeypatch, capsys, key, raw, argv
    ):
        # every parser used to read every variable, so these exited 2
        paths = {"EDGES": str(edge_file), "DIR": str(tmp_path)}
        argv = [paths.get(a, a) for a in argv]
        plain = run(argv, capsys)
        monkeypatch.setenv(key, raw)
        assert run(argv, capsys) == plain
        assert plain[0] == 0

    @pytest.mark.parametrize("via", ["flag", "env"])
    @pytest.mark.parametrize(
        "argv, flag, raw, rule", _RANGES, ids=[f"{a[0]}{f}={r}" for a, f, r, _ in _RANGES]
    )
    def test_each_range_is_checked_from_flag_and_env(
        self, edge_file, monkeypatch, capsys, argv, flag, raw, rule, via
    ):
        def no_run(*args):  # a value that slips through fails here, unallocated
            raise AssertionError("simulate ran")

        monkeypatch.setattr(cli, "run_ensemble", no_run)
        argv = [str(edge_file) if a == "EDGES" else a for a in argv]
        if via == "flag":
            argv += [flag, raw]
        else:
            monkeypatch.setenv("LINKGRAPH_" + flag[2:].replace("-", "_").upper(), raw)
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (2, "", f"usage error: argument {flag}: {rule}\n")

    def test_range_bounds_are_admitted(self):
        share = cli._ranged(float, lo=0, hi=1)
        assert (share("0"), share("1")) == (0.0, 1.0)
        assert cli._ranged(float, above=0, hi=1)("1") == 1.0
        assert cli._ranged(int, lo=1, hi=5)("5") == 5
        with pytest.raises(argparse.ArgumentTypeError, match=r"^must be > 0$"):
            cli._ranged(float, above=0)("0")

    def test_env_supplies_the_graph_source(self, edge_file, toy_cache, monkeypatch, capsys):
        monkeypatch.setenv("LINKGRAPH_INPUT", str(edge_file))
        code, out, _ = run(["bowtie"], capsys)
        assert code == 0
        assert json.loads(out)["scc_pct"] == 100.0
        # the two sources exclude each other from the environment too
        code, out, err = run(["bowtie", "--cache", str(toy_cache)], capsys)
        assert (code, out) == (2, "")
        assert err == "usage error: argument --cache: not allowed with argument --input\n"

    def test_json_format_folds_tables(self, toy_cache, tmp_path, capsys):
        out_dir = tmp_path / "j"
        code, out, _ = run(
            [
                "bowtie",
                "--cache", str(toy_cache),
                "--out", str(out_dir),
                "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert "bowtie_summary" in doc["tables"]
        assert not (out_dir / "bowtie_summary.txt").exists()
        assert (out_dir / "bowtie.json").exists()


class TestReport:
    def test_merges_json_documents(self, toy_cache, tmp_path, capsys):
        out_dir = tmp_path / "all"
        run(["bowtie", "--cache", str(toy_cache), "--out", str(out_dir)], capsys)
        run(["degrees", "--cache", str(toy_cache), "--out", str(out_dir)], capsys)
        code, out, _ = run(
            ["report", "--dir", str(out_dir), "--out", str(out_dir)], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["bowtie"]["scc_pct"] == 37.5
        assert "in" in doc["degrees"]
        assert (out_dir / "report.json").read_text() == out

    def test_missing_dir_is_input_error(self, tmp_path, capsys):
        code, _, _ = run(["report", "--dir", str(tmp_path / "void")], capsys)
        assert code == 3

    @pytest.mark.parametrize(
        "raw", [b'{"a": 1', b"\xff\xfe{}"], ids=["malformed-json", "not-utf8"]
    )
    def test_unreadable_json_is_input_error(self, tmp_path, raw, capsys):
        (tmp_path / "x.json").write_bytes(raw)
        code, _, err = run(["report", "--dir", str(tmp_path)], capsys)
        assert code == 3
        assert err.startswith("input error:")
        assert "x.json" in err
        assert len(err.splitlines()) == 1


class TestOutputPath:
    """Each table is written as soon as it is made, ``<command>.json``
    last; ``--verbose`` names each table on stderr."""

    def test_a_replica_is_written_before_the_next_is_formatted(
        self, tmp_path, capsys, monkeypatch
    ):
        out_dir, seen, real = tmp_path / "sim", [], cli.export.edge_list_text

        def spy(graph):
            seen.append(sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else [])
            return real(graph)

        monkeypatch.setattr(cli.export, "edge_list_text", spy)
        argv = ["simulate", "--n", "300", "--replicas", "3", "--export-observed"]
        code, _, err = run([*argv, "--out", str(out_dir)], capsys)
        assert code == 0, err
        assert len(seen) == 3
        assert "observed_0.txt" in seen[1] and "observed_1.txt" not in seen[1]
        assert "simulate.json" not in seen[2]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failed_replica_leaves_the_earlier_tables_and_no_document(
        self, workers, tmp_path, capsys, monkeypatch, replica_pools
    ):
        real = crawl_sim.generate

        def second_fails(cfg):
            if cfg.rng_seed == crawl_sim.replica_seed(cli.DEFAULT_SEED, 1, 0):
                raise GenerationError("replica 1 cannot be balanced")
            return real(cfg)

        monkeypatch.setattr(crawl_sim, "generate", second_fails)
        out_dir = tmp_path / "sim"
        argv = ["simulate", "--n", "200", "--replicas", "3", "--workers", workers]
        code, out, err = run([*argv, "--out", str(out_dir)], capsys)
        assert (code, out, err) == (4, "", "computation error: replica 1 cannot be balanced\n")
        assert sorted(p.name for p in out_dir.iterdir()) == ["bias_report_0.csv"]
        assert replica_pools == ([2] if workers == "2" else [])
        assert multiprocessing.active_children() == []

    def test_verbose_names_each_table_and_changes_no_output(
        self, toy_cache, edge_file, tmp_path, capsys
    ):
        docs = tmp_path / "docs"
        assert run(["bowtie", "--cache", str(toy_cache), "--out", str(docs)], capsys)[0] == 0
        commands = {
            "ingest": ["ingest", "--input", str(edge_file), "--cache", "OUT/g.wgl"],
            "bowtie": ["bowtie", "--cache", str(toy_cache), "--classes"],
            "degrees": ["degrees", "--cache", str(toy_cache)],
            "corr": ["corr", "--cache", str(toy_cache)],
            "recip": ["recip", "--cache", str(toy_cache), "--per-node"],
            "simulate": ["simulate", "--n", "200", "--replicas", "2"],
            "report": ["report", "--dir", str(docs)],
        }
        for name, argv in commands.items():
            runs = {}
            for flags in ([], ["--verbose"]):
                out_dir = tmp_path / name / str(len(flags))
                argv_out = [a.replace("OUT", str(out_dir)) for a in argv]
                code, out, err = run([*argv_out, *flags, "--out", str(out_dir)], capsys)
                assert code == 0, err
                files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
                runs[bool(flags)] = (out, files, err)
            assert runs[True][:2] == runs[False][:2], name
            assert runs[False][2] == "", name
            lines = runs[True][2].splitlines()
            assert lines and all(line.startswith("INFO linkgraph: ") for line in lines), name
            for table in set(runs[True][1]) - {f"{name}.json", "g.wgl"}:
                assert any(line.startswith(f"INFO linkgraph: {table}: ") for line in lines)

    def test_each_call_takes_its_own_verbosity(self, capsys):
        argv = ["simulate", "--n", "50"]
        assert run(argv, capsys)[::2] == (0, "")
        code, _, err = run([*argv, "--verbose"], capsys)
        assert code == 0
        assert "INFO linkgraph: bias_report_0.csv: " in err
        assert run(argv, capsys)[::2] == (0, "")


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "linkgraph.cli", "--help"],
        cwd=Path(__file__).parents[1] / "src",  # `-m` puts the cwd on sys.path
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ingest" in proc.stdout


def test_cli_import_leaves_scipy_optimize_out():
    # every CLI process pays for what the package imports
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, linkgraph.cli; print('scipy.optimize' in sys.modules)"],
        cwd=Path(__file__).parents[1] / "src",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# what each command may load of scipy, and what it must load to have
# done its work: every process pays for its imports at start-up
SCIPY_USE = {
    "import": ((), ("scipy",)),
    "ingest": ((), ("scipy",)),
    "corr": ((), ("scipy",)),
    "bowtie": (("scipy.sparse.csgraph",), ("scipy.special",)),
    "degrees": ((), ("scipy",)),
    "recip": ((), ("scipy",)),
    "simulate": (("scipy.sparse.csgraph",), ("scipy.special",)),
    "report": ((), ("scipy",)),
}


@pytest.mark.parametrize("command", list(SCIPY_USE))
def test_commands_load_only_the_scipy_they_compute_with(command, tmp_path):
    edges = tmp_path / "edges.txt"
    lines = [f"{i} {(7 * i + 3) % 20}\n{i} {(i + 1) % 20}\n{(i + 1) % 20} {i}\n" for i in range(20)]
    edges.write_text("".join(lines))
    (tmp_path / "doc.json").write_text('{"edges": 60}')
    argv = {
        "import": [],
        "simulate": ["simulate", "--n", "60"],
        "report": ["report", "--dir", str(tmp_path)],
    }.get(command, [command, "--input", str(edges)])
    script = (
        "import sys\n"
        "from linkgraph.cli import main\n"
        "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "print(code, *sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        cwd=Path(__file__).parents[1] / "src",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.splitlines()[-1].split()
    assert code == "0", proc.stderr
    needed, banned = SCIPY_USE[command]
    for name in needed:
        assert name in loaded
    assert not [m for m in loaded if m.startswith(banned)]


def test_no_module_names_scipy_special():
    # the Hurwitz zeta of the tail fits is computed in numpy
    package = Path(__file__).parents[1] / "src" / "linkgraph"
    modules = sorted(package.rglob("*.py"))
    assert modules
    assert [m.name for m in modules if "scipy.special" in m.read_text(encoding="utf-8")] == []
