"""Fuzzing of the CLI's exit-code contract.

Mutated caches, mutated edge lists, and random flags and ``LINKGRAPH_*``
values must end in exit 0, 2, 3 or 4, never in a traceback. A mutated
cache that loads must give the outputs of a clean ingest of the edge
list it decodes to, so no cache can describe a graph the edge-list path
could not.
"""
import contextlib
import gzip
import io
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkgraph import CacheFormatError, build_from_edge_list, load_cache, save_cache
from linkgraph.cli import main

from conftest import reseal

EXIT_CODES = {0, 2, 3, 4}
COMMANDS = [
    ["bowtie", "--classes"],
    ["degrees"],
    ["corr"],
    ["recip", "--per-node", "--scatter", "--export-subgraph"],
]
_IDS = [0, 1, 2, 3, 7, 10, 2**40]


def cli(argv: list[str], out: Path | None = None) -> tuple[int, str, str, dict]:
    """Exit code, stdout, stderr and the files written under ``out``."""
    if out is not None:
        argv = [*argv, "--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    files = {}
    if out is not None and out.is_dir():
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return code, stdout.getvalue(), stderr.getvalue(), files


def assert_contract(code: int, err: str) -> None:
    assert code in EXIT_CODES, err
    assert "Traceback" not in err
    if code:
        assert len(err.splitlines()) >= 1


edge_pairs = st.lists(
    st.tuples(st.sampled_from(_IDS), st.sampled_from(_IDS)), min_size=1, max_size=14
)


def edge_text(pairs) -> str:
    return "".join(f"{u} {v}\n" for u, v in pairs)


def decoded_edge_list(blob: bytes) -> str | None:
    """The edge list of a loadable cache in its input ids, or None when
    an ingest of it could not give back the same graph: an isolated node,
    or a negative id, which no edge list holds."""
    g = load_cache(blob)
    ids = g.original_ids if g.original_ids is not None else np.arange(g.node_count)
    touched = (g.out_degrees + g.in_degrees) > 0
    if not touched.all() or (ids.size and ids[0] < 0):
        return None
    return edge_text(zip(ids[g.fwd_rows].tolist(), ids[g.fwd_targets].tolist()))


@given(
    pairs=edge_pairs,
    edits=st.lists(
        st.tuples(st.integers(0, 10**6), st.one_of(st.integers(0, 9), st.integers(0, 255))),
        min_size=1,
        max_size=3,
    ),
    cut=st.sampled_from([0, 0, 0, -1, 1]),
    sealed=st.sampled_from([True, True, True, False]),
    command=st.sampled_from(COMMANDS),
)
@settings(max_examples=10, deadline=None)
def test_mutated_cache_is_an_input_error_or_the_clean_graph(pairs, edits, cut, sealed, command):
    g, _ = build_from_edge_list(io.StringIO(edge_text(pairs)))
    blob = bytearray(save_cache(g))
    for at, value in edits:
        blob[at % len(blob)] = value
    if cut < 0:
        del blob[cut:]
    elif cut:
        blob += b"\x00"
    blob = reseal(blob) if sealed else bytes(blob)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "g.wgl").write_bytes(blob)
        code, out, err, files = cli([*command, "--cache", str(tmp / "g.wgl")], tmp / "a")
        assert_contract(code, err)
        try:
            text = decoded_edge_list(blob)
        except CacheFormatError:
            assert code == 3
            assert err.startswith("input error:") and len(err.splitlines()) == 1
            return
        assert code in (0, 4)  # 4: a statistic undefined on this graph
        assert save_cache(load_cache(blob)) == blob  # nothing in the bytes is ignored
        if text is None:
            return
        (tmp / "g.txt").write_text(text)
        clean = cli([*command, "--input", str(tmp / "g.txt")], tmp / "b")
        assert clean == (code, out, err, files)


_EDGE_EDITS = st.sampled_from(
    ["#", "-", "x", "\r", "\n", " ", "\t", "5", "\xff", "99999999999999999999", "0 0\n"]
)


@given(
    pairs=edge_pairs,
    edits=st.lists(st.tuples(st.integers(0, 10**6), _EDGE_EDITS), max_size=3),
    compress=st.booleans(),
    truncate=st.booleans(),
    command=st.sampled_from(COMMANDS),
)
@settings(max_examples=10, deadline=None)
def test_mutated_edge_list_ingests_or_is_an_input_error(pairs, edits, compress, truncate, command):
    text = edge_text(pairs)
    for at, edit in edits:
        at %= len(text) + 1
        text = text[:at] + edit + text[at:]
    raw = text.encode("utf-8", "surrogateescape")
    if compress:
        raw = gzip.compress(raw, mtime=0)
        if truncate:
            raw = raw[: len(raw) // 2]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        src, cache = tmp / "e.txt", tmp / "g.wgl"
        src.write_bytes(raw)
        code, _, err, _ = cli(["ingest", "--input", str(src), "--cache", str(cache)])
        assert_contract(code, err)
        assert code in (0, 3)
        direct = cli([*command, "--input", str(src)], tmp / "a")
        assert_contract(direct[0], direct[2])
        if code == 0:
            assert direct == cli([*command, "--cache", str(cache)], tmp / "b")
        else:
            assert direct[0] == 3


_FLAGS = st.sampled_from(
    [
        [], ["--workers", "0"], ["--workers", "2"], ["--workers", "x"], ["--seed", "-1"],
        ["--seed", "5"], ["--format", "json"], ["--format", "xml"], ["--kmin", "0"],
        ["--kmin", "2"], ["--direction", "sideways"], ["--direction", "reciprocal"],
        ["--verbose"], ["--out", "FILE/sub"], ["--cache", "MISSING"], ["--bogus"],
        ["--input", "EDGES"], ["--lambda-in", "1e300"], ["--budget-fraction", "0.5"],
    ]
)
_ENV = st.dictionaries(
    st.sampled_from(
        ["LINKGRAPH_SEED", "LINKGRAPH_WORKERS", "LINKGRAPH_FORMAT", "LINKGRAPH_KMIN",
         "LINKGRAPH_DIRECTION", "LINKGRAPH_VERBOSE", "LINKGRAPH_N", "LINKGRAPH_REPLICAS"]
    ),
    st.sampled_from(["", "0", "1", "-1", "2", "abc", "json", "in", "1e300", "nan"]),
    max_size=3,
)


@given(
    command=st.sampled_from(
        [*COMMANDS, ["simulate", "--n", "60", "--lambda-in", "2"], ["ingest"]]
    ),
    flags=st.lists(_FLAGS, max_size=3),
    env=_ENV,
)
@settings(max_examples=10, deadline=None)
def test_random_flags_and_env_keep_the_exit_contract(command, flags, env):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        tmp = Path(tmp)
        edges = tmp / "e.txt"
        edges.write_text(edge_text([(1, 2), (2, 3), (3, 1), (3, 7)]))
        (tmp / "FILE").write_text("")
        argv = [*command]
        if command[0] not in ("simulate", "ingest"):
            argv += ["--input", str(edges)]
        elif command[0] == "ingest":
            argv += ["--input", str(edges), "--cache", str(tmp / "g.wgl")]
        paths = {"FILE/sub": tmp / "FILE" / "sub", "MISSING": tmp / "none.wgl", "EDGES": edges}
        argv += [str(paths.get(a, a)) for f in flags for a in f]
        for key in [k for k in os.environ if k.startswith("LINKGRAPH_")]:
            mp.delenv(key)
        for key, value in env.items():
            mp.setenv(key, value)
        mp.chdir(tmp)
        code, _, err, _ = cli(argv)
        assert_contract(code, err)
