import gzip
import re
from pathlib import Path

from linkgraph import GeneratorConfig, PoissonDegreeLaw, ZetaDegreeLaw, cli, export, generate

README = Path(__file__).parents[1] / "README.md"


def test_quickstart_runs(tmp_path, monkeypatch, capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL).group(1)
    cfg = GeneratorConfig(2000, ZetaDegreeLaw(2.3, 1, 200), PoissonDegreeLaw(3.0), 0.3, rng_seed=5)
    g, _ = generate(cfg)
    with gzip.open(tmp_path / "edges.txt.gz", "wt") as fh:
        fh.write(export.edge_list_text(g))
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert 0.25 < float(printed[-1]) < 0.35  # the reciprocity fraction asked of generate


def test_flag_table_matches_the_parser():
    text = README.read_text()
    table = text[text.index("Each flag is declared only on the commands that read it"):]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", table.split("\n\n")[1], re.MULTILINE)
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    assert sorted(name for name, _ in rows) == sorted(commands)
    for name, cell in rows:
        listed = []
        for flag in re.findall(r"`(--[a-z-]+\*?)`", cell):
            listed += [flag[:-1] + "in", flag[:-1] + "out"] if flag.endswith("*") else [flag]
        declared = [s for a in commands[name]._actions for s in a.option_strings]
        assert sorted(listed) == sorted(set(declared) - {"-h", "--help"}), name
