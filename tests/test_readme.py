import gzip
import re
from pathlib import Path

from linkgraph import GeneratorConfig, PoissonDegreeLaw, ZetaDegreeLaw, export, generate

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
