"""The README's Library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(song_corpus_dir, monkeypatch):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    song_corpus_dir.rename(song_corpus_dir.with_name("docs"))
    monkeypatch.chdir(song_corpus_dir.parent)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["sig"].terms
