"""Byte-identity of the command line over a checked-in corpus of commands.

Each line of `data/record_corpus.jsonl` is one JSON object: `argv` for
`cli.main`, `files` (name -> text of every input file the command reads),
the expected `stdout`, `stderr` and exit `status`, and for `reduce` the
expected text of each file it `written`.  The inputs are text, not seeds,
so a change in `random` across Python versions cannot move them.  The
corpus covers `decide` on self-test instances of every fragment under every
`--force-fragment` and `--single-premise`, two 20-variable tautology
reductions (the multi-block oracle, one refuted), two linear instances of
48 and 50 variables, `classify` in both modes and `closure --arity 3` on
criterion-2 bases, every `reduce` kind, and `selftest --cases 20`.
"""

import json
import os

from postimp.cli import main

CORPUS = os.path.join(os.path.dirname(__file__), "data", "record_corpus.jsonl")


def test_every_corpus_record_is_byte_identical(capsys, tmp_path, monkeypatch):
    with open(CORPUS, encoding="utf-8") as fh:
        entries = [json.loads(line) for line in fh]
    assert len(entries) > 150
    mismatches = []
    for k, entry in enumerate(entries):
        workdir = tmp_path / str(k)
        workdir.mkdir()
        for name, text in entry["files"].items():
            (workdir / name).write_text(text, encoding="utf-8")
        monkeypatch.chdir(workdir)
        status = main(entry["argv"])
        out, err = capsys.readouterr()
        written = {name: (workdir / name).read_text(encoding="utf-8") for name in entry.get("written", {})}
        if (status, out, err, written) != (entry["status"], entry["stdout"], entry["stderr"], entry.get("written", {})):
            mismatches.append(entry["argv"])
    assert not mismatches, mismatches
