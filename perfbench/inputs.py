"""Seeded benchmark inputs, built once per (seed, size) under the
checkout's .bench_cache/ and reused by later runs. Building happens in a
child process that is waited for, outside every timed region and outside
the driver's peak-RSS reading.

The crawl fixture is the program's own synthetic-web fixture,
`sources.synthweb.write_fixture(dir, seed, scale)`.

The documents table of the dedup chain has the schema of the repo's
`documents` test table (doc_id, text, lang, source, n_chars), with
planted exact duplicates (case and whitespace variants) and near
duplicates (a few words replaced) at fixed positions, so every dedup
operator has true positives to find and every seed has the same amount
of duplication.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

from .harness import CACHE, ROOT

VOCAB = ("the a data row column table key value hash join merge sort scan "
         "filter group agg order part line customer window stream batch "
         "vector spark query fast slow big small").split()
LANGS = ("en", "de", "es", "fr", "zh")


def synthweb_dir(seed: int, scale: int) -> str:
    return os.path.join(CACHE, "synthweb", f"seed{seed}-scale{scale}")


def docs_dir(seed: int, n_docs: int) -> str:
    return os.path.join(CACHE, "docs", f"seed{seed}-n{n_docs}")


def _build_docs(out: str, seed: int, n_docs: int) -> None:
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng([seed, 7001])
    texts: list[str] = []
    # one exact and one near duplicate in every 16 documents: the seed
    # picks their sources and edits, not how many there are
    for i in range(n_docs):
        if i % 16 == 5:
            src = texts[int(rng.integers(0, i))]
            texts.append("  " + src.upper().replace(" ", "   ") + " ")
        elif i % 16 == 11:
            words = texts[int(rng.integers(0, i))].lower().split()
            for j in rng.integers(0, len(words), size=max(1, len(words) // 25)):
                words[int(j)] = VOCAB[int(rng.integers(0, len(VOCAB)))]
            texts.append(" ".join(words))
        else:
            n = int(rng.integers(20, 140))
            texts.append(" ".join(VOCAB[int(k)] for k in
                                  rng.integers(0, len(VOCAB), size=n)))
    table = pa.table({
        "doc_id": pa.array(range(n_docs), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array([LANGS[int(k)] for k in
                          rng.integers(0, len(LANGS), size=n_docs)],
                         pa.string()),
        "source": pa.array([f"src{i % 8}" for i in range(n_docs)],
                           pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })
    pq.write_table(table, os.path.join(out, "documents.parquet"))


def _build(kind: str, out: str, seed: int, size: int) -> None:
    tmp = f"{out}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    if kind == "synthweb":
        from dumb_crawler_ray.sources.synthweb import write_fixture

        write_fixture(tmp, seed, size)
    else:
        _build_docs(tmp, seed, size)
    try:
        os.rename(tmp, out)
    except OSError:  # a concurrent build finished first
        shutil.rmtree(tmp, ignore_errors=True)


def ensure(kind: str, seed: int, size: int) -> str:
    """Path of the cached input, building it in a child process first when
    it is missing."""
    out = (synthweb_dir if kind == "synthweb" else docs_dir)(seed, size)
    if not os.path.isdir(out):
        os.makedirs(os.path.dirname(out), exist_ok=True)
        code = ("import sys; from perfbench.inputs import _build; "
                "_build(sys.argv[1], sys.argv[2], int(sys.argv[3]), "
                "int(sys.argv[4]))")
        proc = subprocess.run(
            [sys.executable, "-c", code, kind, out, str(seed), str(size)],
            cwd=ROOT, check=False)
        if proc.returncode != 0 or not os.path.isdir(out):
            raise RuntimeError(f"building {kind} input for seed {seed} "
                               f"size {size} failed")
    return out
