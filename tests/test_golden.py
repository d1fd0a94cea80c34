"""Byte-stability gate: sha256 of every CLI output for fixed inputs.

Each case runs ``cli.main`` in-process and hashes its standard output and
every file it writes.  A change that alters any output byte of
``generate``, ``analyze`` or ``render`` fails here; a deliberate format
change updates the digests and says why.  The digests were recorded with
numpy 2.4.6 and scipy 1.17.1; other builds of Qhull or libm may move the
last printed digit of some floats.
"""

import hashlib

import pytest

from phyllo import cli

CASES = {
    "plane-analyze-json": (
        ["analyze", "--geometry", "plane", "--n", "3000", "--out", "{out}"],
        {
            "stdout": "1cd67734f1e0b2121faa59e377f6d53368485bc8940670efd14c922c09d4348b",
            "summary.json": "0c5c85a4864bc02ca874ea5dd25f10aca765fb4fc2e4aaf9be15ea4a14df36a1",
            "tessellation.json": "ed2e425fc4d3a36691bd458972b062b4cd3f365809eefdb5746d68806c3d4833",
        },
    ),
    "hyperbolic-analyze-json": (
        ["analyze", "--geometry", "hyperbolic", "--n", "3000", "--a", "0.025",
         "--out", "{out}"],
        {
            "stdout": "77e359a4b93cd27577722d04f0599148f0f981cc6f93aab069d04e40999c50ef",
            "summary.json": "edc9ad8ceb4c070e88089639aa6400ad96649421d7adf40c31c64078bcfecc42",
            "tessellation.json": "09c8953ebf3b6e568c5ab0d535554cc6486abb82e89e810fbda2d773ed73605d",
        },
    ),
    "sphere-analyze-csv": (
        ["analyze", "--geometry", "sphere", "--n", "3001", "--format", "csv",
         "--out", "{out}"],
        {
            "stdout": "3b4c8a9346733dfe06d320c3888231609524876e5997fbe4bb8286f7d4d9286c",
            "areas.csv": "834a65639c451eaff5e808cca0fea49fcb2c4c334ec9ebc38c8ea9cecbff09a9",
            "boundaries.csv": "4c349e0dbfb07bfdde2aa254b2b4eeee5aa98d5bbc0c9db5d0a00e4591df6bf4",
            "distances.csv": "f531448af63c4bd6a6bb2943be5d56d0a1f4c3c6505d7360bd534d442a775b3f",
            "summary.json": "40963d63d93648ffcbd626dc0759411d32b4ec57cff2ce63dc2ef429448f8e58",
        },
    ),
    "hyperbolic-render": (
        ["render", "--geometry", "hyperbolic", "--n", "3000", "--a", "0.025",
         "--out", "{out}/figure.svg"],
        {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "figure.svg": "e5eb395368c98ff7159beac319fb818486876ca8aedd3a983a9520eb66241531",
        },
    ),
    "sphere-render": (
        ["render", "--geometry", "sphere", "--n", "3001", "--out", "{out}/figure.svg"],
        {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "figure.svg": "2761ad67a0d74bd1a291088975649e2b42c94b81f838cb57000b30f4c6158ce0",
        },
    ),
    "sphere-generate": (
        ["generate", "--geometry", "sphere", "--n", "3001", "--out", "{out}/pattern.json"],
        {
            "stdout": "66f6890c517cb750ae8f0a654d9f9cdb7f705c24b96c93f5141fe955a64947e9",
            "pattern.json": "54469c1a852f573e48ed42a7df797364d2e9f9ea2c6fc201040f008d18c38cc8",
        },
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_digests(name, tmp_path, capsys):
    argv, expected = CASES[name]
    out = tmp_path / "out"
    out.mkdir()
    code = cli.main([arg.replace("{out}", str(out)) for arg in argv])
    assert code == 0
    got = {"stdout": _sha256(capsys.readouterr().out.encode("utf-8"))}
    for path in sorted(out.iterdir()):
        got[path.name] = _sha256(path.read_bytes())
    assert got == expected
