"""Exact bytes of every file the ``bench`` command line writes.

One small session: ``bench datagen`` writes a make-or-buy and a flow-shop
dataset, ``bench run`` runs eldt on the first and gp on the second (two runs
each, budgets that stop part way through a generation), and ``bench
compare`` writes its matrix. A change to any writer, to the number format,
to the header lines or to a runner's draws moves a digest here.
"""

import hashlib

import pytest

from evoscm.cli import main

# sha256 per file, relative to the session's working directory.
ARTIFACT_SHA256 = {
    "orders.csv":
        "5dbed1e857018afd870706a80a53d89071be6eebcf5858c9b1bd9e8ed87fe27b",
    "jobs.csv":
        "d1b31e8dac7a13323439294d8ffaa655eb064e79b31981788a6a1764223b2ef6",
    "mob-eldt/history.csv":
        "ab8a03f81a0d68d1f5500f14b71b922e41c1a3a584cb959eb9cae6882db07ada",
    "mob-eldt/finals.csv":
        "a45154e16709b7bb26872c8c200cc966216cee39f482f0ed42a9aea96d62249e",
    "mob-eldt/summary.csv":
        "33f9df642b833a1389253a9a5ad7a21764db46d0ba1afc52e59ab773768aab92",
    "mob-eldt/trend.csv":
        "a37c168c33ceb4bd928a919c194d92d9226657c91fc8ffe5e2c37570553c58b4",
    "mob-eldt/best_tree.txt":
        "2504367952249417e41b3d5bbb6999b5e5984160aae50ecef3c6320a8724e4be",
    "mob-eldt/best_tree.dot":
        "fe8a7deefbd17b131af6be0d5ffb2087cf6aacf3bd9488c13241b752cb8b4715",
    "hfs-gp/history.csv":
        "c48e17127feadedb28f9f0ff5f1d167ce3c2f2dffee75aa5d98d771cb578ab40",
    "hfs-gp/finals.csv":
        "65a0ca3eea0b883ff0a0c46c519ecb167fdbee667b8dee5bfb1ea23c156ae665",
    "hfs-gp/summary.csv":
        "9aec5fa7bc7b552f80dfaee43e311ae0cab536f84323721d540acad7f637aeba",
    "hfs-gp/trend.csv":
        "6b48afebe0aae208e9d8dde9440ed39b62695708f1062fd136da481802067a7c",
    "hfs-gp/best_tree.txt":
        "9d217a455ddf315e78099bb36d296ca797c35a05a93729f82d9d6f4f3d80ae47",
    "hfs-gp/best_tree.dot":
        "260245aa887d03cedf9c191e603e3bb0b57d2d85aee13f1601749a2e47862152",
    "compare.csv":
        "afadeb1e294658889f0c0c0483c8cf71e3dca16164131e9d9cccc1f7852ae21a",
}


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    root = tmp_path_factory.mktemp("session")
    # relative paths keep the artifact headers free of the temporary path
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for argv in (
            ["datagen", "--problem", "makeorbuy", "--n", "8", "--seed", "0",
             "--out", "orders.csv"],
            ["datagen", "--problem", "hfs", "--variant", "d1", "--n", "6", "--seed", "0",
             "--out", "jobs.csv"],
            ["run", "--problem", "makeorbuy", "--algo", "eldt", "--dataset", "orders.csv",
             "--budget", "120", "--runs", "2", "--out", "mob-eldt"],
            ["run", "--problem", "hfs", "--algo", "gp", "--dataset", "jobs.csv",
             "--budget", "75", "--runs", "2", "--out", "hfs-gp"],
            ["compare", "--in", "mob-eldt", "hfs-gp", "--out", "compare.csv"],
        ):
            assert main(argv) == 0, argv
    return root


def test_every_written_file_is_pinned(session):
    written = sorted(p.relative_to(session).as_posix()
                     for p in session.rglob("*") if p.is_file())
    assert written == sorted(ARTIFACT_SHA256)


@pytest.mark.parametrize("name", sorted(ARTIFACT_SHA256))
def test_artifact_bytes_are_pinned(session, name):
    digest = hashlib.sha256((session / name).read_bytes()).hexdigest()
    assert digest == ARTIFACT_SHA256[name]
