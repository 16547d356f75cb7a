"""Exact bytes of the read-only tree sessions that ``test_pinned_artifacts``
does not run.

A read-only tree (learning off: alpha = epsilon = 0) on a fixed-row
environment scores a whole episode in one call. Two sessions pin that path
from the command line: ``gp`` on make-or-buy, a stochastic environment with
three episodes per evaluation, and ``eldt`` on the flow shop with
``alpha = 0`` and ``epsilon = 0`` from a ``--params`` file. The digests were
taken on the per-step episode loop, so any difference between the two paths
moves one of them.
"""

import hashlib

import pytest

from evoscm.cli import main

# sha256 per file, relative to the session's working directory.
ARTIFACT_SHA256 = {
    "mob-gp/finals.csv":
        "e830fbfbfdb4fad39730187b3a2b02cd31710c7895c222e51313dc66b5419b32",
    "mob-gp/history.csv":
        "6118fe73ca33114d3307f88bdbd86c64585d8934d16fecd08ea3a7c3ba8e15d5",
    "mob-gp/best_tree.txt":
        "2b61371a07a76e90eff8c2946a99e6e0a65863353d1ab15839d6e7e0b2ab72c9",
    "hfs-eldt-frozen/finals.csv":
        "78f6abb46bb967c1f96cdb6650aa4ac1e2a928de64c0b31fe64d94d83e0b5cd8",
    "hfs-eldt-frozen/history.csv":
        "ef0c0de16aaa61ae8308a1029cac37c91cae04fb6308e867840594172e96a620",
    "hfs-eldt-frozen/best_tree.txt":
        "3fb7120c1e76c157f273a779e3692e19324398f89c75563f7ddff1f1827ce0bd",
}


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    root = tmp_path_factory.mktemp("session")
    # relative paths keep the artifact headers free of the temporary path
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        (root / "frozen.params").write_text("alpha = 0\nepsilon = 0\n")
        for argv in (
            ["datagen", "--problem", "makeorbuy", "--n", "100", "--seed", "0",
             "--out", "orders.csv"],
            ["datagen", "--problem", "hfs", "--variant", "d2", "--n", "60", "--seed", "2",
             "--out", "jobs.csv"],
            ["run", "--problem", "makeorbuy", "--algo", "gp", "--dataset", "orders.csv",
             "--budget", "150", "--runs", "2", "--out", "mob-gp"],
            ["run", "--problem", "hfs", "--algo", "eldt", "--dataset", "jobs.csv",
             "--budget", "200", "--runs", "2", "--params", "frozen.params",
             "--out", "hfs-eldt-frozen"],
        ):
            assert main(argv) == 0, argv
    return root


@pytest.mark.parametrize("name", sorted(ARTIFACT_SHA256))
def test_read_only_artifact_bytes_are_pinned(session, name):
    digest = hashlib.sha256((session / name).read_bytes()).hexdigest()
    assert digest == ARTIFACT_SHA256[name]
