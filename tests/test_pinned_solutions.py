"""Exact bytes of every file that ``bench run`` writes for the whole-solution
searches: rs, ga and aco on make-or-buy and on the flow shop, and greedy EDD
on the flow shop.

The flow-shop runs read a ``--sim-params`` file that sets two of the three
capacities (the third keeps its default), the assembly areas, the transport
time and a machine-type table of its own, so the settings path from the
file to the decoded schedules is pinned too. Budgets stop GA part way
through its second generation and ACO through its fourth colony. A change to
a score, a settings conversion, a writer or a runner's draws moves a digest
here.
"""

import hashlib

import pytest

from evoscm.cli import main
from evoscm.datagen import default_machine_types

SIM_PARAMS = ("capacity_m = 2\ncapacity_r = 3\nassembly_areas = 3\n"
              "transport_days = 1.5\nmachine_types = types.csv\n")

# sha256 per file, relative to the session's working directory.
ARTIFACT_SHA256 = {
    "hfs-aco/finals.csv":
        "6c3c655e30d7d58cb379878c7ea637af7c703974b1207bcae53d7992b92129a5",
    "hfs-aco/history.csv":
        "c48ed1f9463b3015cbb19ac238fe1e50dc9d866e8c91bd39a03d2c4a33ef9c00",
    "hfs-aco/summary.csv":
        "b7d1f4870eb37947c5f2777e28b894a982055a29dbdf7a8e2f183ff5f68f0a1f",
    "hfs-aco/trend.csv":
        "e74e6d5f05b4067bc42151b79508032cfeecdd0034157177b1a54250adcc0f10",
    "hfs-ga/finals.csv":
        "6791b1ea689ce202a7ffdee0e3774d41b10426ca5003dc6e189384e3f4ca8711",
    "hfs-ga/history.csv":
        "4dc872aae7d6064cca67a3aa454d4ce52f9880fbfdfbc30841f4751fbee08123",
    "hfs-ga/summary.csv":
        "68285568362aa4f77625cf4bb1270a5d4d99265fa8f246ca55e1843a0a703e78",
    "hfs-ga/trend.csv":
        "5707ea3d9a2343e9ca750294e7f83e0b11229ead82751a254895e2a52d033274",
    "hfs-greedy/finals.csv":
        "5f6406251758b356911d5b980064edc2c68a44780521dd834ce09902538634ee",
    "hfs-greedy/history.csv":
        "af2cf7c3f2047461b6b9bb2dc9b81939e7ddcc3d4d94c10c0078706d70d7efd6",
    "hfs-greedy/summary.csv":
        "f79c82c2d94c379b7a7b7172f684032124e0d47231585cf1e9de2e4f522d32b4",
    "hfs-greedy/trend.csv":
        "d3f845ecf7250808d4521fa58c2c2808545351ccdd1c54b8a7be26e5f936816a",
    "hfs-rs/finals.csv":
        "68f06cdb35c4879057e4136012e0022fc38d550bf0ca2a2927fbb1f1d8c8b5d4",
    "hfs-rs/history.csv":
        "ecb8a35aabcf7ec05332100f4fc62f89e274386a14e050dc0b055462f27f048d",
    "hfs-rs/summary.csv":
        "31ed473c0b6599af40574cee332bd24b8ec7962956e38b8346f45bd716080e68",
    "hfs-rs/trend.csv":
        "7f22345759095d8db5ee12ae65c985ff6a6c60fa89cc7046b79200bca6bd0484",
    "jobs.csv":
        "f5fefaff409a2d451999390edfbf53806af3f59a9107d45b4d1fd18a977d004c",
    "makeorbuy-aco/finals.csv":
        "b624d7450badecf976124cce773c778a6d96f276deabcdc2a7a0cf655e3c35b9",
    "makeorbuy-aco/history.csv":
        "1de61c970eee21254bd99954b21f1aacbd5e50bcf77a22a3b1ea900c9ec61c12",
    "makeorbuy-aco/summary.csv":
        "6e16b769f21ef9aeafaa12191551aa81dc1cb7c7749c6a32be9a38fc2cdd794b",
    "makeorbuy-aco/trend.csv":
        "9d1bfe49c21a0b13deaabf89323c3d3a58a1c256e34a339e70944ab1f01118b0",
    "makeorbuy-ga/finals.csv":
        "ed9e9748d89d38bfee26e41c5937a652f9977f05947ef90569d85e489da77444",
    "makeorbuy-ga/history.csv":
        "4f0616a83d2509cc8c4fc1232c8e0d973fb54a318e70dd2b6abd114878035201",
    "makeorbuy-ga/summary.csv":
        "bb4d206641411e3833cdafc0321082fb27831032a7f744d4b59d110da2d01ba3",
    "makeorbuy-ga/trend.csv":
        "8fa36401b72eb93c92ca73bdc5ae56cfbb9362c3f47de27510c8d19f04a91a22",
    "makeorbuy-rs/finals.csv":
        "a58b38c629d664357b026b32b79cd6b002cdffe7faa67524d43f4627125c68c1",
    "makeorbuy-rs/history.csv":
        "001d538dbd108bd06391f8cd0c6a0c0fa73a8dda6b6270684808f2d8dc47c323",
    "makeorbuy-rs/summary.csv":
        "6f1eb34238aaac22964dd0b19ba213ac36926830ed65a11cf683978b03108b71",
    "makeorbuy-rs/trend.csv":
        "def5b0385b50dd0c8728cf8017f06194b2facca2f37c019e13d42e482d7c3e91",
    "orders.csv":
        "5dbed1e857018afd870706a80a53d89071be6eebcf5858c9b1bd9e8ed87fe27b",
    "sim.kv":
        "e1253121fdc4de35dc3b9e057d334a92832f82de8071fe0f1673a3e37a2b777e",
    "types.csv":
        "7b13f8a34f79899e146ed4e5125c6abe7dbcb7897a41748c8999f53aec1a94cb",
}


def machine_types_csv() -> str:
    """The packaged table with every phase half a day longer."""
    rows = [f"{name},{k},{category},{duration + 0.5!r}"
            for name, phases in default_machine_types().items()
            for k, (category, duration) in enumerate(phases)]
    return "machine_type,phase_index,category,duration_days\n" + "\n".join(rows) + "\n"


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    root = tmp_path_factory.mktemp("session")
    (root / "types.csv").write_text(machine_types_csv())
    (root / "sim.kv").write_text(SIM_PARAMS)
    runs = [["--problem", "makeorbuy", "--algo", algo, "--dataset", "orders.csv",
             "--out", f"makeorbuy-{algo}"] for algo in ("rs", "ga", "aco")]
    runs += [["--problem", "hfs", "--algo", algo, "--dataset", "jobs.csv",
              "--sim-params", "sim.kv", "--out", f"hfs-{algo}"]
             for algo in ("rs", "ga", "aco", "greedy")]
    # relative paths keep the artifact headers free of the temporary path
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for argv in (
            ["datagen", "--problem", "makeorbuy", "--n", "8", "--seed", "0",
             "--out", "orders.csv"],
            ["datagen", "--problem", "hfs", "--variant", "d1", "--n", "7", "--seed", "0",
             "--out", "jobs.csv"],
            *(["run", *run, "--budget", "75", "--runs", "2"] for run in runs),
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
