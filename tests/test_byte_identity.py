"""CLI stdout pinned by SHA-256, so engine rewrites keep every report byte-identical.

Each digest is of the full stdout of `main(argv)`.  The walls inputs cover a
rational interval, both Milnor-Wood filter twists, degenerate intervals on and
off a wall, an interval with no walls, and a wide interval on a (7, 5) type.
toledo, mw (rank-free and with ranks) and certify (fully irreducible, closure
irreducible only, and neither) pin the reports rendered by the stdlib encoder;
selftest is pinned, and its report over twenty more seeds is pinned as the
sorted-key JSON of `property_driver`.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from upqstab.cli import main
from upqstab.oracle import property_driver

PINNED = [
    ("walls --type 4,3,2,-1 --interval -7/3,5/2",  # 5592 bytes
     "18807386d9c9c521cfbde6202617674f65eab3d75ad28e5ea551b4650a3377dd"),
    ("walls --type 4,3,2,-1 --interval -7/3,5/2 --format csv",  # 837 bytes
     "0923a401c59d197c6975e7c23c4745c0ef8ef73e1e9e840f2bfdf5026f7ff356"),
    ("chambers --type 4,3,2,-1 --interval -7/3,5/2",  # 8060 bytes
     "5217255d9ef86fadc3f622826c4eabfc8bd1979a012d5eef95660ef14c121f71"),
    ("walls --type 3,5,-2,4 --interval -5/2,7/3 --mw-filter --degL 0",  # 6555 bytes
     "6de8d5759e9da4e78221e0e0debf6fa8fa6eacc5eafb9c92038e8d361454c354"),
    ("walls --type 3,5,-2,4 --interval -5/2,7/3 --mw-filter --degL 0 --format csv",  # 963 bytes
     "8769dc618246e691b0faab2077e3de6ac3e3f0eb62092214b00b00cd9aa2b6db"),
    ("chambers --type 3,5,-2,4 --interval -5/2,7/3 --mw-filter --degL 0",  # 9546 bytes
     "a8270da8755c5b863c93ce6958abb0776a08b00c818324ddb8012d4545a4deb2"),
    ("walls --type 3,5,-2,4 --interval -5/2,7/3 --mw-filter --canonical --genus 2",  # 7210 bytes
     "35724b918085771a6cf14bf35e088304387befc9c6958d0bbad7ccf2bc6f949d"),
    ("walls --type 3,5,-2,4 --interval -5/2,7/3 --mw-filter --canonical --genus 2 --format csv",  # 1067 bytes
     "ee010e92c1030b1455f4ecc494bc30964c717fa01e52d1f152626f178a5e52d5"),
    ("chambers --type 3,5,-2,4 --interval -5/2,7/3 --mw-filter --canonical --genus 2",  # 10331 bytes
     "c4585d58c848ce1fb393bcf647467593d9d67a39b7f4fd2072003d80d6665b5c"),
    ("walls --type 4,3,2,-1 --interval -2,-2",  # 1305 bytes
     "6357a873e78d4bde2fa49a9a4e4157c546535edc5086f9312ea4faea4f3db46f"),
    ("walls --type 4,3,2,-1 --interval -2,-2 --format csv",  # 242 bytes
     "0d497e9e61c29085f3b7ca78eedd03e268b9b117ef6e10182874c704b0b9870b"),
    ("chambers --type 4,3,2,-1 --interval -2,-2",  # 1353 bytes
     "43069ac105e97d30ed9c41897e8305caac013cd907ce0e645440990291243e69"),
    ("walls --type 4,3,2,-1 --interval 1/7,1/7",  # 169 bytes
     "69c5a64ed6eef5a8020bcbee41a085026278aa7b1abc6865478cfb23ebae0458"),
    ("walls --type 4,3,2,-1 --interval 1/7,1/7 --format csv",  # 38 bytes
     "6e566331cafded65a691f64e96c5bc33ae71b29144e2bd20a3e3124f4b46b146"),
    ("chambers --type 4,3,2,-1 --interval 1/7,1/7",  # 292 bytes
     "2dcb203b6db254a719a5ead2745ef1a48a277df3f511a87e1709c9624ef92c6b"),
    ("walls --type 7,5,3,-2 --interval -50,50",  # 429797 bytes
     "afd74344989540990ab9850bfd625b37239b7ce622bc155144b5d6a94ef58dd7"),
    ("walls --type 7,5,3,-2 --interval -50,50 --format csv",  # 74245 bytes
     "a7c09b2ec60994f25d4a89e87f8cd09298a8a197d9a204e76a81ea863246a0d5"),
    ("chambers --type 7,5,3,-2 --interval -50,50",  # 639247 bytes
     "3ab1c27560bc1101081525c6a5e40e565e0e2a04f7070c4ea89e2e5e02043360"),
    ("chambers --type 1,1,1,0 --interval -1/2,1/2",  # 293 bytes, no walls
     "de1a4df57b477cf530ad8207d4b4691e19a508e4bcf01d2183a2944ff4808bbb"),
    ("toledo --type 4,3,2,-1",  # 108 bytes
     "b0cf81309440270ba21086e0005c6893d415baa874e52680f6ee8587b08562f7"),
    ("mw --type 4,3,2,-1 --degL 2 --alpha -1/3",  # 362 bytes
     "186bd14033292775bed37e94274e3587675b91044b885a57921dbfe571868ba7"),
    ("mw --type 2,1,1,0 --degL 1 --alpha 3 --ranks 1,1",  # 398 bytes
     "3d6ee27c51bd379b4fc55aa421dc10f625d54ec7f6d99b741513d64276c00136"),
    ("certify --type 1,1,-1,0 --genus 2 --alpha 0",  # 551 bytes, fully irreducible
     "82e0313d88163d2ca674231757cc8783a366c592bf85a92ab30cc75b3315666e"),
    ("certify --type 1,1,-2,0 --genus 3 --alpha 0",  # 552 bytes, closure only
     "9cdde56ff4cd05e19b753bf4d5f11d6209f4a4214e9d55670f5ca26ed62edd9a"),
    ("certify --type 2,2,1,1 --genus 2 --alpha 0",  # 532 bytes, both windows empty
     "9e8e4da60ab2b7b2055ea62df0b0a0e0bc4dd1134e2bfa2a0fc56d8982a842c6"),
    ("selftest --seed 0 --trials 120",  # 774 bytes
     "d20af443d9647ad1aaf153490b76a0f31dbb496a42916b4458933c8d3ecd3127"),
]


@pytest.mark.parametrize("argv, digest", PINNED, ids=[argv for argv, _ in PINNED])
def test_stdout_is_byte_identical(argv, digest, capsys):
    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("value", ["csv", "xml"])
def test_stdout_ignores_the_environment(value, capsys, monkeypatch):
    # the output format is set by walls' --format alone, never by an environment variable
    monkeypatch.setenv("UPQSTAB_FORMAT", value)
    for argv, digest in PINNED:
        assert main(argv.split()) == 0, argv
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest, argv


# sha256 of json.dumps(property_driver(seed, 200), sort_keys=True) for seeds 0..19
SELFTEST_DIGESTS = [
    "3c5131641a88d10c03155ea2896dd10a9be2c58c906a52d3f6134cc4d4a32cdb",
    "c073e14f0a9f90f2cf18a9ebdc44233e65aed99efbec434903b9a96f9acd5400",
    "283b4b209bf8889dbf3329addcc53ec226405f1131347dd6201cbee949176d67",
    "da54ec68d78536a5ab71b31e1bc4955444cb3dcff3f711254fea098f0ce1344a",
    "302a6d3071366d9c09f0b343e19766a614be73020abf1f306b45d3a05d101b46",
    "ff36b166748e1623a5a826c6e57e862cb6cab153db23f3c24dd5e997a41daa4d",
    "c4bae768cb7386abce696e4126a5cecf1d3a198acd3c768eb87c56059bbe15cb",
    "0e21314f9cce1192319bec30b624b07f426873c9ffb17e16aa0a9bdd9414ce88",
    "07ab3791299b5223ccaebf6ff769e848bdf29694624b836e46c324f69b252b60",
    "124bba26298907a88c092228b74e3ee82f100b08e41a1e5141210cbd9dcb3686",
    "f27678fed455d02577f137978d4788d08580261fad1d38394eb5e89de569deab",
    "686c6a4135c8b56a62ae046c4f4fcd1e8b1936e7729ce9694f749886b24a2c00",
    "6e369ce5b21468a47dadb273e81fa8966ee80eb9c363d4e9656f5f66d307aeee",
    "8b18fa73bf8af19c9fbaa7e64a5c69b769d3a25a805fca628a0d3d9005a14f37",
    "f8a16d4f466f322de2293f71753cb9c96377e70ef24fd47e3e25820bb9189f4f",
    "3315a9a1c939ebaee054ac891365744007c5f1ece678c8daa2a1f58203baa745",
    "bc19d06bc68b2409255536f93371ce3c5ab22ee191881864b9ebfb763c82c17b",
    "b4cab06a3b61546c99b4bf645f316a5c385cda1d91914c20b7391ae916a71ee0",
    "118b84f2d99fa9ac84d8304502171c6a62ea0e77364b538d61be9358b18b30fe",
    "8b06358fc2da1a18aa0be54b13ac743889aa11476aba78d35ede75857b071aed",
]


def test_selftest_reports_are_byte_identical_over_seeds():
    for seed, digest in enumerate(SELFTEST_DIGESTS):
        report = property_driver(seed, 200)
        assert report["all_passed"], seed
        assert hashlib.sha256(json.dumps(report, sort_keys=True).encode("utf-8")).hexdigest() == digest, seed
