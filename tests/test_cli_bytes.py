"""Byte pins of the CLI outputs: the sha256 of stdout, and of the ``--json``
file where the command writes one, for one small run of each command.

A change to any of these bytes fails here on purpose.  If the change is
intended, record it (and why) in CHANGES.md and update the hash.
"""

import hashlib
import json

import pytest

from halkron import cli

# argv, sha256(stdout), sha256(--json file) or None
PINS = [
    (["gen", "--n", "1", "--count", "64"],
     "473ee0e67ca4a9954a9590f63411284c9d417edc46b7e8440d7ac8c7b0eef1bd", None),
    (["disc", "--n", "1", "--alpha", "rational", "--count", "256"],
     "a98fc35fc23e17b7108bba123a4d3a3f9f96bfffb8287b8684909f7bec05b87e",
     "b02b730b1aa6624daf9256a20ed29b4ef5c198ecac289a93cc0719dfe1e15e1b"),
    (["scan", "--n", "1", "--L", "3..6"],
     "1e7fd5bff48fa2fe9d5352e1773b2fdad0e335550c2c3a0c27574bf542f74c6f",
     "1ca24df384905c87afb9fde4d2e5aa7ed6517c876055b831a204487490a716d4"),
    (["trig", "--n", "1..50"],
     "da1dbba82d6e9dc4a84b84593c7303475863ed0a8ad24a2e20ca0e338906ccf4", None),
    (["trig", "--n", "3", "--mode", "gn", "--grid", "2000"],
     "290d5e271813ff7e360a982d4a7505a6ad626feed266c41ea28d72ce58a7a5d5", None),
    (["lambda", "--n", "1..2", "--depth", "3", "--grid", "2048"],
     "d49ad1d382d5054cd75e261f4448768fd240a0fbbdc08ee1ccf77b57a268366f",
     "14828db5a304c8047df2e7427fd32252166b26b825fd20809de6fe5076f05b1a"),
    (["lambda", "--n", "2", "--depth", "3", "--grid", "2048"],
     "daeeab1ff256c20a132347bcc6a31c18f023bf720d3912e961e0dfdbfd1cb6ad", None),
    (["certify", "--n", "1..2", "--grid", "2000", "--blocks", "5", "--struct-grid", "2048"],
     "7d8dadaf5ada5f9d830767be308ec619e66b5193b8116b754cca3bc966b18dda",
     "7d8dadaf5ada5f9d830767be308ec619e66b5193b8116b754cca3bc966b18dda"),
    (["bound", "--n", "2", "--alpha", "shallit", "--N", "256", "--H", "256", "--K", "256"],
     "3cae76a860fb3c458b416c3ce2a66b8f39a465fca50521563fe12d18b2c61d1c",
     "a570c61f499f7a5dee53ea43e9b516f635f59125a768331ee5ee82eff435c8b6"),
    (["integral", "--n", "1", "--L", "3"],
     "1216519883c18f6d392d9a40bd42e0a4074cbbd264f6967833f4c93c55129933",
     "9c10f63501377124fad667f4cf5cfa326d186d8b28b95db4073dbd55a1592a80"),
    # width above 128 and N = 2^70: sticky rows and doubled columns j >= 64
    (["--width", "200", "bound", "--n", "3", "--N", "1180591620717411303424", "--H", "8",
      "--K", "8"],
     "53aca6f7b29f70a44ad2485b0a07c4613fc84e228479faa1a71b95a1767564db",
     "3b0652053cfec21314bac7f0c120844336c5fe760558997c688e268719570e6c"),
    # the sharpness product at the rational 4/9, r = 900
    (["certify", "--n", "3", "--grid", "2000", "--blocks", "300", "--struct-grid", "2048"],
     "c557f7f979bf6ab71cc6a8da3aca7ccbd3326cd0036d14ffdb53a71713c94e2b",
     "c557f7f979bf6ab71cc6a8da3aca7ccbd3326cd0036d14ffdb53a71713c94e2b"),
    # N = H = K = 2^16: two orbit blocks; l = 1 spans both, l = 2 ends where the second begins
    (["bound", "--n", "1", "--N", "65536", "--H", "65536", "--K", "65536"],
     "3aedf17d826e4a48ad176d707cd6245a70ac3187568b95a7e59a3751aea654d8",
     "15bef308baff76ed5521c480617213a48a055a8c4344503b91c60ac2691bb2b4"),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


IDS = ["gen", "disc", "scan", "trig-an", "trig-gn", "lambda-range", "lambda-single", "certify",
       "bound", "integral", "bound-wide", "certify-rational", "bound-blocks"]


@pytest.mark.parametrize("argv,stdout_sha,json_sha", PINS, ids=IDS)
def test_output_bytes(argv, stdout_sha, json_sha, tmp_path, capsys):
    jpath = tmp_path / "out.json"
    extra = ["--json", str(jpath)] if json_sha else []
    assert cli.main(argv + extra) == 0
    assert _sha(capsys.readouterr().out.encode()) == stdout_sha
    if json_sha:
        assert _sha(jpath.read_bytes()) == json_sha


def _no_constant(name):
    raise AssertionError(f"{name} is not JSON")


# every pin with a --json file, and a bound whose sum is infinite
STRICT = [(i, argv) for i, (argv, _, json_sha) in zip(IDS, PINS) if json_sha]
STRICT.append(("bound-degenerate",
               ["bound", "--n", "1", "--alpha", "frac:1/2", "--N", "16", "--H", "16", "--K", "16"]))


@pytest.mark.parametrize("argv", [argv for _, argv in STRICT], ids=[i for i, _ in STRICT])
def test_json_file_is_strict_json(argv, tmp_path, capsys):
    jpath = tmp_path / "out.json"
    assert cli.main(argv + ["--json", str(jpath)]) == 0
    json.loads(jpath.read_text(), parse_constant=_no_constant)
