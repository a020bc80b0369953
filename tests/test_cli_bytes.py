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
     "d80df324fb5d00056bf48a130daaa03b16196536896975e519a6a6414d794e9a", None),
    (["disc", "--n", "1", "--alpha", "rational", "--count", "256"],
     "6617d7656a410da5ec61eea89b011a68048a15e8ffde1f1d29aab5e88cee16df",
     "a4e1fdf7ef23495dc6a3f30a541bb3dc9d5dfc828d19f2b3181245da62554d6b"),
    (["scan", "--n", "1", "--L", "3..6"],
     "df332f7fc4330817991aca0e8c430d9c5289a2d72537b1e6bdf1be66cd04154a",
     "c9e5131afef67fd556929b35ae9cbb81e9e033488c641cc28acb06ca4dda63e3"),
    (["trig", "--n", "1..50"],
     "3699882bf5e0cf6833bfde3c1accb29dcdc36d093a66a53a45a1b69e239b0673", None),
    (["trig", "--n", "3", "--mode", "gn", "--grid", "2000"],
     "89e5b03fefadad99f7d01fdf1b3725f6b21bb66f95c07bf01ce3c6ab0b4be471", None),
    (["lambda", "--n", "1..2", "--depth", "3", "--grid", "2048"],
     "d733170c172b70a9e7bf3ec10266c683f102b44ac9c020b82f6938643be08942",
     "c6779850d58e75bab2cc97d69dc8b1f7a763c95100c758034a2c1c48456b1b4e"),
    (["lambda", "--n", "2", "--depth", "3", "--grid", "2048"],
     "5a439e74be7837baeae410a6ba8e6b877bcd866c159f4eeb6865fd53c9812fd1", None),
    (["certify", "--n", "1..2", "--grid", "2000", "--blocks", "5"],
     "029832f6793852d361b9c5e95da3fad362c2d623cf1c99054a30cb76c46afa5a",
     "029832f6793852d361b9c5e95da3fad362c2d623cf1c99054a30cb76c46afa5a"),
    (["bound", "--n", "2", "--alpha", "shallit", "--N", "256", "--H", "256", "--K", "256"],
     "e4d21d7c4f2f0a0805ba88c54fce1bd2dfe618468d1e709ab87a4e4010803d04",
     "da161694591188ec8dddecb8dbf5b969e51ee32dacd4f442fc2ed8335493a8d5"),
    (["integral", "--n", "1", "--L", "3"],
     "96fbd50b3724ae296c2444b72ab0a8c134ebadcbfec8039a36c624d52f1a97bd",
     "f6f03ef186209324a41a9a9b1e996bbaa26e7d1ba665c8f13f1d43e14b0b7ff0"),
    # width above 128 and N = 2^70: sticky rows and doubled columns j >= 64
    (["bound", "--n", "3", "--N", "1180591620717411303424", "--H", "8", "--K", "8",
      "--width", "200"],
     "7ab0ed55ab1b9f6791d4f56016dc6d704906afac88523ca726ebd1391ec83107",
     "905bfd43cd659b9cae14dc90d30a846945ce88a7e579f1b18d4f487d23edd779"),
    # the sharpness product at the rational 4/9, r = 900
    (["certify", "--n", "3", "--grid", "2000", "--blocks", "300"],
     "f8c52d1cf59fd937c2bb90b2c8a10d96d26e9b0945398bcbf01aea4014a4a909",
     "f8c52d1cf59fd937c2bb90b2c8a10d96d26e9b0945398bcbf01aea4014a4a909"),
    # N = H = K = 2^16: two orbit blocks; l = 1 spans both, l = 2 ends where the second begins
    (["bound", "--n", "1", "--N", "65536", "--H", "65536", "--K", "65536"],
     "7aefc73ada8cdc71ca9b2dc09951641ade798573cea8bc707d860ea0619ecf7a",
     "2698105fbf08dd16a68f78dbdc282d9c9e3ef183378f86ad7ab8830d9d2a28b0"),
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
