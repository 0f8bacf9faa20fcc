"""The `verify` reports stay byte-identical from change to change.

Each digest is the sha256 of a suite's report at seed 7.  A change that
keeps every output must leave them all as they are; a change that means
to alter a report updates its digest and says why.
"""

import hashlib

import pytest

from cspdigraph.verify import SUITES, run_suite

REPORT_SHA256 = {
    "core": "603b7d7258544aacc3ca7a21e4187d4299802c8b16b91fd4668475726d68e53c",
    "counts": "a76231398aa8acc478a83704199ceccc8d6151cfed36f7a1c2e904ffcd247c4c",
    "delta": "51a0b5ed7511bb4bbfe824f43e4a7a73df4c3c5e4df91796c0cf79fcf8ed3d1a",
    "endo": "1bc163440aa09f051805affc19bd37df65038f6b0a6fb21055ff29278dddc413",
    "forward-eq": "7c2c4e1cae732d816064cc2ff7207afaf45328d715aeaa0c99ad6d0f13ae198a",
    "lift": "2b0de77aabf9389077f82e10b6a03c6d1036d80ad89521201d3a17f852476095",
    "observation": "dc33c398860cd7c18130d0c8ab4eba5087002a29f84a503d0d620069570566e3",
    "orders": "a9a912548337547ccb72744cd240a98b51d2bd2d9a57f3444bc3037f52c8cb02",
    "reverse-eq": "468163c4c17bf7e33701f36033af2657c1a98f91c9734f79ac03c5e247306188",
}


def test_every_suite_is_pinned():
    assert set(REPORT_SHA256) == set(SUITES)


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_is_byte_identical(name):
    text = run_suite(name, seed=7).text()
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[name], text
