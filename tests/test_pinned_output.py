"""Printed verdicts, scans, witnesses and growth values, pinned byte for byte by sha256.

Each case runs ``harm`` in-process and hashes its stdout.  A change to
how a verdict decides its status, or to when it builds the bounds it
prints, or to how a polynomial is evaluated and its growth summed, must
leave every byte as it is.
"""

import contextlib
import hashlib
import io
import json

import pytest

from harmlat.cli import main

# d = 1 tables, omitted points 0; Q(n) is the mean of u^2 after n steps of
# the simple random walk from 0.  FAIL_TABLE: u = 1 at x = 2 and x = 34, so
# Q(1) = Q(17) = 0 while Q(2n) > 0, and every form with error term fails
# there.  LINE_TABLE: u = 1 off the origin, read at no-error's degree-edge.
TABLES = {
    "FAIL_TABLE": {"d": 1, "R": 68, "entries": [[2, "1"], [34, "1"]]},
    "LINE_TABLE": {"d": 1, "R": 80, "entries": [[x, "1"] for x in range(-80, 81) if x]},
}

# eps just inside the edge of no-error's degree hypothesis at n = 20, M = 4:
# 1 - 2eps exceeds ln 16 / ln 20 by 2^-119, which 64 bits leave open
EDGE_EPS = "6188150099896808545836439581982263/166153499473114484112975882535043072"
# 1 - 2eps = floor(2^400 ln 16 / ln 20) / 2^400 + 2^-300: the hypothesis
# stays open at 128 and 256 bits, and 300 bits decide it
EDGE_EPS_300 = (
    "192344427191889083917377428408566509808256797135286398787515649651731791649787976249666938592200912453643548505725806273"
    "/5164499756173817179311838344006023748659411585658447025661318713081295244033682389259290706560275662871806343945494986752"
)

# x^3 - 3xy^2 + x/2, harmonic on Z^2; written without spaces, as a case is split on them
HARMONIC_POLY = '{"d":2,"terms":[{"alpha":[3,0],"coeff":"1"},{"alpha":[1,2],"coeff":"-3"},{"alpha":[1,0],"coeff":"1/2"}]}'

CHECKS = [
    "three-circles --family S --k 4 --n 20 --eps 1/4",
    "three-circles --family T --k 3 --n 5 --eps 0 --explore",
    "three-circles --function FAIL_TABLE --sparse --n 1 --eps 1/4 --explore",
    "three-circles --function FAIL_TABLE --sparse --n 17 --eps 0",
    "general-p --family T --k 3 --n 9 --P 3/2 --eps 1/4",
    "general-p --family S --k 6 --n 16 --P 2 --eps 0",
    "general-p --function FAIL_TABLE --sparse --n 1 --P 2 --eps 0 --explore",
    "no-error --family S --k 3 --degree 3 --n 20 --eps 1/10",
    "no-error --function FAIL_TABLE --sparse --degree 0 --n 17 --eps 1/10",
    f"no-error --function LINE_TABLE --sparse --degree 4 --n 20 --eps {EDGE_EPS} --precision 64",
    f"no-error --function LINE_TABLE --sparse --degree 4 --n 20 --eps {EDGE_EPS_300} --precision 128",
    f"no-error --function LINE_TABLE --sparse --degree 4 --n 20 --eps {EDGE_EPS_300} --precision 256",
    f"no-error --function LINE_TABLE --sparse --degree 4 --n 20 --eps {EDGE_EPS_300} --precision 300",
    "ratio-125 --family u --k 2 --d 2 --n 5 --delta 1/8",
    "ratio-125 --family S --k 5 --n 0 --delta 1/5",
    "aspect --family S --k 3 --n 5 --p 3 --P 2 --eps 1/4 --derive-alpha",
    "aspect --family T --k 4 --n 3 --p 3 --P 2 --eps 1/4 --alpha 1/3",
    "aspect --function FAIL_TABLE --sparse --n 1 --p 3 --P 2 --eps 1/4 --alpha 1/2",
    "binomial --n 20 --k 3 --P 2 --eps 1/4",
    "binomial --n 3 --k 9 --P 2 --eps 1/4",
    "binomial --n 0 --k 0 --P 2 --eps 1/2",
    "continuous --family S --k 4 --t 1/3",
    f"continuous --poly {HARMONIC_POLY} --t 2",
]

CASES = [f"check {c} --format {fmt}" for c in CHECKS for fmt in ("json", "csv")] + [
    "conjecture scan --family S --k 12 --C 1 --eps 1/10 --format json",
    "conjecture scan --family S --k 12 --C 1 --eps 1/10 --format csv",
    "search counterexample --C 1 --eps 1/5 --k-max 30 --n0 100",
    # the benchmark's C = 2 search (nothing found) and two first witnesses
    "search counterexample --C 2 --eps 1/10 --k-max 800",
    "search counterexample --C 5/4 --eps 1/10 --k-max 1000",
    "search counterexample --C 3/2 --eps 1/10 --k-max 1000",
    # growth values of members with a parity in every coordinate (S, T, u)
    # and of one without (random)
    "growth --family S --k 40 --n-max 160 --newton",
    "growth --family T --k 41 --n-max 100 --format csv",
    "growth --family u --k 3 --d 3 --n-max 40",
    "growth --family random --k 6 --d 3 --seed 7 --n-max 30",
]

# (exit code, sha256 of stdout) per case, in the order of CASES
DIGESTS = {
    'check three-circles --family S --k 4 --n 20 --eps 1/4 --format json':
        (0, 'fd4aec5dc8cc840e6a0551c9aeef0407d273ddcc7952925602d6d09580f6145f'),
    'check three-circles --family S --k 4 --n 20 --eps 1/4 --format csv':
        (0, 'b1165e85eb7bf70202fecfc4144036501ca539699fdb066beedc56da5e525ca7'),
    'check three-circles --family T --k 3 --n 5 --eps 0 --explore --format json':
        (0, '5cc6e1c0361bbd05a054bb49d8ba1549b0bf22cda6ec38ca666fa66cb99ad8ae'),
    'check three-circles --family T --k 3 --n 5 --eps 0 --explore --format csv':
        (0, '61240ed2207e21e04db18a7f3218eaf1f9e2b5cbd76f3da3a0ee309fc92b604a'),
    'check three-circles --function FAIL_TABLE --sparse --n 1 --eps 1/4 --explore --format json':
        (1, '7ca6103f8e665ddfa9dcea2f76a1a1762efe80f346178afef5435b6c003b26cf'),
    'check three-circles --function FAIL_TABLE --sparse --n 1 --eps 1/4 --explore --format csv':
        (1, '376ca04a682dbf44315d335d58ce326e51c309edd4a5b18c5fb4cb9a28f31f27'),
    'check three-circles --function FAIL_TABLE --sparse --n 17 --eps 0 --format json':
        (1, '2b71dcd0f4b959d23e1c96e43d619a900cbcdbd66ac11759b36565427506a932'),
    'check three-circles --function FAIL_TABLE --sparse --n 17 --eps 0 --format csv':
        (1, '7893a40889c066535f2c27e8d6ba40901439e52820153472933f751808b3e326'),
    'check general-p --family T --k 3 --n 9 --P 3/2 --eps 1/4 --format json':
        (0, '1250b71aa4e72ea629b261d14c00df9bdae55531b46ee542cb45e3c74d989aee'),
    'check general-p --family T --k 3 --n 9 --P 3/2 --eps 1/4 --format csv':
        (0, '31772b4eeb1b3be8da6ae39bfc26050af23c305e9d12cffe441816db9ff8c1bb'),
    'check general-p --family S --k 6 --n 16 --P 2 --eps 0 --format json':
        (0, 'fa631fc9adcaf0b2ffa4522b124e4e12de342bf0f818b17ae0421a1b179d4ecb'),
    'check general-p --family S --k 6 --n 16 --P 2 --eps 0 --format csv':
        (0, '2ff70bb23b9a3005e5f7bc8288b1ea8965fec9297aab2cb86e1584ffbe65d45e'),
    'check general-p --function FAIL_TABLE --sparse --n 1 --P 2 --eps 0 --explore --format json':
        (1, '3a087fa0dfc22c17f6d38e104c2edf88db31a8c41c5de84ebde08811354817e7'),
    'check general-p --function FAIL_TABLE --sparse --n 1 --P 2 --eps 0 --explore --format csv':
        (1, '376ca04a682dbf44315d335d58ce326e51c309edd4a5b18c5fb4cb9a28f31f27'),
    'check no-error --family S --k 3 --degree 3 --n 20 --eps 1/10 --format json':
        (0, 'c3d6bc8f834877ecaa88ba0e535f942277f6e3539a1e015e5e81ad9f22b13c2a'),
    'check no-error --family S --k 3 --degree 3 --n 20 --eps 1/10 --format csv':
        (0, 'e400c98819eae71ddecbdd966bd3d3c2cc6a06857202de3c5cec7a48aa481de0'),
    'check no-error --function FAIL_TABLE --sparse --degree 0 --n 17 --eps 1/10 --format json':
        (1, 'f961b36db698e1fd440c023f23b851362a701cd55e7305c8581be43c0ab59621'),
    'check no-error --function FAIL_TABLE --sparse --degree 0 --n 17 --eps 1/10 --format csv':
        (1, 'f7c0a0fb3393b1ca9e5322867cf7f7d09adb7a0be8935d34770b256aee3194d5'),
    'check no-error --function LINE_TABLE --sparse --degree 4 --n 20 --eps 6188150099896808545836439581982263/166153499473114484112975882535043072 --precision 64 --format json':
        (2, 'ad828041175bdfd18e43487d9debbef68951b82364718184b080dc4e92b0f896'),
    'check no-error --function LINE_TABLE --sparse --degree 4 --n 20 --eps 6188150099896808545836439581982263/166153499473114484112975882535043072 --precision 64 --format csv':
        (2, 'a30f6648c61af847641691626f357111ac16652477add8ec17e92c3167d6f8c7'),
    'check no-error --function LINE_TABLE --sparse --degree 4 --n 20 --eps 192344427191889083917377428408566509808256797135286398787515649651731791649787976249666938592200912453643548505725806273/5164499756173817179311838344006023748659411585658447025661318713081295244033682389259290706560275662871806343945494986752 --precision 128 --format json':
        (2, '8e1a5cec1b3d9bdd983c7f15e33785a9f4b72bf8240e384f3d0d49abcd5f94b7'),
    'check no-error --function LINE_TABLE --sparse --degree 4 --n 20 --eps 192344427191889083917377428408566509808256797135286398787515649651731791649787976249666938592200912453643548505725806273/5164499756173817179311838344006023748659411585658447025661318713081295244033682389259290706560275662871806343945494986752 --precision 128 --format csv':
        (2, '9710eb50c2f900c8f8dbd891a9a219b920959bca0766ff5354bed31cf52f56b1'),
    'check no-error --function LINE_TABLE --sparse --degree 4 --n 20 --eps 192344427191889083917377428408566509808256797135286398787515649651731791649787976249666938592200912453643548505725806273/5164499756173817179311838344006023748659411585658447025661318713081295244033682389259290706560275662871806343945494986752 --precision 256 --format json':
        (2, '97cef9707dfe16840de8f7af62ebdae49e9c579ee88df651337fed09ae43a725'),
    'check no-error --function LINE_TABLE --sparse --degree 4 --n 20 --eps 192344427191889083917377428408566509808256797135286398787515649651731791649787976249666938592200912453643548505725806273/5164499756173817179311838344006023748659411585658447025661318713081295244033682389259290706560275662871806343945494986752 --precision 256 --format csv':
        (2, 'e2d2a7e73425551dec61d4313628752b1b4e0f8141d1703d0f0621d38b89d195'),
    'check no-error --function LINE_TABLE --sparse --degree 4 --n 20 --eps 192344427191889083917377428408566509808256797135286398787515649651731791649787976249666938592200912453643548505725806273/5164499756173817179311838344006023748659411585658447025661318713081295244033682389259290706560275662871806343945494986752 --precision 300 --format json':
        (0, '3ee4c5bd19af7adc2214ef5bd116023b42771546bbc98881837ae4b126e1adc3'),
    'check no-error --function LINE_TABLE --sparse --degree 4 --n 20 --eps 192344427191889083917377428408566509808256797135286398787515649651731791649787976249666938592200912453643548505725806273/5164499756173817179311838344006023748659411585658447025661318713081295244033682389259290706560275662871806343945494986752 --precision 300 --format csv':
        (0, 'e07630494079c52305b76cb20db1a93b639d779d89965857dc3c7abccb09ec86'),
    'check ratio-125 --family u --k 2 --d 2 --n 5 --delta 1/8 --format json':
        (0, '7fe639256b905589ef922f62a953eedf13f0e0f6ef51eacfae5db0f737a2207c'),
    'check ratio-125 --family u --k 2 --d 2 --n 5 --delta 1/8 --format csv':
        (0, '17c541b612fb88e8ada856cdb6032d0f2245edd83ab73da1f31b7acb80400fb3'),
    'check ratio-125 --family S --k 5 --n 0 --delta 1/5 --format json':
        (0, '8d46659bb9e0c30a4a4af78c81d2517b6653dcc0cb1a14065191a66009b837ef'),
    'check ratio-125 --family S --k 5 --n 0 --delta 1/5 --format csv':
        (0, '9cb131a9b66c2c73d278cf54b4bcdf046378a36855afc4db31d14051dffc2efe'),
    'check aspect --family S --k 3 --n 5 --p 3 --P 2 --eps 1/4 --derive-alpha --format json':
        (0, '68dd212607e69e818647f1e878ca82da18eba482680c03ee0ee0f5ee8c99e6cd'),
    'check aspect --family S --k 3 --n 5 --p 3 --P 2 --eps 1/4 --derive-alpha --format csv':
        (0, 'ff8ac28301446d1e21216296eaade67ebf0902defc0bbb0d865ad659eb8b7c90'),
    'check aspect --family T --k 4 --n 3 --p 3 --P 2 --eps 1/4 --alpha 1/3 --format json':
        (0, '9b6c1df74135cf0c645f38544d045adc8144837cfdb150b4b1f44ba68ab71eb3'),
    'check aspect --family T --k 4 --n 3 --p 3 --P 2 --eps 1/4 --alpha 1/3 --format csv':
        (0, '0979d88b2e7b0fc0dd85b6fa6827ddf57de4caed6c9f01a3ee106bfbcb1a8378'),
    'check aspect --function FAIL_TABLE --sparse --n 1 --p 3 --P 2 --eps 1/4 --alpha 1/2 --format json':
        (1, 'd7676c653e93ddb93f08cc4902e305513c9cc159552fee62bfef6cd711c14aa7'),
    'check aspect --function FAIL_TABLE --sparse --n 1 --p 3 --P 2 --eps 1/4 --alpha 1/2 --format csv':
        (1, '25e572ca197b14239f3b7fbbd9b332a3e5c0b6297bfa1784fe008f65ccaf1988'),
    'check binomial --n 20 --k 3 --P 2 --eps 1/4 --format json':
        (0, '626d786ef44fc77c6e2666b21cd7d35cf1d4d10cb2cb0a73f25f981c78f6d551'),
    'check binomial --n 20 --k 3 --P 2 --eps 1/4 --format csv':
        (0, '9d27e5ca7be9dfb9adb431f4db5bd53f0ec83529d10f091fb7d90ed2c620064f'),
    'check binomial --n 3 --k 9 --P 2 --eps 1/4 --format json':
        (0, '9752341ac581f1202ecc8ccf6b50e8a9f9a56f7a8b4db1c6d5fdea6d881dea08'),
    'check binomial --n 3 --k 9 --P 2 --eps 1/4 --format csv':
        (0, '5896a92ddb306484304e14ede7de451ae926119afbbd5175a7cea6e4642ec080'),
    'check binomial --n 0 --k 0 --P 2 --eps 1/2 --format json':
        (0, 'ee4458f67c6ff2ae7c2dfa94661248f5bcff5dfd31ff9c877e595c9f0ab18454'),
    'check binomial --n 0 --k 0 --P 2 --eps 1/2 --format csv':
        (0, 'a2ecf7331f0fce67317af48051a37276aae53da65a3ae29b5d00bdbafe8c424b'),
    'check continuous --family S --k 4 --t 1/3 --format json':
        (0, '2f27f232453f11bfe1d8a10b9ac0e63f4b06d85a71a241beb803570f3efdf38b'),
    'check continuous --family S --k 4 --t 1/3 --format csv':
        (0, '7a505808943a4cb0dc3247021363363c2fa0dcb464695d45af6335cf767ebd05'),
    'check continuous --poly {"d":2,"terms":[{"alpha":[3,0],"coeff":"1"},{"alpha":[1,2],"coeff":"-3"},{"alpha":[1,0],"coeff":"1/2"}]} --t 2 --format json':
        (0, 'f41c5ea5e26c679cda8415823d3e5e465b3e6ea88ffa463becdd914445d866b7'),
    'check continuous --poly {"d":2,"terms":[{"alpha":[3,0],"coeff":"1"},{"alpha":[1,2],"coeff":"-3"},{"alpha":[1,0],"coeff":"1/2"}]} --t 2 --format csv':
        (0, '172e954e1e799cb53c91a54c4fd6584a89c77035f7f1af96ed0eb4c259b82ead'),
    'conjecture scan --family S --k 12 --C 1 --eps 1/10 --format json':
        (0, '1054d2c45b9501fcbfd6a50c625ab7eb17d6cf8c5779ba9e57f2d9d2cc87c711'),
    'conjecture scan --family S --k 12 --C 1 --eps 1/10 --format csv':
        (0, 'b3f6bfb8354e775c07062435774667d8d3844bf9ca46bb70aca64727f5cb64eb'),
    'search counterexample --C 1 --eps 1/5 --k-max 30 --n0 100':
        (1, '186446123a47233f081b0cc14ae5d8732841e4fdd41eec0450bdf9d0ceb31cbf'),
    'search counterexample --C 2 --eps 1/10 --k-max 800':
        (0, 'e1f77c8c38723499a7e482acc4071007783e23a0f16ba4f17e6d50fc6e890d21'),
    'search counterexample --C 5/4 --eps 1/10 --k-max 1000':
        (1, '73c25d81206ee84b0a654759edf7965bd5a3cef0ccf6b177f661a55aae657d17'),
    'search counterexample --C 3/2 --eps 1/10 --k-max 1000':
        (1, '524bb823d90c2a4b9b331c72ef26721bc47ae3bf7121b75f548a899ccd8a91e7'),
    'growth --family S --k 40 --n-max 160 --newton':
        (0, '683f0a636bc899c2ab19694a5240844f111f4a2fd034aba47dff32d4152cec26'),
    'growth --family T --k 41 --n-max 100 --format csv':
        (0, '55454259a232199af5729b85e7c8c0f34065a3c1b9628fc0ff961ddd4e49d373'),
    'growth --family u --k 3 --d 3 --n-max 40':
        (0, '58f2d2b564fcadaedc0b9fd5a11fc72cdb70e668942945b8d54a50cf5b674dd0'),
    'growth --family random --k 6 --d 3 --seed 7 --n-max 30':
        (0, '5e763c2e23b177a84108c501bbb93fbf06ab50cecfb4387da42f637fd58f0955'),
}


def harm_stdout(case: str, tmp_path):
    """Run ``harm <case>`` in-process, with table names replaced by files; (code, stdout)."""
    argv = case.split()
    for i, word in enumerate(argv):
        if word in TABLES:
            path = tmp_path / f"{word}.json"
            path.write_text(json.dumps(TABLES[word]))
            argv[i] = str(path)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("case", CASES)
def test_stdout_is_pinned(case, tmp_path):
    code, text = harm_stdout(case, tmp_path)
    assert (code, hashlib.sha256(text.encode()).hexdigest()) == DIGESTS[case]
