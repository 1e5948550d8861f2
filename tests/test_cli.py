"""The CLI contract: one row per invocation, with its exit code, the sha256 of its stdout and the start of its stderr.

A change that alters an output re-pins that row and names it in CHANGES.md.
"""

import argparse
import csv
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys

import pytest
from conftest import balanced_ledger, ledger_json_dict

import monolab
from monolab import cli, fixtures
from monolab.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main

SAMPLE = os.path.join(os.path.dirname(monolab.__file__), "data", "sample_ledger.json")
EMPTY = hashlib.sha256(b"").hexdigest()
G2_LEDGER = ledger_json_dict(balanced_ledger("G2", 1))
E6_LEDGER = ledger_json_dict(balanced_ledger("E6", 2))
STEINBERG_DEGREE_3 = {"kind": "steinberg", "h0_local": 0, "field_degree": 3}
E8_EXCLUSIONS = {"certain": [229, 269], "disputed": [367, 397]}
G2_13_17 = [{"ell": 13, "h1_total": 1}, {"ell": 17, "h1_total": 0}]


def row(cmd, code, digest, err=None, ledger=None, **expect):
    """One invocation of `monolab cmd`, {tmp} and {sample} filled in.

    digest is the sha256 of stdout, or of the file that --out names; err is
    the start of stderr, None for an empty one; ledger is written to the file
    that --ledger names (a str as it is, anything else as JSON); expect holds
    report values, by top-level or flattened key, that a re-pin must keep.
    """
    return pytest.param(cmd, code, digest, err, ledger, expect, id=cmd)


# The accepted rows' digests predate the rank guard and the degree-0 and
# nesting and integer-length checks on ledgers, which added only rejected rows.
ROWS = [
    row("roots --type G2", 0, "b982d6738a9122078a81f21084315bfa9c94820d2eb9e540700419cc3f21dcb3"),
    row("roots --type G2 --format csv", 0, "6e3c4ebc42a98ec3266e2df854d2997626546488f3dd943f6b79d6a0d689b527"),
    row("roots --type G2 --format text", 0, "49fc12edd230ac88343638bf2a5f0996621071303088375244a2a946136ad113"),
    row("roots --type F4", 0, "519721bda12862d978b69698e9587dfa01c029fecb146c971194bc073f4a2f0b"),
    row("roots --type F4 --format csv", 0, "4970edb095e51eec51b853a345953bed2e0350f8e64284bdfc315a8657d4f688"),
    row("roots --type F4 --format text", 0, "c82f7a01c9d14e2bd0ec008534a6bd37b0507489cfb9936744e218cc26cda510"),
    row("roots --type E6", 0, "07b69c3460ad1cf2d15918585df5cc9660403273c0f34c92ec13ca73c2713652", None, exponents=[1, 4, 5, 7, 8, 11]),
    row("roots --type E6 --format csv", 0, "afb7942ecb962ceda7112dfde2c1eb682f259c10b782926906cf1b9ac5fe9350"),
    row("roots --type E6 --format text", 0, "2d2a42c7f9122bb66ac2c5a10a0fdd86e94e7a289481bcb88dfb8fa41817844a"),
    row("roots --type E7", 0, "ea67668888161437c39fefd1c6646c3c323df59503874534a3740d6686ba1499"),
    row("roots --type E7 --format csv", 0, "3fdfe5c4fe475307738bba17f39303e9a32065b453cc547d202646dd1f9be1c8"),
    row("roots --type E7 --format text", 0, "392699b667b49b4c126eb600143f1fef178c9b005b008d6503f4f6260bc9029f"),
    row("roots --type E8", 0, "0161a726b24611112285922797af16678d909f73e525b6522310c6a518cc92b0"),
    row("roots --type E8 --format csv", 0, "5963d24cd5359c35be623109b372ee59c2e7a376ace61885221205722b4c9f98"),
    row("roots --type E8 --format text", 0, "618abb627515740591a4383d79783b20e3aaf72a1c6a4a431bf48e5f69996d43"),
    row("roots --type A2", 0, "d1083968e92be1b9878d998b98cc09c7a9daf938c38e0c7611536a181e3a0f16"),
    row("roots --type A2 --format csv", 0, "e616cabdb9dd980d2653b91806df7d97a355225326d7e5728bb028ef9885ff5c"),
    row("roots --type A2 --format text", 0, "1c8f3667bfbd9c80e5773a8032c7ea2cf515fe11754251d3d48345655e7ffeb4"),
    row("roots --type A3", 0, "25c73180d9710c8dff394b5e79d685ddee400e37b3ceb5d5252278f34a01d88f"),
    row("roots --type A" + "0" * 5000 + "3", 0, "25c73180d9710c8dff394b5e79d685ddee400e37b3ceb5d5252278f34a01d88f"),
    row("roots --type B3", 0, "9c160f1bc13fe4eb2e038a8adff24d03b3873ba77cb04e5d08e10c30003bcc51"),
    row("roots --type B3 --format csv", 0, "55413423f1b5f8b19c135d3a8bb51096799b8b99ed49c315fd7037dfb5aaff19"),
    row("roots --type B3 --format text", 0, "8e0ee97501d2b4db06d836abd7c8ee71c261f06c34b3af4924370a6ce9ea8b86"),
    row("roots --type D4", 0, "60b4be4468f9ec986507e64f3e1e9cca7ba5faaea5b51261245d1b94ba0a89fd"),
    row("roots --type D4 --format csv", 0, "320dcf941fb930740f2de55562f3a2c9e750d001c0bfa1972b35bf94a7b7874e"),
    row("roots --type D4 --format text", 0, "a24ab776ee5221a3aad2f70159a83c8a350366832b235878eda3bfeb7f52d2bf"),
    row("kostant --type G2", 0, "f1ea4c5a41b160ec8111525a9221b1c57019fdecfc2af42afef1d29497ec1573", None, exponents=[1, 5]),
    row("kostant --type G2 --format csv", 0, "73bab7448dcb3cd4e5882134059969679f4e345060bcca68592153bba6638ebf"),
    row("kostant --type G2 --format text", 0, "6ee12dfc0327f70bb515a11b668fae76d4006a6b5958ae1af3547ba2b49a2f46"),
    row("kostant --type F4", 0, "8f216b9950511ec910d4bdabc4289e03996347f58603e6e8c19b95d596eab468"),
    row("kostant --type F4 --format csv", 0, "a937a7f329d7cb784ba1b7aef658fd95f5b7911cc43dfc1a15278cd714e3d29f"),
    row("kostant --type F4 --format text", 0, "cea81a219c05db752559f02f5740b57d8036b0d41a4de5a013cbfd757896540a"),
    row("kostant --type E6", 0, "88e972af7569a5d90860958027999e779ea66892a822e10a1329bdc208b6c724"),
    row("kostant --type E6 --format csv", 0, "2df15f6f678aa6fbd56b2572cfe15681add09254a317131944c31858e045119c"),
    row("kostant --type E6 --format text", 0, "aa0edab339bdbcc062c7cf9b4fbf7fbf2812f57ec88cc177a7142daff273867c"),
    row("kostant --type E7", 0, "ace1bd0dfa3845b4b76be4d5f737f7023fde34f24c2a58c4bec44928c0ce839c"),
    row("kostant --type E7 --format csv", 0, "2ebb1ea86442ace60f7bded367ce2b4ab669bed07ea77fbe5b2965bc079faf8b"),
    row("kostant --type E7 --format text", 0, "f8e96b2368c4c83418dfad1c96b6478d61193c58a036b39884ce728efe92f2ea"),
    row("kostant --type E8", 0, "813e48148b7b2455a7a0956d419d32fc27d38a4ee6953cece4dc541e8e197f16"),
    row("kostant --type E8 --format csv", 0, "5e2aec4aedaa97a293d4c005475129bd49386f5dcfcac37a21010566759def90"),
    row("kostant --type E8 --format text", 0, "72f0a6f786c945dde4aaae2288a9fb71ab0267b130fbcb1a3c0989262cc24523"),
    row("kostant --type A2", 0, "ac5a83ea9e0e25eb88d141130a0d30051ad5d7029316e75447fec627dbe7e3bf"),
    row("kostant --type A2 --format csv", 0, "bf67c537a47601c18d20c4104a4e02ae50154996a435c15f8cf4a73c7b86f6df"),
    row("kostant --type A2 --format text", 0, "8dce8198f7d82ed01e058c8ea870bfef6f4405c7996406cb56f768a4cd3ba736"),
    row("kostant --type B3", 0, "96b17bc9b2104699694b2d3d1b13642db77804b18c3f6cf63857596d7158fc46"),
    row("kostant --type B3 --format csv", 0, "e9c63c8bfaf0e6967e22ac5c9267f4be6a3b8f1d9d497ad4651b439ced1952e5"),
    row("kostant --type B3 --format text", 0, "db0f587dc8536391559d6b1b5eb7c8b640146c3488e7cb53348274de3cd7e67e"),
    row("kostant --type D4", 0, "96ad51d26bf77f60464c502e589fc8b6333f2a774617d253b6769173415a2e59"),
    row("kostant --type D4 --format csv", 0, "1506caff685720a0757c82596c4a1f7aefd3bf3da43d522deee791f36bc9d996"),
    row("kostant --type D4 --format text", 0, "37373d3f77aa0c5cc90cdecca31d063192c2e9897958014dec48c9e390b6d177"),
    row("primescan --type G2", 0, "930b51cb37d56b60b77d0341bd0aaf34623552fa923abcc3e39b22ecf127ba49"),
    row("primescan --type G2 --format csv", 0, "3855927f07b7409862aa8b0c30b5cce6a318a5608bca37ebeba5101aecb6be29"),
    row("primescan --type G2 --format text", 0, "fe823f5de46eb11a9443ccdc2a31f1f18538877ab28561bcaacf9ffba3d7acc1"),
    row("primescan --type F4", 0, "43bbee4fb56122acb0fad457d892066e5111f609fb75eeed4b536925f29f009f"),
    row("primescan --type F4 --format csv", 0, "d84608dafb90740912c221bf9cedb05fe7ec379ee514ae0fc7bca3b3c7f0b237"),
    row("primescan --type F4 --format text", 0, "46b38dcd88094960eddfed76b172973f0d3ad1e3fd7793eba6c3c31c48a0abc2"),
    row("primescan --type E6", 0, "1e2d4de8bf2f9340689513ca13cb680ab8191f6f1cb9f46c79cdd2736784e331"),
    row("primescan --type E6 --format csv", 0, "d9cdfe64cbdb22f201a8ddf8b3e3da623e50ac6ee0995e725c83cef56f21636f"),
    row("primescan --type E6 --format text", 0, "9732dc1347f674efaba421892f5d229e5935b93592dd4f8ff9e320602529cb8d"),
    row("primescan --type E7", 0, "0b0dda54bd3d820be0f7e62eb5b80c68a1e17c5a362dea9f100f18a7de2407f3"),
    row("primescan --type E7 --format csv", 0, "291bdf7fec55797b9e8d660f1c2b0a5c98bf8fb3ae79c21de8dad962d429c73b"),
    row("primescan --type E7 --format text", 0, "016a660781b197f637f5429b03809b4ca8f6fc2b33a3aeafcb17226c3861a5aa"),
    row("primescan --type E8", 0, "4bb40c719665e43f1ef7f79b55ae17e52f6e00daab1000bcd4b7b21a96b7ef91"),
    row("primescan --type E8 --format csv", 0, "5fd13c6d660c5aca78a10655fa141d4b41a003dbea919461968a2c66beb5e770"),
    row("primescan --type E8 --format text", 0, "35cdd9b422a3e33a13c7e3bf6af9fa7bb848fa93af77c1efbab4c4ee86e2f1a3"),
    row("primescan --type A2", 0, "4b47f9a7108c5616be00e380ca178bd43877f48ccb78db20b842b06035df7215", None, informational=True),
    row("primescan --type A2 --format csv", 0, "55efbdf8ee908b76a103a6867bac309b7aa2b1957a9fd1b1c6e5aa2188e23d3f"),
    row("primescan --type A2 --format text", 0, "f4d3af1218f147e12d2ba4d61e1829eac31cfbbea22f0129afa2db225ba70058"),
    row("primescan --type B3", 0, "9ce0fe1d7ba4d32828d582cd49a48c7d46137bb61e8d5e8fdcd1fdd6c2da4e22"),
    row("primescan --type B3 --format csv", 0, "c061a293027c855410294960077ad806c6ccb3e9797dd4644933af5e71b1e62b"),
    row("primescan --type B3 --format text", 0, "157a5dcad266b6dbd30fca5e20ba56aefd4b9bd92f2c1adcee85cd45e7740df2"),
    row("primescan --type D4", 0, "41f83f11e82d65be0eda9df4024d731223f0b43a7953a86dcde38f6ba5ef58c6"),
    row("primescan --type D4 --format csv", 0, "3ecfa523e0beedca6d4b4cc7fbf062e781fac7805f0a628966b1a5980e012772"),
    row("primescan --type D4 --format text", 0, "a1cee5711b2c8d008354728d41b9da861e975830895de8374e438ab4995b7a82"),
    row("primescan --type G2 --check-paper", 0, "753a8cea2b3d77494c63e308d4f31374d880778c6351df3bd83216dc23c7ff0b", None, bad_primes=[2, 3, 5], check_paper={"expected": [2, 3, 5], "note": "", "ok": True}),
    row("primescan --type F4 --check-paper", 0, "761d1dced9d4777c5bf8502732f7c949ba03cbe86789ad1a02ad9ecb3f3f7e35"),
    row("primescan --type E6 --check-paper", 0, "5e0307ac4368ecb804db0f5ed470bbfd50da57b4c369d7ab5227f7e727400ce7"),
    row("primescan --type E7 --check-paper", 0, "26ea915c313ea70f75b2a568fd9d3decc8b50eb1a747cb82b6c2949f12daf312"),
    row("primescan --type E8 --check-paper", 0, "1b26228156d97e3d17b7e001dd004b410ec28b80a967c4c74564622a5e25becf"),
    row("primescan --type A2 --check-paper", 0, "8ed0506a3350b2c87699c61af4898ef7a0521826d857136bbc106d6afb070cc9"),
    row("primescan --type E8 --check-paper --format text", 0, "43fd8058e9c4b159f68b38498e8b811b895a295f06ee97450ee3680178233a1c"),
    row("bounds --type G2", 0, "502be3377e012b48c4b549d6bc463b278863f2611bb0a37f8a549b88c6d43a30"),
    row("bounds --type G2 --format csv", 0, "b8b6d6679d94c4da7742ce90a4ea56affc216cb51efd8382e0a91fb9d04e3a2d"),
    row("bounds --type G2 --format text", 0, "da9f75ce233bb35b86e46310754b7403d35258ed5f3896c5b718e7aaf15f936c"),
    row("bounds --type F4", 0, "1c8ea9c5a0f7133156f726a3684857c139a3d485370847b86d4c4318586c353d"),
    row("bounds --type F4 --format csv", 0, "61763aea63b1f4fb68ff9e6e27b736c8dbc42d6f13a17a45327574e62944e656"),
    row("bounds --type F4 --format text", 0, "369dd72b2d9bf3720533a78b8abc4766d7f3c3dc92c74c7b84910958d7c12d32"),
    row("bounds --type E6", 0, "b5d5d5bdff6bd3e369929ca5dfcaaf6852b7ae65dd056cf82e050b5212e032fc", None, principal_sl2_bound=47),
    row("bounds --type E6 --format csv", 0, "786b2048c8982533ad788cd1b5741ca379e037f41c23ac659ae650cfdd17a657"),
    row("bounds --type E6 --format text", 0, "4007ffd1cbc4bf86cf9e7ad81c137925ad7a730b8eadebbb128846bc6fdbe139"),
    row("bounds --type E7", 0, "2801e8ccff41668ad1a4c9d88ba6e7dd9c49c9335017128cdbfc7ecda812ca0f"),
    row("bounds --type E7 --format csv", 0, "a0ab958ca7e216fed7b9bf7c03f011582e21eb229edb351d07e05d8c48b0d698"),
    row("bounds --type E7 --format text", 0, "50f25472e03c9096480dcecff04f12017ce1f5555b8eb964a4135237c90253ad"),
    row("bounds --type E8", 0, "d646ca0230ba4b5c3bc15d22603d9e1af0e89d99ae5b9ad9d97fdac7162a6b60", None, maximal_image_bound=59, principal_sl2_bound=119, e8_exclusions=E8_EXCLUSIONS),
    row("bounds --type E8 --format csv", 0, "0b7808052d75d32f832f38f79ee8786174b1251d5c6895c2724ce32c4227daba", None, maximal_image_bound=59, principal_sl2_bound=119, e8_exclusions=E8_EXCLUSIONS),
    row("bounds --type E8 --format text", 0, "d74fca57942deaf4771a003a764bee713689c5643a761019ec037cbb34d9c2ac"),
    row("bounds --type A2", 0, "fbc7ac71f962e13eb5645e27da5dc6b3d8f4ed05af059ec032d2a41238288c0c"),
    row("bounds --type A2 --format csv", 0, "dce676842516f1765ca47c98dd3d081ca3ec143ae2268fc1f985e95d4fb075d4"),
    row("bounds --type A2 --format text", 0, "8ca2878c10d07c11070f73304d104e7969d7b05f861437a4f4fc74eac3c51e21"),
    row("bounds --type B3", 0, "f4e0d3924a43a507d2eb30de466b3cf3e39c32c1572163c6a7bfd5e281b9c251"),
    row("bounds --type B3 --format csv", 0, "280bf6069d989f34b611b80a7a72c5a07fb79760f180294a54f34687f304738b"),
    row("bounds --type B3 --format text", 0, "00fadfe69627c81f5839df8d790acef2e8ebe497c07b5671d74a31e9baac6b5c"),
    row("bounds --type D4", 0, "d8d9fa5961c7f3513ed68557d28ac010fc4467d6a0b431683e17f21a40ec2db6"),
    row("bounds --type D4 --format csv", 0, "fe8f019d3a651ba4e3e7485653c495a7904a93440dd453f28efdd16116d75c46"),
    row("bounds --type D4 --format text", 0, "597d2384711cf0148f8f885f1bffe0f3bff6fd5685964bf50f0aeab5947b3fe4"),
    row("bounds --type A32", 0, "29f0e377de7bddece8ffdc7d46845b603e3eef575864aabace034e57dabbc53a"),
    row("cohomology --ell 7 --sym 2", 0, "ec35aa44681448681eba90442aa8a32ce116fa1316fc80ccdb9211c42e589dfd"),
    row("cohomology --ell 7 --sym 7", 0, "6ab295be12721931371ce8a4b0493b6ca79686046605cfb87b1b1f122a6c019b", None, h0=0, h1=0),
    row("cohomology --ell 7 --sym 8", 0, "917cca733a61b838d571fbbbd76cfc4efae6d4d92ee2ff9a316bcd18aed03215", None, h0=1, h1=0),
    row("cohomology --ell 7 --sym 10", 0, "d3edc99393bd502d0bbab981968f94d35be26e9193312dc96b66a570be6f32bb", None, h0=0, h1=1),
    row("cohomology --ell 7 --sym 2 --format csv", 0, "9265c8908e3da728a219458691616ff5dbd3d41c45587ce54fba97864da1b410"),
    row("cohomology --ell 7 --sym 2 --format text", 0, "f8e875da3c0d1fdb7fe4fd26cd2e36845b29599a5b467fd6d4213a6de4f8b962"),
    row("cohomology --ell 7 --sym 2 --twist -1", 0, "ec35aa44681448681eba90442aa8a32ce116fa1316fc80ccdb9211c42e589dfd", None, h0=0, h1=0),
    row("cohomology --ell 7 --sym 2 --twist 0", 0, "3ef2be1051ae3cf44ceb97f748c4b6e654375302427de9586b6e3df145111d98"),
    row("cohomology --ell 7 --sym 2 --twist 5", 0, "ff9d6352099b6cff66262a504863c7bae46831624518eb45e0b04e0a2ba1e29c"),
    row("cohomology --ell 127 --sym 4", 0, "3eaf3eeaee767ad3da7659d41696d929f4c688b7b02a2f188d06fd87ce1dfd36", None, h1=0, solver="borel"),
    row("cohomology --ell 29 --sym 8", 0, "c8238fb35d5e001b2295928db5ee98c51e457280e6fc9a01d5dd9654304544b4"),
    row("cohomology sweep --type G2 --ell 13..17", 0, "3bc062039db2b7df0fab0da7bbdf00283f9d216ebbf4785de0aca66e675a2bd2", None, sweep=G2_13_17),
    row("cohomology sweep --type g2 --ell 13..17", 0, "3bc062039db2b7df0fab0da7bbdf00283f9d216ebbf4785de0aca66e675a2bd2", None, simple_type="G2", sweep=G2_13_17),
    row("cohomology sweep --type G2 --ell 13..29", 0, "14210a29afe4a5203b2feabb236b7611f6e60135b4f816d6c695304ec60e338d"),
    row("cohomology sweep --type G2 --ell 24..28", 0, "35ecf42b6dc00bac72313160d3c8932e26ca78f9b34c0c301f00784898d15eb9", None, simple_type="G2", sweep=[]),
    row("cohomology sweep --type G2 --ell 13..29 --format csv", 0, "650505ff5ab32a386904f58ef3192ff6b784a706400e3c431741a3272b57a08e"),
    row("cohomology sweep --type G2 --ell 13..29 --format text", 0, "95a04af47cd50b8f825c136205a7c83719bf4d3b02f60cb50c3b12ded7343623"),
    row("selmer --ledger {sample}", 0, "b4c7110465b5e214687333bc46254a5614e3ea15fb17a9f172446c7e9caf3db1"),
    row("selmer --ledger {sample} --format csv", 0, "fab0c9f3b669199815e6ed10cc5f0478155db3c60b14122d69abc692a1e7ce76"),
    row("selmer --ledger {sample} --format text", 0, "9211e1c3ac974c723964e665885b6447efe1988667aacf1a792af1d365e63acd"),
    row("selmer --ledger {tmp}/e6-balanced.json", 0, "b4c7110465b5e214687333bc46254a5614e3ea15fb17a9f172446c7e9caf3db1", None, ledger=E6_LEDGER, wiles_difference=0, oddness_deficit=0, lgroup_euler_difference=0),
    row("selmer --ledger {tmp}/e6-balanced.json --format csv", 0, "fab0c9f3b669199815e6ed10cc5f0478155db3c60b14122d69abc692a1e7ce76", None, ledger=E6_LEDGER),
    row("selmer --ledger {tmp}/e6-balanced.json --format text", 0, "9211e1c3ac974c723964e665885b6447efe1988667aacf1a792af1d365e63acd", None, ledger=E6_LEDGER),
    row("verify-paper", 0, "e5fc51d80b1d4256f7572db950acaca8724dc14a6846ccbf813932459fedd788", "PASS prime-lists"),
    row("verify-paper --only prime-lists --only selmer-identities", 0, "981a3d13a914dd196bae6c3d19588164bae16b4abaaf4fb43681a398326f0ffc", "PASS prime-lists", all_ok=True, **{"criteria.0.name": "prime-lists", "criteria.1.name": "selmer-identities"}),
    row("verify-paper --only prime-lists --only selmer-identities --format text", 0, "5bf4ff644416d116cbbaf23074b5b4e82581fd86970f2add89fc3f75ca7ee1a2", "PASS prime-lists"),
    row("roots --type A2 --out {tmp}/roots.json", 0, "d1083968e92be1b9878d998b98cc09c7a9daf938c38e0c7611536a181e3a0f16", None, coxeter_number=3),
    # rejected: exit 1, nothing on stdout
    row("selmer --ledger {tmp}/no-such-dir/ledger.json", 1, EMPTY, "error: [Errno 2] No such file or directory: "),
    row("selmer --ledger {tmp}/missing-key.json", 1, EMPTY, "error: ledger is missing the key 'h0_global'", ledger={"schema_version": 1}),
    row("selmer --ledger {tmp}/not-an-object.json", 1, EMPTY, "error: a ledger must be a JSON object, got list", ledger=[]),
    row("selmer --ledger {tmp}/str-dim.json", 1, EMPTY, "error: h0_global must be an int, got '3'", ledger={**G2_LEDGER, "h0_global": "3"}),
    row("selmer --ledger {tmp}/local-missing-key.json", 1, EMPTY, "error: local condition 0 is missing the key 'h0_local'", ledger={**G2_LEDGER, "locals": [{"kind": "steinberg"}]}),
    row("selmer --ledger {tmp}/float-dim.json", 1, EMPTY, "error: h0_global must be an int, got 1.5", ledger={**G2_LEDGER, "h0_global": 1.5}),
    row("selmer --ledger {tmp}/bool-dim.json", 1, EMPTY, "error: dim_n must be an int, got True", ledger={**G2_LEDGER, "dim_n": True}),
    row("selmer --ledger {tmp}/float-arch.json", 1, EMPTY, "error: archimedean_fixed_dims[0] must be an int, got 2.5", ledger={**G2_LEDGER, "archimedean_fixed_dims": [2.5]}),
    row("selmer --ledger {tmp}/arch-not-a-list.json", 1, EMPTY, "error: archimedean_fixed_dims must be a list of ints, got 6", ledger={**G2_LEDGER, "archimedean_fixed_dims": 6}),
    row("selmer --ledger {tmp}/float-custom.json", 1, EMPTY, "error: custom_dim must be an int, got 2.5", ledger={**G2_LEDGER, "locals": [{"kind": "custom", "h0_local": 0, "custom_dim": 2.5}]}),
    row("selmer --ledger {tmp}/bool-local.json", 1, EMPTY, "error: h0_local must be an int, got False", ledger={**G2_LEDGER, "locals": [{"kind": "ordinary", "h0_local": False}]}),
    row("selmer --ledger {tmp}/locals-not-a-list.json", 1, EMPTY, "error: locals must be a list of objects, got 3", ledger={**G2_LEDGER, "locals": 3}),
    row("selmer --ledger {tmp}/local-not-an-object.json", 1, EMPTY, "error: local condition 0 must be an object, got 3", ledger={**G2_LEDGER, "locals": [3]}),
    row("selmer --ledger {tmp}/stray-field-degree.json", 1, EMPTY, "error: field_degree is read only when kind='ordinary', got it on kind='steinberg'", ledger={**G2_LEDGER, "locals": [STEINBERG_DEGREE_3, {"kind": "ordinary", "h0_local": 0}]}),
    row("selmer --ledger {tmp}/degree-0-with-archimedean.json", 1, EMPTY, "error: a totally real field of degree 0 needs as many archimedean entries, found 2", ledger={**G2_LEDGER, "totally_real_degree": 0, "archimedean_fixed_dims": [6, 6]}),
    row("selmer --ledger {tmp}/bool-version.json", 1, EMPTY, "error: unsupported ledger schema_version True, expected 1", ledger={**G2_LEDGER, "schema_version": True}),
    row("selmer --ledger {tmp}/nested.json", 1, EMPTY, "error: ledger JSON nested too deeply to parse", ledger="[" * 100000),
    row("selmer --ledger {tmp}/huge-int.json", 1, EMPTY, "error: ledger JSON holds an integer too long to parse", ledger=json.dumps({**G2_LEDGER, "dim_n": "N"}).replace('"N"', "7" * 5000)),
    row("selmer --ledger {tmp}/misspelt-local-key.json", 1, EMPTY, "error: local condition 0 has the unknown key 'field_degre'", ledger={**G2_LEDGER, "locals": [{"kind": "ordinary", "h0_local": 0, "field_degre": 1}]}),
    row("selmer --ledger {tmp}/misspelt-key.json", 1, EMPTY, "error: ledger has the unknown key 'local'", ledger={"local" if k == "locals" else k: v for k, v in G2_LEDGER.items()}),
    row("cohomology --ell 7", 1, EMPTY, "error: --sym is needed outside sweep mode"),
    row("cohomology --ell 7 --sym -1", 1, EMPTY, "error: --sym -1: expected a symmetric power r >= 0"),
    row("cohomology --ell 7 --sym -1 --twist 3", 1, EMPTY, "error: --sym -1: expected a symmetric power r >= 0"),
    row("cohomology --ell 13..17 --sym 2", 1, EMPTY, "error: --ell 13..17: a range is read only in sweep mode"),
    row("cohomology sweep --ell 13..17", 1, EMPTY, "error: sweep mode needs --type"),
    row("cohomology sweep --type G2 --ell 31..13", 1, EMPTY, "error: --ell 31..13: the range runs downwards; expected low..high like 13..31"),
    row("cohomology sweep --type G2 --ell 13..", 1, EMPTY, "error: --ell 13..: expected a prime like 13, or a range like 13..31 in sweep mode"),
    row("cohomology sweep --type G2 --ell x", 1, EMPTY, "error: --ell x: expected a prime like 13, or a range like 13..31 in sweep mode"),
    row("cohomology sweep --type G2 --ell 13..x", 1, EMPTY, "error: --ell 13..x: expected a prime like 13, or a range like 13..31 in sweep mode"),
    row("cohomology sweep --type G2 --ell ١٣", 1, EMPTY, "error: --ell ١٣: expected a prime like 13, or a range like 13..31 in sweep mode"),
    row("cohomology sweep --type G2 --ell 13..100000000000000", 1, EMPTY, "error: --ell 13..100000000000000: primes are read only below 2**31"),
    row("cohomology --ell " + "9" * 5000 + " --sym 2", 1, EMPTY, f"error: --ell {'9' * 5000}: primes are read only below 2**31"),
    row("cohomology --type Z9 --ell 7 --sym 2", 1, EMPTY, "error: --type not read outside sweep mode"),
    row("cohomology sweep --type G2 --ell 13 --sym 4", 1, EMPTY, "error: --sym not read in sweep mode"),
    row("cohomology sweep --type G2 --ell 13 --twist 0", 1, EMPTY, "error: --twist not read in sweep mode"),
    row("cohomology sweep --type Z9 --ell 24..28", 1, EMPTY, "error: not a classified simple type: Z9"),
    row("roots --type Z9", 1, EMPTY, "error: not a classified simple type: Z9"),
    row("kostant --type E9", 1, EMPTY, "error: not a classified simple type: E9"),
    row("bounds --type C2", 1, EMPTY, "error: not a classified simple type: C2"),
    row("primescan --type A0", 1, EMPTY, "error: not a classified simple type: A0"),
    row("roots --type A10000000000", 1, EMPTY, "error: A10000000000: ranks above 32 are not built"),
    row("primescan --type A99", 1, EMPTY, "error: A99: ranks above 32 are not built"),
    row("bounds --type A33", 1, EMPTY, "error: A33: ranks above 32 are not built"),
    row("roots --type A³", 1, EMPTY, "error: cannot parse simple type 'A³'"),
    row("roots --type A٣", 1, EMPTY, "error: cannot parse simple type 'A٣'"),
    row("roots --type A" + "9" * 5000, 1, EMPTY, f"error: A{'9' * 5000}: ranks above 32 are not built"),
    row("verify-paper --only nonsense", 1, EMPTY, "error: unknown criteria: ['nonsense']"),
    row("cohomology --ell 7 --sym 2 --naive", 1, EMPTY, "usage: monolab [-h] {roots,kostant,primescan,cohomology,selmer,bounds,verify-paper} ...\nmonolab: error: unrecognized arguments: --naive"),
    row("verify-paper --nightly", 1, EMPTY, "usage: monolab [-h] {roots,kostant,primescan,cohomology,selmer,bounds,verify-paper} ...\nmonolab: error: unrecognized arguments: --nightly"),
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fields(text, fmt):
    """The (key, value) pairs of a report in any of the three formats, keyed as `cli._flatten` keys them."""
    if fmt == "json":
        return cli._flatten(json.loads(text))
    if fmt == "csv":
        return list(csv.reader(io.StringIO(text)))[1:]
    return [line.split(" = ", 1) for line in text.splitlines()]


def subtree(pairs, key):
    """The pairs at `key` or below it, values as text, so an empty list is an empty subtree."""
    return {k: str(v) for k, v in pairs if k == key or k.startswith(f"{key}.")}


@pytest.mark.parametrize("cmd, code, digest, err, ledger, expect", ROWS)
def test_cli_contract(tmp_path, capsys, monkeypatch, cmd, code, digest, err, ledger, expect):
    monkeypatch.setenv("COLUMNS", "200")  # argparse wraps its usage line at the terminal width
    argv = [arg.format(tmp=tmp_path, sample=SAMPLE) for arg in shlex.split(cmd)]
    if ledger is not None:
        with open(argv[argv.index("--ledger") + 1], "w") as fh:
            fh.write(ledger if isinstance(ledger, str) else json.dumps(ledger))
    got, out, stderr = run_cli(capsys, *argv)
    if "--out" in argv:
        assert out == ""
        with open(argv[argv.index("--out") + 1]) as fh:
            out = fh.read()
    sha = hashlib.sha256(out.encode()).hexdigest()
    assert (got, sha) == (code, digest), out[:2000]
    assert stderr.startswith(err) if err else stderr == "", stderr
    pairs = fields(out, argv[argv.index("--format") + 1] if "--format" in argv else "json") if expect else ()
    for key, value in expect.items():
        assert subtree(pairs, key) == subtree(cli._flatten(value, f"{key}."), key), key


def test_every_subcommand_option_and_choice_has_a_row():
    # a new subcommand, option or choice joins the contract only with a row that runs it
    heads, tokens = {EXIT_OK: set(), EXIT_USAGE: set()}, set()
    for param in ROWS:
        argv, code = shlex.split(param.values[0]), param.values[1]
        heads[code].add(argv[0])
        tokens.update(argv if code == EXIT_OK else ())
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, parser in subparsers.choices.items():
        assert name in heads[EXIT_OK] and name in heads[EXIT_USAGE], name
        for action in parser._actions:
            if not isinstance(action, argparse._HelpAction):
                assert not action.option_strings or set(action.option_strings) & tokens, (name, action.option_strings)
                assert set(action.choices or ()) - {action.default} <= tokens, (name, action.choices)


def test_repeat_runs_bit_identical(capsys):
    _, out1, _ = run_cli(capsys, "primescan", "--type", "F4")
    _, out2, _ = run_cli(capsys, "primescan", "--type", "F4")
    assert out1 == out2


def test_primescan_corrupted_fixture_exits_2(capsys, monkeypatch):
    # negative control: a mutated reference list must be reported, exit 2
    monkeypatch.setitem(fixtures.OBSTRUCTION_PRIMES, "G2", (2, 3, 7))
    code, out, err = run_cli(capsys, "primescan", "--type", "G2", "--check-paper")
    assert code == EXIT_MISMATCH
    assert "mismatch" in err
    doc = json.loads(out)
    assert doc["check_paper"]["ok"] is False


def test_verify_reports_raising_criterion_as_fail(capsys, monkeypatch):
    # a constructor that refuses the structure a criterion checks gives a FAIL
    # line and exit 2, not exit 1 with "error:"
    from monolab import verify

    def refuse(t):
        raise ArithmeticError("eigenvalue 2*1: got 0 eigenvectors, expected 1")

    monkeypatch.setattr(verify, "principal_kostant", refuse)
    code, out, err = run_cli(capsys, "verify-paper", "--only", "kostant-structure")
    assert code == EXIT_MISMATCH
    assert "FAIL kostant-structure" in err and "error:" not in err
    doc = json.loads(out)
    assert doc["all_ok"] is False
    assert doc["criteria"] == [
        {
            "name": "kostant-structure",
            "ok": False,
            "details": ["ArithmeticError: eigenvalue 2*1: got 0 eigenvectors, expected 1"],
        }
    ]


def test_verify_fixture_corruption_exits_2(capsys, monkeypatch):
    # a mutated embedded table first trips the embedded-vs-file sync guard
    monkeypatch.setitem(fixtures.OBSTRUCTION_PRIMES, "F4", (2, 3))
    code, out, err = run_cli(capsys, "verify-paper", "--only", "prime-lists")
    assert code == EXIT_MISMATCH
    assert "fixture-sync" in err
    # with the guard bypassed, the named criterion itself reports the mismatch
    monkeypatch.setattr(fixtures, "assert_data_file_sync", lambda: None)
    code, out, err = run_cli(capsys, "verify-paper", "--only", "prime-lists")
    assert code == EXIT_MISMATCH
    assert "FAIL prime-lists" in err
    doc = json.loads(out)
    assert doc["all_ok"] is False


def test_fixture_data_file_in_sync():
    fixtures.assert_data_file_sync()


def test_python_dash_m_runs_the_cli():
    # `python -m monolab` is the same program as `python -m monolab.cli`
    src = os.path.dirname(os.path.dirname(monolab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    package, module = (
        subprocess.run([sys.executable, "-m", name, "roots", "--type", "G2"], env=env, capture_output=True, text=True, timeout=60)
        for name in ("monolab", "monolab.cli")
    )
    assert package.returncode == module.returncode == EXIT_OK
    assert package.stdout == module.stdout != ""
