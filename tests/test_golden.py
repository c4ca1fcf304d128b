"""Byte-stability of the CLI: sha256 of stdout and stderr, and the exit code.

Each command runs in-process through ``pieri.cli.main``.  The digests were
recorded from a known-good build; a change that alters any of these bytes
fails here.  To see what changed, run the command by hand and compare the
output with that of the recording commit.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from pieri.cli import main

# (command line, sha256 of stdout); each exits 0 with nothing on stderr
GOLDEN = [
    ("poset --k 2 --ell 2 --format json",
     "dc1283e1c1254fe94470a7fafc4ae531387b63a17eb3bb17e21bed3d7769fbd2"),
    ("poset --k 2 --ell 2 --format dot",
     "f764ef9b21da0a2658cb9a6a03f78a17ff36fdef5c90a932cbc21176495d10d1"),
    ("lattice --k 2 --ell 2 --format json",
     "194e985158ef9d673821d7fd7e133a93fb1fbb558d6b5bdda96bf1150e58f5ad"),
    ("lattice --k 2 --ell 2 --format dot",
     "13ef148f4e3d918b00e17eeb4a69a1e656ea887ae0ff7e009bbfdac6d3a995c0"),
    ("poset --k 2 --ell 3 --format json",
     "e3c19bff0598c0111036631bf986e496ae05f6aaee1fb13c03101e6b99f47385"),
    ("poset --k 2 --ell 3 --format dot",
     "2b39ff2036d9756d7ab3743a31f4211b10f9103dadc35e6d5ffee07d843342a8"),
    ("lattice --k 2 --ell 3 --format json",
     "832a8c00bab26a9cc8480800058704813bcf25ae9987a4a13b11aa893736165e"),
    ("lattice --k 2 --ell 3 --format dot",
     "e21151e2f68a8729b271d9861953583ba677804674b5ed29fd0d173445501eeb"),
    ("lattice --k 3 --ell 2 --format json",
     "af31b544afb9f69a39d033d5f382adb933813711810febf97576cf8113b99f43"),
    # 64 pair subsets per row part
    ("lattice --k 1 --ell 4 --format dot",
     "a716ec896384fe7bc6ca7ca0f6e02ad05b2c4ba44e5b539e2864f5dcf206694a"),
    # --json overrides --format dot
    ("poset --k 2 --ell 1 --format dot --json",
     "7c3993b3348066ba057d4b3b0b7ec4116ce0645db1fc26d29e289ad3a0cf25dd"),
    ("lattice --k 2 --ell 1 --format dot --json",
     "1c34e8b395efb22e0eed77cc66d50ce475d577b2cbf9897997479cca44ef55f0"),
    ("decompose --group o --k 1 --ell 1 --D 1 --P 1 --json",
     "61b63d1c6b495f3f8f846410c787b56046c564c6b84816c5fdcc5e35655f5c28"),
    ("decompose --group sp --k 1 --ell 1 --n 2 --D 1 --P 1 --json",
     "be5c393345d2c474de582e7122ac3ce4a6dd190c889dd0e1d67c2e45e4510a14"),
    ("decompose --group gl --n 3 --D 2,1 --P 1,1 --json",
     "b0ce8fc82cbf393d8110c88beef59209855e9791b427b86b2e6be61c77a2bc15"),
    ("decompose --group gl --n 4 --D 2,1,1 --P 3,2,2,1,1 --json",
     "c6540a2e7c99714d1fb4762412ad5a712dd1fb3a0b5d093e50dce199bb3e06f4"),
    ("decompose --group gl --n 2 --D 2,1 --P 2,2,1 --json",
     "cbe2db0d3fe08c60e5218521fe2226f1e43a98342fbdf51e70dc6a68111b2c46"),
    ("decompose --group o --k 3 --ell 3 --D 3,2,1 --P 3,3,3 --json",
     "b268cc56d9f2d6dfbdf9609442c9679d4f6488969cf2261ebba955a1fd21c2c5"),
    ("decompose --group o --k 1 --ell 4 --D 3 --P 3,2,2,1 --json",
     "688a7d16beb33365bbb3bb531c9c769b4d6fc571ea77d9c2547414570a9ad122"),
    ("decompose --group sp --k 2 --ell 4 --n 6 --P 2,2,2,2 --json",
     "3fe05ddad2be142451ada560d41404426995499bfd67bb8fcdb33e1f94302b61"),
    ("cone --k 2 --ell 1 --D 2 --P 2 --F 3,1 --list",
     "c88955495ad9638302e29b22fb7b0794b662c062688f49d3c84ff8138b126f7d"),
    ("cone --k 1 --ell 4 --D 3 --P 3,2,2,1 --F 5,2,1,1 --list",
     "b4199d3cc301d5182f4835894897e77a9e47a7f4291656f93d13171e6e88180e"),
    ("cone --k 2 --ell 3 --D 2,1 --P 2,2,1 --F 3,1 --list",
     "060d093a8d512d9b80d59cec7b8034e2afe12622678b2a76cba843b2e078e1c4"),
    ("cone --k 2 --ell 4 --D 2 --P 2,1,1,1 --F 2,1 --list",
     "969058acbce02b5b6aabcd575bbf440d2e2fea3ae67d164090bafd5ae245eba6"),
    ("mult --k 2 --ell 2 --D 2,1 --P 2,1 --F 3,2,1 --verify --json",
     "f073644e73bc3543a3f0e50f1f64b07010effa01c90820f122894ebecc890113"),
    ("mult --group gl --n 4 --D 2,1 --P 2,1,1 --F 3,2,1 --verify --json",
     "aa4a722cc593d1c8f1ebb4072108d686f6882634bfbc4073045e7fa4b12955bb"),
    ("mult --group gl --n 4 --D 2,1 --P 2,1,1 --F 3,2,1,1 --verify --json",
     "d966c97c64c757d8c9597b3801bcbba9d8af82e354edae617bdfed121005ac9a"),
    ("verify --suite oracle --k 2 --ell 2 --json",
     "daf148235d9362122c48b42c93bba1b0c905c9318cb6327b2018738cf0bff851"),
    ("verify --suite all --k 2 --ell 1 --json",
     "91923748752bd6635c788b2e4a87110779be53f073d4fb627bc62c68f55ded77"),
    ("verify --suite hibi,subduction --k 1 --ell 3 --n 9 --json",
     "009cd6fb0581962a97b0625e4511a8d8991abf774257f5d6a4c16666682b2786"),
    ("verify --suite lm,hw --k 2 --ell 2 --n 9 --json",
     "aaf48bfc7dc102308271f16b5d3f78905cfe5675f450743be1c125323c85059e"),
    ("verify --suite hw --k 2 --ell 3 --n 11 --json",
     "0168042e7c1ba6526269739e2d64ee464979f41b4b1d6bc6b4f8b952536cb368"),
    ("eta --k 1 --ell 1 --n 5 --c 0 --I 1 --J 1 --json",
     "30e009f951e3bce33b627ff22b503dc22c5691152af72e47c80207cef8ddb136"),
    ("eta --k 2 --ell 2 --n 9 --c 1 --I 2 --J 1,2 --Z 1:2 --json",
     "574db543450875aaebb8dfc50af2b082bbd80c59f539919a979d58e6fee0f0d7"),
    ("eta --k 2 --ell 3 --n 11 --c 0 --I 1,3 --J 2 --Z 1:3,2:3 --json",
     "0805ae6825251822778531a1d72918c11d30da999f041924fe55325bf245b0fe"),
    ("eta --k 3 --ell 2 --n 11 --c 1 --I 2 --J 1,2 --Z 1:2 --json",
     "1abdaef768b498c0aac5fd581681651f1f36f135549072a495d70693f6ded900"),
]

# (command line, exit code, sha256 of stderr); each writes nothing to stdout
ERRORS = [
    # unknown subcommand
    ("frobnicate --k 1", 1,
     "f76bd94343958b38857bf83af37fb760df028e0e51db65f0c4734cb4ad24cc49"),
    # non-integer --k
    ("mult --k x --ell 1", 1,
     "6b276a7594e1a6d95d0c04a27388cdde1471ceba217a440b2bde9b401b483477"),
    # lattice without --k
    ("lattice --ell 2", 2,
     "7214918c63e5f2c0e36851e3171338cd949d7a0a2060b3656abcbe9a74a63f4f"),
    # decompose outside the stable range
    ("decompose --k 2 --ell 2 --n 8 --D 1 --P 1", 2,
     "872846d8ea40cc8d556a86d016b7ce39937507e938216aa714bcb465b69b89d4"),
]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command, out_sha", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_output_bytes(command, out_sha):
    code, out, err = run(command.split())
    assert (code, digest(out), digest(err)) == (0, out_sha, digest(""))


@pytest.mark.parametrize("command, code, err_sha", ERRORS, ids=[e[0] for e in ERRORS])
def test_error_bytes(command, code, err_sha):
    got, out, err = run(command.split())
    assert (got, out, digest(err)) == (code, "", err_sha)
