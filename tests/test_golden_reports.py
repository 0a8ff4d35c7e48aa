"""Byte-exact CLI reports for a fixed set of fast commands.

Each entry is a command line, its exit code and the sha256 of its stdout.
The digests were recorded before the cache and factorization refactor; a
change that alters any report byte fails here.  The five verify-duality
digests were recorded again when homology moved to its Smith basis: the
duality inverse is now a matrix on the minimal generators, so only the
certificate column of those reports changed.  The random-flat Z/3
verify-duality digest was recorded again when each pair complex came to
present its degrees as a ladder: H^0 and H_2, the two ends of the
degree-0 row, read their kernels off the relations of degree 1, not off
their own (co)boundary, so their Smith bases and that row's certificate
changed (667f8c2ec3d0 to 4afceb299f90), and nothing else in the report.  Every subcommand except
corpus-all appears, over Z, Z/3, Q, Z/10007 and Z/1000003, with constant,
orientation and random-flat systems.  The Z/2 lemma2 digest was added when
the cover checks came to read one orientation cover per complex, the cover
of its integer orientation character, whatever the ring: until then the
report was an exit-2 error, the cover of the constant Z/2 orientation
system being two copies of the base.
"""

import hashlib

import pytest

from oracles import has_fail_row
from twistcap.cli import main

GOLDEN = (
    ("validate --complex rp3", 0,
     "4e421f11dad2e608810c09b216cd9fdf7789d602036b45a793c765eae155702d"),
    ("validate --complex klein4 --format plain", 0,
     "d0a0b312288b4e8ec10423797f8a2a6aed4d4b4e9f0e1d8fcdbba59e85c8fe7e"),
    ("orientation --complex klein --ring Z", 0,
     "7e017ccf162c5901a4034a3f02e5c8f919542447f7eea2a8467bcccf2a5a1c0d"),
    ("orientation --complex torus --ring Z/3", 0,
     "d93a988f5622e1cefc5500f12280eb7ee117f70978c4d28f851992acf5470561"),
    ("fundamental-class --complex rp2 --ring Z/3", 0,
     "a7433735a1e26ea2583e46d17bad6bc46f2d7725f0486afa53c74fe3108fcad2"),
    ("fundamental-class --complex sphere3 --ring Q", 0,
     "d8b03fdea878fee476395a916c051d7dee7c726a475bd72f91e0581d6a304799"),
    ("lemma1 --complex rp2 --ring Z", 0,
     "7f516066a21b69f44b07f003c0435e4c438d42c0730fa5fda942503cadf83604"),
    ("lemma2 --complex klein --ring Z/3", 0,
     "36f0c9c1db6c089c2af2afbb5bff22608f6b6bd890f0ec4cd66dcd681a2640d8"),
    ("lemma2 --complex klein --ring Z/2", 0,
     "79afd5b8b796fff64f0340273586e0ced26c45a11c4cb96e2e5076389dbcb916"),
    ("phi-check --complex rp2 --ring Z", 0,
     "12104c18b3baf4e77379c74cb70f31548eee499920119b4b219b83fb3e53b070"),
    ("cap-identity --complex torus --system random-flat --ring Q "
     "--trials 10 --seed 4", 0,
     "e11a460a55a35ac073391c0423e0bf471c0509829f04cf5a48274011e2f989b7"),
    ("cap-identity --complex klein --system orientation --ring Z/10007 "
     "--trials 5 --seed 1", 0,
     "3fab735ca3733379b43fccbe76e13c63636548bd44c85fa81c4daaf386171fff"),
    ("verify-duality --complex rp2 --system constant --ring Z", 0,
     "1d47ba3ca20ae14c3350036e391a4843fc6c36a6c6dde74e2bac831d7d5e629d"),
    ("verify-duality --complex klein --system random-flat:3:2 --ring Z/3 "
     "--seed 3", 0,
     "ed782f7ca933e1f156c3cd14558a03b37863540cb3c63b4c83e39e2e6495e0d1"),
    ("verify-duality --complex torus --system orientation --ring Q "
     "--format plain", 0,
     "aeb829e34c9aee83ed80870e29a48f552e68fbfafe4fa1b4437291dd52756607"),
    ("verify-duality --complex rp2 --system orientation --ring Z/1000003", 0,
     "8898d611e073d653a726a948da8df9e9fa94c992069d911201089e46ce6f693b"),
    ("verify-duality --complex circle --system constant:2 --ring Z/10007", 0,
     "4cec68b1d6cf566037cd3949fd9f3e94d5b489b99b17f1fbaf473037370fd697"),
    ("check-mv --complex octahedron --cover hemispheres --ring Z", 0,
     "9a92e4d64bf8e157d2dfb35f95e0f71958fa1de4896a1f7e17a4205cc3031757"),
    ("check-mv --complex klein --cover cylinders --system orientation "
     "--ring Z/3", 0,
     "1b31fd579efe58d9f4d11616350cffa032ffb56a5e2ede1b44255bd18bcf482a"),
    ("diagram6 --config sphere --ring Z", 0,
     "568856417d70378fc268bb4b020cbd44a1d8ad302ce328dd371bdefb91c43e85"),
    ("diagram6 --config klein --system orientation --ring Z/3 --seed 5", 0,
     "f41f899a4ccc392e74ae50b9a128ce007b0d5fc160992e94521590873e9a8da7"),
)


@pytest.mark.parametrize("command, code, digest", GOLDEN,
                         ids=[c for c, _, _ in GOLDEN])
def test_report_is_byte_identical(capsys, command, code, digest):
    assert main(command.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command, code, digest", GOLDEN,
                         ids=[c for c, _, _ in GOLDEN])
def test_exit_code_is_1_exactly_when_a_row_fails(capsys, command, code,
                                                 digest):
    sep = "  " if "--format plain" in command else "\t"
    assert main(command.split()) == code
    assert (code == 1) == has_fail_row(capsys.readouterr().out, sep)
