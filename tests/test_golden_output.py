"""Pinned stdout of small CLI commands.

The toolkit's rule is that stdout bytes and exit codes do not change unless
a change says so and justifies it.  Each case below pins the SHA-256 of the
full stdout of one command together with its exit code, so any refactor that
alters a single output byte fails here.  To update a digest on purpose, run
the command and hash its stdout, e.g.

    bootperc construct --d 3 --n 4 --construction hyperplanes | sha256sum
"""

import hashlib

import pytest

from bootperc.cli import main

GOLDEN = {
    "construct-hyperplanes": (
        "construct --d 3 --n 4 --construction hyperplanes",
        0, "0bba469cf6375b29cd95d3d3a679c1dab66934d41a72d78da7e1e6fa7b527eb6",
    ),
    "construct-shifted-json": (
        "construct --d 3 --n 5 --construction shifted --format json",
        0, "3349f5c9cdee70e4e82ad890ccab7052f2526c617d4619896d075643363dc744",
    ),
    "construct-diagonal2d": (
        "construct --d 2 --n 5 --construction diagonal2d",
        0, "380c2f9950dd8a93561d49ec4eaf26db964750ffd5806d1a13bf7d0c8ea9d784",
    ),
    "construct-boundary": (
        "construct --d 3 --n 4 --construction boundary",
        0, "49a0e321771745795ac43b2adfaf6549de4b8cae99c944b385b10032b58c7476",
    ),
    "construct-torus3-json": (
        "construct --d 3 --n 4 --construction torus3 --format json",
        0, "103b3aa41c38de7398d19817d27fd154ac886a61605259cad19aeb12ae42d76e",
    ),
    "sweep-shifted": (
        "sweep --d 3 --construction shifted --n-range 2:9",
        0, "b25a47ef7bcf049bc9fa195443229dd588f5cbb9298ff5df8ab96d61ed1728de",
    ),
    "sweep-boundary": (
        "sweep --d 3 --construction boundary --n-range 1:7",
        0, "086bca96837b8541fc36e5d94bd1cdaee622d74b18074aaee9735390a5fd33da",
    ),
    "verify-strip-fill": (
        "verify --check strip-fill --d 3 --n 6 --s 2",
        0, "c92114d5ced0c4aa4c376780369e4108a4265b93f4d8287cd9f142a747b81103",
    ),
    "verify-separation": (
        "verify --check separation --d 3 --n 5",
        0, "bba3c34db5acbcbe5a9b604f30a2e6f5369a93a673d619515fe193fdc3bfad9c",
    ),
    "search-symmetry-grid": (
        "search-min-set --d 2 --n 4 --symmetry",
        0, "8851e7131efd50f23f4137d4e3c7670b399bb19586ba2b63ec6f2a8ec8a724e0",
    ),
    "search-symmetry-torus": (
        "search-min-set --d 2 --n 3 --topology torus --symmetry --format text",
        0, "3ec40f1aa737a4c7fb2c81cc8002943734d315d8d4ab84f06d022dee38d24311",
    ),
    "search-none-found": (
        "search-min-set --d 2 --n 3 --max-size 2 --format text",
        1, "079b7953181caf5e1fa00916dd486c2285c2e3ae69cab212d3dadb163d0c7bd5",
    ),
    "simulate-trace-audit": (
        "simulate --d 3 --n 3 --construction hyperplanes --trace --audit",
        0, "0a26661c39066c1a4dceee54a3ad9813dd7f728ac7cd2dea42f78161c48c1f85",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_bytes_are_pinned(capsys, name):
    argv, code, digest = GOLDEN[name]
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
