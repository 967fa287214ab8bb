"""Pinned stdout of small CLI commands.

The toolkit's rule is that stdout bytes and exit codes do not change unless
a change says so and justifies it.  Each case below pins the SHA-256 of the
full stdout of one command together with its exit code, so any refactor that
alters a single output byte fails here.  To update a digest on purpose, run
the command and hash its stdout, e.g.

    bootperc construct --d 3 --n 4 --construction hyperplanes | sha256sum
"""

import hashlib

import json

import pytest

from bootperc.cli import main
from bootperc.experiments import verify_separation

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
    # three rows, so "fit" is null and no polyfit float text is pinned
    "sweep-hyperplanes-json": (
        "sweep --d 3 --construction hyperplanes --n-range 3:5 --format json",
        0, "9693853815a8a692b65fc2a49f50d038b39f8eeab8a9830af1ca1b51247aef5d",
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
    "search-min-time-json": (
        "search-min-time --d 2 --n 4 --size 4",
        0, "5c7bd532a32fff630d7da8cdf1caea788fd0938e0e41cbe26dede8e49d21254d",
    ),
    "search-min-time-text": (
        "search-min-time --d 2 --n 4 --size 4 --format text",
        0, "2f003c9b3dcfde96c1cb78c01ea39d3ed5c7c69d7f03c15f0f9faf068561a3ab",
    ),
    "simulate-text": (
        "simulate --d 3 --n 4 --construction hyperplanes --format text",
        0, "e017300b59c826fdb70872cf818c67f0c3b3cb5a0c5e31dd009c93ee3d093d03",
    ),
    "simulate-trace-audit": (
        "simulate --d 3 --n 3 --construction hyperplanes --trace --audit",
        0, "0a26661c39066c1a4dceee54a3ad9813dd7f728ac7cd2dea42f78161c48c1f85",
    ),
    # depth 8, BFS height 6: a walk that found shortest paths would differ
    "witness-json": (
        "witness --d 3 --n 6 --s 2 --cell 1,3,4",
        0, "66bef8c2d83ccff698aca5b2f863a445f5bb2d5f30dd9c6944a44f5a615a9fd6",
    ),
    "witness-dot": (
        "witness --d 3 --n 5 --s 2 --cell 4,2,2 --format dot",
        0, "846c48737b9bb2865028d647909b2aced199173552b514f4c51f81b9b6eaa586",
    ),
    # the benchmark's witness job: 7,501 nodes, depth 33
    "witness-json-d4n20": (
        "witness --d 4 --n 20 --s 3 --cell 15,15,10,9",
        0, "b77e24d0581b5b227a0e45681148a841c084cea6bc07bb28c84c314788e6be9e",
    ),
    "witness-text": (
        "witness --d 4 --n 8 --s 2 --cell 5,3,3,2 --format text",
        0, "11051cfa86baa9664f1a4b2b49898c5ca39be1f561beaec876416c25463b11c2",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_bytes_are_pinned(capsys, name):
    argv, code, digest = GOLDEN[name]
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_separation_report_json_is_pinned():
    # `verify` prints only text, so the report's document is pinned here
    text = json.dumps(verify_separation(3, 5).to_json_dict(), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4708e5fb1b20204c1d9110488bd38c32932b19a39da7e278cb1b6f86214a358d"
    )


# `simulate --format json` output of the record writer, pinned before it
# replaced json.dumps(..., indent=2); "{empty}" stands for a file with no
# cells and "{messy}" for MESSY_INITIAL
RECORD_GOLDEN = {
    "simulate-hyperplanes-d4n6-trace-audit": (
        "simulate --d 4 --n 6 --construction hyperplanes --trace --audit",
        0, "52da7d629cabd8b48d17e686428d5f1d5f72b9075d28043261a5887ad189e4ef",
    ),
    "simulate-torus3-n5-audit": (
        "simulate --d 3 --n 5 --construction torus3 --topology torus --audit",
        0, "5bb5c61d8521883c18c33a321ed95454863c2e75cf94ac6bf5959d569e9662bd",
    ),
    "simulate-empty-initial-trace-audit": (
        "simulate --d 3 --n 4 --initial {empty} --trace --audit",
        0, "38ac47faa740bb4ef8037aa54296fc50bda36498dd4b3605528e4eec01c70278",
    ),
    # pinned before --initial was parsed as one table
    "simulate-messy-initial-trace-audit": (
        "simulate --d 3 --n 4 --initial {messy} --trace --audit",
        0, "bae465caad50d5c88857d5a0623714d45f351e4554883fd420049ab28c47a29e",
    ),
}

# blank and whitespace-only lines, CRLF endings, tabs, a leading "+", a
# duplicate cell and no final newline
MESSY_INITIAL = b"1 1 1\r\n\r\n  2\t3 4 \r\n\t\n1 1 1\n4 4 4\r\n+3 2 1\n \n2 2\t2"


# `simulate --snapshot` lines, pinned before they were filled from a table
# instead of one json.dumps per step
SNAPSHOT_GOLDEN = {
    "snapshot-hyperplanes-d4n3-every-1": (
        "simulate --d 4 --n 3 --construction hyperplanes --snapshot every=1",
        0, "202e7ca0e4d48283907568ca1685d1222d0011de791f185da05383192d9b428f",
    ),
    "snapshot-torus3-n5-every-3": (
        "simulate --d 3 --n 5 --construction torus3 --topology torus --snapshot every=3",
        0, "ffad8d93acf6a89dc92e0e439f7aeadc8237199015f99a98288ab6c3f02d911c",
    ),
    # step 0 lists "cells": []
    "snapshot-empty-initial": (
        "simulate --d 3 --n 4 --initial {empty} --snapshot every=1",
        0, "14167e55fa67cabc65e2e6de9e14f83e2b33cfbf57c506b536093e62c58869ed",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORD_GOLDEN))
def test_record_writer_bytes_are_pinned(capsys, tmp_path, name):
    _check_pinned(capsys, tmp_path, *RECORD_GOLDEN[name])


@pytest.mark.parametrize("name", sorted(SNAPSHOT_GOLDEN))
def test_snapshot_lines_are_pinned(capsys, tmp_path, name):
    _check_pinned(capsys, tmp_path, *SNAPSHOT_GOLDEN[name])


def _check_pinned(capsys, tmp_path, argv, code, digest):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    messy = tmp_path / "messy.txt"
    messy.write_bytes(MESSY_INITIAL)
    assert main(argv.format(empty=empty, messy=messy).split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
