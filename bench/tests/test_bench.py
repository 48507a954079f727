"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

from __future__ import annotations

import json
import os

import pytest

import run
import verify
import workloads


def _outcome(cmd, workdir, traced=False):
    return run.run_command(cmd, run._env(), traced, workdir)


def _stdout(cmd, workdir):
    o = _outcome(cmd, workdir)
    with open(os.path.join(workdir, "stdout"), encoding="utf-8") as fh:
        return o, fh.read()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_one_command_per_workload(name, workdir):
    wl = workloads.WORKLOADS[name](1, workdir)
    cmd = wl.commands[0]
    plain, plain_out = _stdout(cmd, workdir)
    assert plain.ok, plain.reason
    traced = _outcome(cmd, workdir, traced=True)
    assert traced.ok, traced.reason
    with open(os.path.join(workdir, "stdout"), encoding="utf-8") as fh:
        assert fh.read() == plain_out, "tracing changed stdout"
    assert traced.trace["completed"]
    assert traced.trace["spans"]["cli.main"][0] == 1


@pytest.mark.parametrize("name", ["embed-s4", "groups-recognize"])
def test_same_seed_same_inputs(name, workdir):
    def generate(seed, sub):
        wl = workloads.WORKLOADS[name](seed, str(os.path.join(workdir, sub)))
        with open(wl.workspace, "rb") as fh:
            data = fh.read()
        args = [[a.replace(str(os.path.join(workdir, sub)), "WS") for a in c.args] for c in wl.commands]
        return data, args

    assert generate(7, "a") == generate(7, "b")
    assert generate(7, "a")[0] != generate(8, "c")[0]


def test_golden_digests_reproduce(workdir):
    wl = workloads.corpus_cli(0, workdir)
    assert len(wl.commands) == 49
    bad = [o.key for o in (_outcome(c, workdir) for c in wl.commands) if not o.ok]
    assert bad == []


def test_embedding_verifier_rejects_corruption(workdir):
    cmd = workloads.Command(["ono", "v4_character"], verify.ono(workloads.V4_CHARACTER))
    o, out = _stdout(cmd, workdir)
    assert o.ok, o.reason
    doc = json.loads(out)
    entries = doc["ono"]["embedding"]["matrix"]["entries"]
    entries[0][0] = str(int(entries[0][0]) + 1)
    assert cmd.verify(0, json.dumps(doc)) is not None
    doc = json.loads(out)
    doc["ono"]["index"] = str(int(doc["ono"]["index"]) * 2)
    assert cmd.verify(0, json.dumps(doc)) is not None
    doc = json.loads(out)
    doc["ono"]["r"] += 1
    assert cmd.verify(0, json.dumps(doc)) is not None


def test_basis_verifier_rejects_corruption(workdir):
    wl = workloads.groups_recognize(3, workdir)
    cmd = next(c for c in wl.commands if c.args[-4] == "d4_r4" and c.args[-1] == "2")
    o, out = _stdout(cmd, workdir)
    assert o.ok, o.reason
    doc = json.loads(out)
    cert = doc["permutation_certificate"]
    assert cert["status"] == "YES"
    cert["basis"][0][0] = str(int(cert["basis"][0][0]) + 1)
    assert cmd.verify(0, json.dumps(doc)) is not None
    doc = json.loads(out)
    doc["permutation_certificate"]["basis"][1] = doc["permutation_certificate"]["basis"][0]
    assert cmd.verify(0, json.dumps(doc)) is not None
    doc = json.loads(out)
    doc["permutation_certificate"].update(status="NO", basis=None)
    assert cmd.verify(0, json.dumps(doc)) is not None
