"""Pinned report and --json bytes for ten analyses, and --dump-semantics
bytes for four programs.

The programs are named by paths relative to the repository root because
the report's first line echoes the path.  Together these runs exercise
the length bound and the signature quotient of the widening, the path
lengths of create rules (create_chain-any_k2 on a cyclic reach of
every size, where one determinization of all instances of a two-word
rule blows up), the deadlock candidate search (in
create_chain-any_k2-deadlock most candidates look movable and cannot be
split into atoms, so rule instances alone decide them), and (dining
philosophers) rule application with many match instances per rule, and
(local_loop) a nondeterministic local loop with a division alarm, which
only the local-step transducer, joins and widening handle.

The dumps cover send/receive rules with partner conditions (dining
philosophers), reduce rules with a root-id constraint (sum_reduce), the create rule
with its fresh_id and @0.x updates (create_chain) and a broadcast rule
with its root-id guard and copying star rewriters (BROADCAST_PROGRAM)."""
import hashlib
from pathlib import Path

import pytest

from latreach.cli import main

ROOT = Path(__file__).resolve().parents[1]
P = "demos/programs/"

CASES = [
    pytest.param(
        (P + "deadlock_random.prog", "--procs", "2", "--deadlock"), 2,
        "69da3d5edaf043295896d48c9ff25e23fcd6e875153f47f4ef2a7f0129f782a9",
        "81afd1d538babb9e61f37329967d7581b6a87f6f7c6c616764369b1f22cb95f3",
        id="deadlock_random-interval"),
    pytest.param(
        (P + "deadlock_random.prog", "--procs", "2", "--deadlock", "--domain", "affine"), 2,
        "dfe662e1b3a200c28e513e8b6191aa245f86634ec2c18dc388f142d4917d07dd",
        "65355954141e197c19b6a49457f371671ad3b53a0dd23367a0d560c7e63caeb5",
        id="deadlock_random-affine"),
    pytest.param(
        (P + "create_chain.prog", "--procs", "unbounded", "--domain", "affine",
         "--property", P + "chain_end_value.bad"), 0,
        "2bf4f4cbc2116f1329e19d56bc00bf436eebdd07456fc5f21f3ad33acb4965d7",
        "fa3386f27e9c5f7e5655feff12ab468075c709d5772602b0f841350f8ed99198",
        id="create_chain-property"),
    pytest.param(
        (P + "create_chain.prog", "--procs", "unbounded", "--domain", "affine",
         "--shape-k", "3", "--deadlock"), 0,
        "9ebada23efe3127eb188b5eec30048643a22b51146251e58c2a7dad3cab30cba",
        "fa3386f27e9c5f7e5655feff12ab468075c709d5772602b0f841350f8ed99198",
        id="create_chain-shape_k3"),
    pytest.param(
        (P + "create_chain.prog", "--procs", "any", "--shape-k", "2"), 0,
        "7a6554030b4279045f55ac2f71287a1154b17294e73a9eb57f88542492708d3a",
        "bd5c386dcb172d4b5768ba9d986258b2ac15753f982927d5a9f7d32327b061f5",
        id="create_chain-any_k2"),
    pytest.param(
        (P + "create_chain.prog", "--procs", "any", "--shape-k", "2", "--deadlock"), 2,
        "53f460e71a5ef557fd7b1ee6d344927d8267087c43fe563c33434b5d1b780dc5",
        "bd5c386dcb172d4b5768ba9d986258b2ac15753f982927d5a9f7d32327b061f5",
        id="create_chain-any_k2-deadlock"),
    pytest.param(
        (P + "sum_reduce.prog", "--procs", "4", "--domain", "affine", "--deadlock"), 0,
        "3f16598d14d7242ab3c00f15d8fd66ae92d7f19e7f822b34ec1e6287ce8b1d2a",
        "0d135bfb72ad55419ada79a569682c5b5d333c840454af24b6cec1704a948182",
        id="sum_reduce-affine"),
    pytest.param(
        (P + "dining_philosophers.prog", "--procs", "4", "--deadlock"), 2,
        "22916629470b4537609d6bcb2f04bf83f736728e9d3ce9a579a6aa242b6225c7",
        "3e08fa7339d42de4d8cb45b24ad33b5ce943cb52049172265a203e3d8a868527",
        id="dining_philosophers-interval"),
    pytest.param(
        (P + "local_loop.prog", "--procs", "2"), 0,
        "2d927e31b4206c06ad6c827c2ef39cfc5d65c459e0a0ee2f67b4e09e3b690bb4",
        "fcea1fd5bbe046bdd9701468cfa05db6f9a12e9c9e85e456c5f3665a064d5cae",
        id="local_loop-interval"),
    pytest.param(
        (P + "local_loop.prog", "--procs", "2", "--domain", "affine"), 0,
        "aa362b0bdf2bde4f4fef171a69a22561c4fe58cfea59958dfe6ad3149e4eefa3",
        "d7d9959641ed07d8e5080d082a93ec220656cb08e2091b6c731e53f6933672b3",
        id="local_loop-affine"),
]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("args,code,report,reach", CASES)
def test_golden_outputs(args, code, report, reach, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    js = tmp_path / "reach.json"
    assert main(["analyze", *args, "--json", str(js)]) == code
    assert sha(capsys.readouterr().out.encode()) == report
    assert sha(js.read_bytes()) == reach


DUMPS = [
    pytest.param(
        (P + "dining_philosophers.prog", "--procs", "4"),
        "f91bacf7a4a4eab990858a5dbc490ee61f10f670682cb1fbc83c3b708da9035f",
        id="dining_philosophers"),
    pytest.param(
        (P + "sum_reduce.prog", "--procs", "4", "--domain", "affine"),
        "3f3a28807a1312fe1c1b31d92b460fe369467e622356703bc23f638d9cbb2d96",
        id="sum_reduce-affine"),
    pytest.param(
        (P + "create_chain.prog", "--procs", "unbounded", "--domain", "affine"),
        "49f4b08c91638b45221378944ddac0e71e3e90ab079b0a1b7680028b0bcda454",
        id="create_chain-unbounded"),
]


@pytest.mark.parametrize("args,dump", DUMPS)
def test_golden_semantics_dump(args, dump, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    path = tmp_path / "sem.json"
    assert main(["analyze", *args, "--dump-semantics", str(path)]) == 0
    assert sha(path.read_bytes()) == dump


BROADCAST_PROGRAM = """\
x := id + 1;
if (x > 2) { broadcast(nprocs - 1, x); }
y := x;
"""


def test_golden_semantics_dump_broadcast(tmp_path):
    prog = tmp_path / "broadcast.prog"
    prog.write_text(BROADCAST_PROGRAM, encoding="utf-8")
    path = tmp_path / "sem.json"
    assert main(["analyze", str(prog), "--procs", "3", "--dump-semantics", str(path)]) == 0
    assert sha(path.read_bytes()) == \
        "8bde8fe4f5ffdf8cebea58387ef867c1848febcce87c79bc2cbfc7d297628db1"
