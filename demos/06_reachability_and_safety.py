"""Walkthrough: the full analysis pipeline on the creation chain.

One root process spawns an unbounded chain; the reach set is computed as
a post-fixpoint with widening.  Under the affine domain the analysis
proves x = 5 + 4*id at the exit; intervals cannot relate x to id, so the
same property raises a (false) alarm there.
"""
from pathlib import Path

from latreach.cli import parse_property
from latreach.engine import AnalysisConfig, check_safety, fixpoint
from latreach.frontend import compile_program
from latreach.syntax import parse

HERE = Path(__file__).resolve().parent
text = (HERE / "programs" / "create_chain.prog").read_text()
bad = parse_property((HERE / "programs" / "chain_end_value.bad").read_text())
print(text)

for domain in ("affine", "interval"):
    sem = compile_program(parse(text), domain, "unbounded")
    res = fixpoint(sem, AnalysisConfig())
    nodes, trans = res.reach.size()
    print(f"== {domain} domain: {res.iterations} iterations, "
          f"{nodes} nodes / {trans} transitions")
    for (s, l, t) in res.reach.sorted_transitions():
        print(f"   {s} --{l}--> {t}")
    verdict = check_safety(sem, res, bad)
    print("   property x = 5 + 4*id at the exit:",
          "SAFE" if verdict.safe else f"ALARM\n   witness: {verdict.witness}")
    print()
