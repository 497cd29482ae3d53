"""latreach: reachability analysis of message-passing programs.

Program states are words of abstract local states, represented by lattice
automata; the program semantics is a letter-to-letter lattice transducer
for local steps plus symbolic rewriting rules for communications, process
creation and reduction.  The fixpoint engine over-approximates the
reachable set and checks regular safety properties and potential
deadlocks.
"""

__version__ = "0.1.0"

from .domain import (  # noqa: F401
    AbstractLocalState,
    AffineEnv,
    DomainContext,
    GuardElement,
    Interval,
    IntervalEnv,
)
from .automaton import (  # noqa: F401
    LatticeAutomaton,
    includes,
    intersection,
    is_empty,
    matches,
    normalize,
    union,
    widen_automata,
)
from .transducer import LatticeTransducer, TransducerRule, apply_transducer  # noqa: F401
from .rules import RewriteRule, apply_rule  # noqa: F401
from .syntax import parse  # noqa: F401
from .frontend import build_cfg, compile_program  # noqa: F401
from .concrete import post, reach_bounded  # noqa: F401
from .engine import (  # noqa: F401
    AnalysisConfig,
    AnalysisResult,
    check_deadlock,
    check_safety,
    fixpoint,
    step,
)
