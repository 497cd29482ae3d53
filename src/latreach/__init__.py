"""latreach: reachability analysis of message-passing programs.

Program states are words of abstract local states, represented by lattice
automata; the program semantics is a letter-to-letter lattice transducer
for local steps plus symbolic rewriting rules for communications, process
creation and reduction.  The fixpoint engine over-approximates the
reachable set and checks regular safety properties and potential
deadlocks.
"""

__version__ = "0.1.0"
