"""Model checker for reactive systems written as tail-recursive stream programs.

Programs map an external event list to a stream of observable states;
temporal properties over those states are verified with three-valued
verification rules, and every True/False answer comes with a witness or
counterexample trace that is validated against the satisfaction semantics.
"""

__version__ = "0.1.0"
