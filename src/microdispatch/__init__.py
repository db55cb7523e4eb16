"""Microgrid dispatch toolkit: day-ahead commitments plus real-time control.

The two-stage protocol: a scenario-based day-ahead program fixes the grid
exchange and reserve schedule each midnight; five interchangeable real-time
controllers (rule-based, three MPC modes, DQN) then dispatch the generator
and battery hour by hour against the actual weather, all realized through
one plant simulator so operating costs compare apples to apples.
"""

__version__ = "0.1.0"
