"""Energy-aware user association via a graph attention model.

Simulates downlink cellular scenarios, builds interference graphs, and
trains an attention-based association policy against an unsupervised
network power objective, with signal-strength, genie-aided SINR, and
exact minimum-power baselines for comparison.
"""

__version__ = "0.1.0"
