"""Message-level Galileo OSNMA authentication simulator.

Covers the authentication mechanism itself (key chain, tag and root-key
verification, time-synchronization rules, page formats), a simulated
victim receiver, and generators for replay, forgery and concatenating
replay attacks, all runnable at desk scale.
"""

__version__ = "0.1.0"
