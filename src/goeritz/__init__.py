"""Computational model of the genus-2 Goeritz group.

Modules:
    words        free group F_2, linear primitivity test
    stabilizers  the three stabilizer groups with exact normal forms
    amalgam      amalgamated-product normal forms, word problem
    tree         finite balls of the coset tree, group action, quotient
    simplicial   small simplicial complexes (dimension at most 2)
    contract     certified loop contraction driven by remoteness/blocking
    farey        Farey complex fixture wired to the contraction engine
    cli          command-line interface
"""

__version__ = "0.1.0"
