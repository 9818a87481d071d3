"""A discrete-event model of the Cell Broadband Engine.

Substitutes for the (now unobtainable) Cell blade hardware the paper ran
on: a dual-thread SMT PPE with an OS run queue, eight SPEs with 256 KB
local stores and code-image management, MFC DMA engines implementing the
documented transfer rules, and the Element Interconnect Bus.
"""

from .eib import EIB
from .local_store import CodeImage, LocalStore, LocalStoreOverflow
from .machine import CellMachine, SPEPool
from .mfc import MFC, legal_transfer_size
from .params import BladeParams, CellParams, DEFAULT_BLADE, DEFAULT_CELL
from .smt import CoreThread, SMTCore
from .spe import SPE

__all__ = [
    "CellParams",
    "BladeParams",
    "DEFAULT_CELL",
    "DEFAULT_BLADE",
    "CellMachine",
    "SPEPool",
    "SPE",
    "SMTCore",
    "CoreThread",
    "MFC",
    "legal_transfer_size",
    "EIB",
    "LocalStore",
    "CodeImage",
    "LocalStoreOverflow",
]
