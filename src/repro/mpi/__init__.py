"""Simulated MPI substrate: master-worker dispenser and worker processes."""

from .master_worker import WorkDispenser
from .process import bsp_worker, mpi_worker

__all__ = ["WorkDispenser", "mpi_worker", "bsp_worker"]
