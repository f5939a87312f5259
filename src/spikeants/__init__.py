"""Spiking-neural-network ants foraging on a double-pheromone grid world."""

__version__ = "0.1.0"
