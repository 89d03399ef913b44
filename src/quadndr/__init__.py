"""Neural dead reckoning for quadrotors flying periodic trajectories."""

__version__ = "0.1.0"
