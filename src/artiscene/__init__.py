"""Scene-level articulation modeling and interaction planning in simulation."""
