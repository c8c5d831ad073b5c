"""PES control unit: pending frame buffer and commit/squash."""
