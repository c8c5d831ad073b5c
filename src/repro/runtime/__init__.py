"""Runtime simulation: event-driven replay of traces under each scheduler."""
