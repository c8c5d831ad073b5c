"""User interaction traces: data model, workloads, generation, serialisation.

The paper records 100+ real user interaction traces with Mosaic and replays
them under each scheduler.  Offline we cannot record real users, so
:mod:`repro.traces.generator` synthesises sessions from per-application
behaviour models that preserve the published statistics (≈110 s sessions,
≈25 events, up to 70, think time between interactions) and the temporal
correlation that makes event sequences predictable.
"""
