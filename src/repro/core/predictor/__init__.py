"""Hybrid event prediction: statistical inference + program (DOM) analysis."""
