"""Synthetic relocalization-tracking benchmark: scenes, datasets, metrics."""
