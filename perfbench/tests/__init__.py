"""Tests of the benchmark itself (not of the program it measures)."""
