"""Contrastive training and n-gram evaluation workbench for dialogue
inference generation."""

__version__ = "0.1.0"
