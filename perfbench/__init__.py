"""Served-path benchmark of the mmHand reproduction (see README.md)."""
