"""Training benchmark for dimattn: see README.md in this directory."""
