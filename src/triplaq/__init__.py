"""Exact dynamics and entanglement-transfer analysis for a four-site
spin-1/2 plaquette with directed-ring and diagonal couplings."""
