"""Multimodal fusion network with gated cross-modal attention, a shared
cross-modal embedding objective, and a self-contained reverse-mode autodiff
core."""
