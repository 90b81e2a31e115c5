"""Detour-fraud analytics for e-hailing trips.

Offline classification of finished trips, live per-step warnings, and
long-term fare-policy analysis, validated on seeded synthetic road networks
and simulated trips with planted driver behaviors.
"""
