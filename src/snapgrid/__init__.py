"""Analytics toolkit for geo-tagged short-video posts.

The pipeline runs: ingest raw snap records, adjudicate human annotations,
vote per-frame classifier scores into clip labels, then measure where
(metric tile grids + distribution fits), when (local-time profiles,
weekly clustering), and among whom (demographic regression) driving clips
occur. A seeded synthetic generator with planted ground truth exercises
every stage end to end.
"""
