"""Workload construction: custom mixes from explicit application codes,
so studies can extend beyond the published 36 Table 3 mixes.
"""

from __future__ import annotations

from repro.workloads.mixes import Mix
from repro.workloads.spec2000 import app_by_code

__all__ = ["custom_mix"]


def custom_mix(codes: str, name: str | None = None):
    """Build a mix from explicit application codes.

    Lowercase codes are the closed-loop Table 2 batch applications;
    any UPPERCASE code marks an open-loop cloud service
    (:mod:`repro.workloads.cloud`) and the result is a
    :class:`~repro.workloads.cloud.CloudMix` co-run instead.

    >>> custom_mix("kc").apps()[0].name
    'mcf'
    >>> custom_mix("Kb").group
    'CLOUD'
    """
    from repro.workloads.cloud import CloudMix, is_cloud_codes

    n = len(codes)
    if is_cloud_codes(codes):
        cloud = CloudMix(name=name or f"{n}CUSTOM-{codes}", codes=codes)
        cloud.validate()  # validates every service and batch code
        return cloud
    for c in codes:
        app_by_code(c)  # validate early
    mix = Mix(name=name or f"{n}CUSTOM-{codes}", codes=codes)
    mix.validate()
    return mix
