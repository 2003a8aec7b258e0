"""Application substrate: OLDI server models and open-loop clients."""

from repro.apps.apache import ApacheApp, ApacheProfile
from repro.apps.base import ServerApp
from repro.apps.client import (
    OpenLoopClient,
    http_request_factory,
    memcached_request_factory,
    request_factory,
)
from repro.apps.memcached import MemcachedApp, MemcachedProfile
from repro.apps.workload import (
    APACHE_SLA_NS,
    LOAD_LEVELS,
    MEMCACHED_SLA_NS,
    LoadLevel,
    burst_period_ns,
    load_level,
    sla_for,
)

__all__ = [
    "ApacheApp",
    "ApacheProfile",
    "ServerApp",
    "OpenLoopClient",
    "http_request_factory",
    "memcached_request_factory",
    "request_factory",
    "MemcachedApp",
    "MemcachedProfile",
    "APACHE_SLA_NS",
    "LOAD_LEVELS",
    "MEMCACHED_SLA_NS",
    "LoadLevel",
    "burst_period_ns",
    "load_level",
    "sla_for",
]
