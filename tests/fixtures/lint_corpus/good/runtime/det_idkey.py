"""Good: mappings keyed by stable content, not object identity."""


def index_devices(devices):
    table = {}
    for device in devices:
        table[device.name] = device
    return table


def describe(obj):
    key = (id(obj), "debug")
    return key


def cached_sweep(cache, system, workload):
    # Same local name as in describe(), bound to content: names are per function.
    key = (system.name, workload)
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = sorted(workload)
    return hit
