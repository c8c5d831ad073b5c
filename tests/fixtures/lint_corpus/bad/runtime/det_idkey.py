"""Bad: object ids used as mapping keys."""


def index_devices(devices):
    table = {}
    for device in devices:
        table[id(device)] = device
    return table


def literal_table(a, b):
    return {id(a): a, id(b): b}


def cached_sweep(cache, system, workload):
    key = (id(system), workload)
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = sorted(workload)
    return hit


def capped(memo, system, cap_mhz):
    return memo.setdefault((id(system), cap_mhz), system)
