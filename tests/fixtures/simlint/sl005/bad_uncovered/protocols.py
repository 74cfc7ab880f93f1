"""Bad: an array protocol no equivalence test mentions."""


def register_array_protocol(name):
    def deco(cls):
        return cls
    return deco


@register_array_protocol("ghost")
class GhostArrayProtocol:
    pass
