"""Good: an array protocol the equivalence test mentions."""


def register_array_protocol(name):
    def deco(cls):
        return cls
    return deco


@register_array_protocol("toy")
class ToyArrayProtocol:
    pass
