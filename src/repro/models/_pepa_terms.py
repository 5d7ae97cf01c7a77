"""Term helpers shared by the PEPA model builders."""

from repro.pepa import Activity, Choice, Constant, Prefix, Rate


def _p(action, rate, target):
    """``(action, rate).target``; ``rate`` is a number or a :class:`Rate`."""
    r = rate if isinstance(rate, Rate) else Rate(rate)
    return Prefix(Activity(action, r), Constant(target))


def _choice(*terms):
    """Left-nested choice ``((t1 + t2) + t3) + ...``."""
    comp = terms[0]
    for t in terms[1:]:
        comp = Choice(comp, t)
    return comp
