"""The plain text of a polynomial, written term by term from public calls only
(``sorted_terms`` and ``monomial_str``).  The tests compare ``format_plain``, in
both term orders, with this."""

from catwords.polyring import monomial_str


def polynomial_plain(p, ascending=False):
    """Like ``1-zVC-2z+z^2VC``: the terms in sorted_terms order, or reversed when
    ascending; a coefficient of 1 or -1 is written as its sign alone, but on the
    unit, and the zero polynomial as ``0``."""
    items = p.sorted_terms()
    if not items:
        return "0"
    if ascending:
        items.reverse()
    parts = []
    for key, coeff in items:
        magnitude = abs(coeff)
        if not key:
            body = str(magnitude)
        elif magnitude == 1:
            body = monomial_str(key)
        else:
            body = f"{magnitude}{monomial_str(key)}"
        parts.append(f"+{body}" if coeff > 0 else f"-{body}")
    return "".join(parts).removeprefix("+")
