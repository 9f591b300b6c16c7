"""The objects that the package's JSON documents encode, built from public calls
only (``sorted_terms``, ``exponents`` and ``Variable.name``).  The tests compare
``json.dumps(obj, indent=2)`` of these with the text that ``format_json`` and
the commands write, and ``json.loads`` of that text with these."""

from catwords.polyring import exponents


def polynomial_obj(p):
    """The terms in sorted_terms order: the coefficient as a decimal string and
    the monomial as its variables' names and exponents in slot order."""
    return [
        {"coeff": str(coeff), "monomial": {var.name: e for var, e in exponents(key).items()}}
        for key, coeff in p.sorted_terms()
    ]


def series_obj(series):
    return {"order": series.order, "coeffs": [polynomial_obj(c) for c in series.coefficients]}


def letter_gf_obj(form):
    return {
        "letter": form.letter,
        "numerator": polynomial_obj(form.numerator),
        "denominator": polynomial_obj(form.denominator),
    }
