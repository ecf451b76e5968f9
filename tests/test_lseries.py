"""Completed-L engine: root numbers, smoothed values, twists, residue."""

import cmath
import math
import sys

import numpy as np
import pytest

from ellreg.characters import enumerate_characters, gauss_sum
import ellreg.lseries as lseries
from ellreg.elliptic import CURVE_11A, CURVE_17A, CurveModel, a_p
from ellreg.lseries import (
    ModularFormData,
    _ROOT_HEIGHTS,
    _term_count,
    _terms_for_rate,
    _twist_roots,
    _weights,
    l_value,
    lambda_value,
    newform_from_curve,
    newform_terms,
    residue_tensor_square,
    root_number,
    twisted_lambda_table,
)
from ellreg.special import TruncationError

from reference_routes import (
    character_product,
    character_value_table,
    conjugate_partner,
    dirichlet_series_direct,
    gauss_sums_mpmath,
    q_expansions,
    rankin_convolution_check,
    rankin_sigma,
    twist_by_character,
)

# Elliptic dilogarithm of the five-torsion point on the conductor-11
# curve, to 20 digits of test_reference's 30-digit mpmath route.  Used
# here as the independent anchor for the Lambda normalization: L(E,2)
# must equal (10/11) pi times this number.
D11A_AT_P = 0.19119373708433168526


@pytest.fixture(scope="module")
def form11():
    return newform_from_curve(CURVE_11A, 4000)


@pytest.fixture(scope="module")
def form11_big():
    return newform_from_curve(CURVE_11A, 30000)


@pytest.fixture(scope="module")
def chars11():
    return enumerate_characters(11)


def test_eval_form_periodicity(form11):
    z = 0.23 + 0.9j
    assert abs(complex(q_expansions(form11.coefficients, z + 1))
               - complex(q_expansions(form11.coefficients, z))) < 1e-14


def test_eval_form_leading_term(form11):
    y = 10.0
    lead = math.exp(-2.0 * math.pi * y)
    assert abs(complex(q_expansions(form11.coefficients, 1j * y)) / lead
               - 1.0) < 1e-12


def test_eval_form_truncation_stability(form11):
    short = ModularFormData(11, form11.coefficients[:2001])
    assert abs(complex(q_expansions(short.coefficients, 1j))
               - complex(q_expansions(form11.coefficients, 1j))) < 1e-14


def test_eval_form_domain_errors(form11):
    tiny = ModularFormData(11, form11.coefficients[:101])
    with pytest.raises(TruncationError):
        complex(q_expansions(tiny.coefficients, 1e-4j))


def test_root_number_is_minus_a_p(form11):
    w = root_number(form11)
    assert abs(w - (-1.0)) < 1e-10
    assert abs(w - (-a_p(CURVE_11A, 11))) < 1e-10
    form17 = newform_from_curve(CURVE_17A, 4000)
    assert abs(root_number(form17) - (-a_p(CURVE_17A, 17))) < 1e-8


def test_root_number_rejects_a_nan_stream(form11):
    # A nan coefficient makes both samples nan, which fail the
    # consistency check: root_number raises and returns no nan w.
    a = form11.coefficients.copy()
    a[2] = math.nan
    with pytest.raises(RuntimeError, match="root number inconsistent"):
        root_number(ModularFormData(11, a))


def test_twist_root_numbers_unit_modulus_and_pairing(form11, chars11):
    # w(f x chi) w(f x chibar) = 1: the Atkin-Lehner pseudo-eigenvalue
    # pairing for twists whose nebentypus is the square character.
    for chi in chars11:
        if chi.is_trivial:
            continue
        w = root_number(twist_by_character(form11, chi))
        wbar = root_number(twist_by_character(form11, chi.conjugate()))
        assert abs(abs(w) - 1.0) < 1e-9
        assert abs(w * wbar - 1.0) < 1e-9


def test_l2_matches_elliptic_dilog_route(form11):
    val = l_value(form11, 2.0)
    target = (10.0 / 11.0) * math.pi * D11A_AT_P
    assert abs(val.imag) < 1e-12
    assert abs(val.real - target) / target < 1e-10


def test_lambda_at_2_matches_direct_series(form11_big):
    # At s = 2 the plain partial sum over 30,000 terms is within 8e-7.
    direct = dirichlet_series_direct(form11_big, 2.0)
    engine = l_value(form11_big, 2.0)
    assert abs(engine - direct) / abs(direct) < 5e-6


def test_functional_equation_residual(form11, chars11):
    # At the centre s = 1 = 2 - s, where each partner's root number is
    # measured on its own.
    forms = [form11, twist_by_character(form11, chars11[3])]
    for g in forms:
        gbar = conjugate_partner(g)
        w = root_number(g)
        lam = lambda_value(g, 1.0)
        resid = lam + w * lambda_value(gbar, 1.0)
        assert abs(resid) < 1e-10 * max(1.0, abs(lam))


def test_twist_structure(form11, chars11):
    chi = next(c for c in chars11 if not c.is_trivial)
    tw = twist_by_character(form11, chi)
    assert tw.level == 121
    assert abs(tw.coefficients[1] - 1.0) < 1e-14
    assert all(tw.coefficients[11 * k] == 0 for k in range(1, 20))
    triv = next(c for c in chars11 if c.is_trivial)
    assert twist_by_character(form11, triv) is form11
    wrong = enumerate_characters(13)[1]
    with pytest.raises(ValueError):
        twist_by_character(form11, wrong)
    # A twist has level 121, so no character mod 11 matches it.
    with pytest.raises(ValueError, match="does not match level 121"):
        twist_by_character(tw, chi)


def test_twisted_values_conjugate_symmetry(form11, chars11):
    for chi in chars11[:4]:
        if chi.is_trivial:
            continue
        a = l_value(twist_by_character(form11, chi), 1.0)
        b = l_value(twist_by_character(form11, chi.conjugate()), 1.0)
        assert abs(b - a.conjugate()) < 1e-10


def test_completion_factor_at_one(form11, chars11):
    # Lambda and L at s = 1 differ exactly by p / 2 pi for the level-p^2
    # twists.
    chi = next(c for c in chars11 if not c.is_trivial)
    tw = twist_by_character(form11, chi)
    lam = lambda_value(tw, 1.0)
    ell = l_value(tw, 1.0)
    assert abs(lam - ell * 11.0 / (2.0 * math.pi)) < 1e-12 * max(1, abs(lam))


def test_lambda_truncation_cap(form11, chars11):
    chi = next(c for c in chars11 if not c.is_trivial)
    tw = twist_by_character(form11, chi)
    starved = ModularFormData(tw.level, tw.coefficients[:61])
    with pytest.raises(TruncationError):
        lambda_value(starved, 1.0)


def test_lambda_control_and_root_override(form11, monkeypatch):
    a = lambda_value(form11, 2.0)
    # The term counts are cached per level and length: clear them around
    # the looser tolerance, so that no other test reads its counts.
    with monkeypatch.context() as patch:
        patch.setattr(lseries, "ABS_TOL", 1e-10)
        _term_count.cache_clear()
        try:
            b = lambda_value(form11, 2.0)
        finally:
            _term_count.cache_clear()
    assert abs(a - b) < 1e-10


def test_coefficient_growth(form11):
    divisors = np.zeros(2001, dtype=int)
    for d in range(1, 2001):
        divisors[d::d] += 1
    n = np.arange(1, 2001)
    bound = 4.0 * divisors[1:] * np.sqrt(n)
    assert np.all(np.abs(form11.coefficients[1:2001]) <= bound)


def test_rankin_sigma_values(chars11):
    chi1, chi2 = chars11[2], chars11[7]
    sig = rankin_sigma(chi1, chi2, 500)
    assert sig[1] == 1.0
    for q in (2, 3, 5, 7, 13):
        expect = chi2(q) + q * chi1(q)
        assert abs(sig[q] - expect) < 1e-15 * (q + 1)
    # prime power closed form, geometric in chi2(q) and q chi1(q)
    for q, a in ((2, 4), (3, 3), (5, 2)):
        x, y = chi2(q), q * chi1(q)
        expect = (x ** (a + 1) - y ** (a + 1)) / (x - y)
        assert abs(sig[q ** a] - expect) < 1e-12 * q ** a
    # at the level the terms with 11 | d or 11 | n/d drop out
    assert abs(sig[11]) == 0.0


def test_rankin_convolution_sample_pairs(form11, chars11):
    nontrivial = [c for c in chars11 if not c.is_trivial]
    pairs = [(nontrivial[0], nontrivial[1]),
             (nontrivial[4], nontrivial[4]),
             (nontrivial[2], nontrivial[7])]
    for chi1, chi2 in pairs:
        assert rankin_convolution_check(form11, chi1, chi2, 2000) < 1e-10


def test_residue_real_positive_and_order_free(form11):
    table = twisted_lambda_table(form11)
    res = residue_tensor_square(form11, lambda_table=table)
    assert res > 0


def test_residue_against_central_value_form(form11, chars11):
    # Same residue written through uncompleted central values: the
    # completion factors (p/2pi)^2 and the ordered-pair symmetry fold
    # into p^2 i / ((p+1)(p-1)^2 pi) over even-nontrivial x odd pairs.
    p = 11
    evens = [c for c in chars11 if c.is_even and not c.is_trivial]
    odds = [c for c in chars11 if not c.is_even]
    acc = 0j
    for chi in evens:
        for chi2 in odds:
            acc += (l_value(twist_by_character(form11, chi), 1.0)
                    * l_value(twist_by_character(form11, chi2), 1.0)
                    / gauss_sum(character_product(chi, chi2)))
    res_l = (p * p * 1j / ((p + 1) * (p - 1) ** 2 * math.pi)) * acc
    assert abs(res_l.imag) < 1e-12
    res = residue_tensor_square(form11, twisted_lambda_table(form11))
    assert abs(res_l.real - res) / res < 1e-10


def test_residue_exponent_sum_matches_the_character_product_loop(form11):
    # The same ordered pairs in the same order, with chi chi2 formed as a
    # product instead of by adding exponents.
    table = twisted_lambda_table(form11)
    chars = enumerate_characters(11)
    total = 0.0 + 0.0j
    for j in range(1, 10):
        for k in range(1, 10):
            prod = character_product(chars[j], chars[k])
            if not prod.is_even:
                total += table[k] * table[j] / gauss_sum(prod)
    want = (total * 2j * math.pi / (12 * 10 ** 2)).real
    got = residue_tensor_square(form11, lambda_table=table)
    assert abs(got - want) <= 1e-14 * abs(want)


def test_residue_is_the_running_sum_over_the_pairs_at_37():
    # The loop over the ordered pairs, to rounding: a plain sum over the
    # masked pairs does not keep the loop's order.
    p = 37
    form = newform_from_curve(CurveModel(0, 0, 1, -1, 0, p), 4000)
    table = twisted_lambda_table(form)
    tau = [gauss_sum(chi) for chi in enumerate_characters(p)]
    total = 0.0 + 0.0j
    for j in range(1, p - 1):
        for k in range(1, p - 1):
            if (j + k) % 2:
                total += table[k] * table[j] / tau[(j + k) % (p - 1)]
    want = (total * 2j * math.pi / ((p + 1) * (p - 1) ** 2)).real
    got = residue_tensor_square(form, lambda_table=table)
    assert abs(got - want) <= 1e-14 * abs(want)


def _term_by_term_lambda(form, s, w):
    # The scalar loop the batched sums replace: two weights per term,
    # G_s(x) = x^{-s} Gamma(s, x), from mpmath's incomplete gamma.
    mpmath = pytest.importorskip("mpmath")

    def weight(s, x):
        return float(mpmath.gammainc(s, x) * mpmath.mpf(x) ** -s)
    c = 2.0 * math.pi / math.sqrt(form.level)
    total = 0.0 + 0.0j
    for n in range(1, _term_count(form.level, form.nmax) + 1):
        total += form.coefficients[n] * weight(s, c * n)
        total -= (w * form.coefficients[n].conjugate()
                  * weight(2.0 - s, c * n))
    return total


@pytest.mark.parametrize("s", [1.3, 1.0 + 0.7j, 0.4 - 2.0j, 0.0, 3.0])
def test_lambda_value_refuses_other_points(form11, s):
    # The identities read Lambda at s = 1 and 2 only; 0 is the order of
    # the dual half at s = 2, not a point Lambda takes.
    with pytest.raises(ValueError, match="s = 1 and 2 only"):
        lambda_value(form11, s)
    with pytest.raises(ValueError, match="s = 1 and 2 only"):
        l_value(form11, s)


@pytest.mark.parametrize("s", [1.0, 2.0])
def test_lambda_value_matches_the_term_by_term_loop(form11, chars11, s):
    tw = twist_by_character(form11, chars11[3])
    for form in (form11, tw):
        w = root_number(form)
        want = _term_by_term_lambda(form, s, w)
        got = lambda_value(form, s)
        assert isinstance(got, complex)
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), form.level


PRIME_CURVES = {11: CURVE_11A, 17: CURVE_17A,
                37: CurveModel(0, 0, 1, -1, 0, 37),
                101: CurveModel(0, 1, 1, -1, -1, 101)}


@pytest.fixture(scope="module", params=[11, 17, 37, 101])
def prime_form(request):
    return newform_from_curve(PRIME_CURVES[request.param], 4000)


def test_batched_twisted_table_matches_per_twist_values(prime_form):
    table = twisted_lambda_table(prime_form)
    chars = enumerate_characters(prime_form.level)
    assert table.shape == (len(chars),) and math.isnan(table[0].real)
    want = {k: lambda_value(twist_by_character(prime_form, chi), 1.0)
            for k, chi in enumerate(chars) if not chi.is_trivial}
    scale = max(abs(v) for v in want.values())
    for k, value in enumerate(table[1:], start=1):
        assert isinstance(value, complex)
        assert abs(value - want[k]) <= 1e-14 * scale, k


def _root_terms(level, nmax=sys.maxsize):
    # root_number's count at both of its heights and their duals.
    y = np.array(_ROOT_HEIGHTS) / math.sqrt(level)
    imag = np.concatenate([y, 1.0 / (level * y)])
    return max(_terms_for_rate(2 * math.pi * t, nmax) for t in imag)


TWIST_CURVES = {**PRIME_CURVES, 389: CurveModel(0, 1, 1, -2, 0, 389),
                997: CurveModel(0, -1, 1, -5, -3, 997)}


@pytest.mark.parametrize("p", sorted(TWIST_CURVES))
def test_stacked_twist_root_numbers_match_the_per_twist_route(p):
    # Atkin-Li: w(f (x) chi_k) = tau(chi_k)^2 / p for p exactly dividing
    # the level of f, whatever the sign of f.  The reference measures each
    # twist on its own stream of level p^2, at every root-number height.
    form = newform_from_curve(TWIST_CURVES[p], _root_terms(p * p))
    closed = _twist_roots(p)
    measured = np.array([root_number(twist_by_character(form, chi))
                         for chi in enumerate_characters(p)[1:]])
    assert np.abs(closed - measured).max() <= 1e-13


def test_twist_root_numbers_match_30_digit_gauss_sums_at_389():
    # tau_k^2 / p from 30-digit Gauss sums, each rounded once before the
    # square.  At the real character w is chi(-1) = 1 with no imaginary
    # part.
    closed = _twist_roots(389)
    exact = gauss_sums_mpmath(389, range(1, 388)) ** 2 / 389
    assert np.abs(closed - exact).max() <= 2e-15
    assert closed[193].imag == 0.0 and abs(closed[193] - 1.0) <= 1e-15


def _full_twist_table(form):
    # Every twist stream chi_k(n) a_n written out, all nmax + 1 columns,
    # its values from the character objects; each row's w is measured by
    # root_number on that row's stream.
    p, m = form.level, form.level ** 2
    streams = (character_value_table(p)[1:, np.arange(form.nmax + 1) % p]
               * form.coefficients)
    k = _term_count(m, form.nmax)
    g, a = _weights(1.0, m, k), streams[:, 1:k + 1]
    w = np.array([root_number(ModularFormData(m, row)) for row in streams])
    return a @ g - w * (a.conj() @ g)


def _assert_binned_table_matches_the_full_streams(form):
    table = twisted_lambda_table(form)[1:]
    want = _full_twist_table(form)
    assert np.abs(table - want).max() <= 1e-13 * np.abs(want).max()
    return table


def test_twist_streams_stop_at_the_last_term_read(prime_form):
    table = _assert_binned_table_matches_the_full_streams(prime_form)
    # The table reads no coefficient past the Lambda sums' count at p^2:
    # 249 of 4,001 at 37 and 727 at 101.
    p, k = prime_form.level, _term_count(prime_form.level ** 2,
                                         prime_form.nmax)
    assert k < prime_form.nmax // 2
    short = ModularFormData(p, prime_form.coefficients[:k + 1])
    assert np.array_equal(twisted_lambda_table(short)[1:], table)


def test_binned_twist_table_matches_the_full_streams_at_389():
    # Built to the length the measured root numbers read, 4,274 terms.
    curve = CurveModel(0, 1, 1, -2, 0, 389)
    _assert_binned_table_matches_the_full_streams(
        newform_from_curve(curve, _root_terms(389 ** 2)))


@pytest.mark.parametrize("nmax", [240, 248, 249, 280, 356, 358, 400, 452,
                                  453, 460])
def test_short_twist_streams_raise_where_the_full_ones_do(nmax):
    # At 37 the table needs the 249 terms of its Lambda sums: below 249
    # it and the full streams' Lambda sums raise with one message, and
    # from 249 on it returns.  The full streams' measured root numbers
    # need 357 terms at their two heights: from there on the two tables
    # agree.
    long = newform_from_curve(CurveModel(0, 0, 1, -1, 0, 37), 4000)
    form = ModularFormData(37, long.coefficients[:nmax + 1])

    def outcome(table):
        try:
            return table(form)
        except TruncationError as exc:
            return str(exc)
    binned = outcome(lambda f: twisted_lambda_table(f)[1:])
    full = outcome(_full_twist_table)
    if nmax < 249:
        assert isinstance(binned, str) and binned == full
    elif nmax < 357:
        assert not isinstance(binned, str) and isinstance(full, str)
    else:
        assert np.abs(binned - full).max() <= 1e-13 * np.abs(full).max()


def test_newform_terms_is_the_longest_read_of_any_sum(prime_form, monkeypatch):
    import ellreg.modsym as modsym
    from ellreg.verify import resolve_config

    p, nmax = prime_form.level, prime_form.nmax
    oracle = {}
    modsym.period_integral_oracle(prime_form, [(1, 0), (2, 5)],
                                  quadrature=oracle)
    # The longest prefix of the stream that the twisted table bins.
    binned = []
    real_bins = lseries._residue_bins

    def binning(terms, p):
        binned.append(len(terms) - 1)
        return real_bins(terms, p)
    monkeypatch.setattr(lseries, "_residue_bins", binning)
    twisted_lambda_table(prime_form)
    own = {"lambda p": _term_count(p, nmax),
           "lambda p^2": _term_count(p * p, nmax),
           "roots p": _root_terms(p, nmax),
           "twist prefix": max(binned),
           "oracle": oracle["oracle_terms"]}
    count = newform_terms(p)
    assert all(count >= k for k in own.values()), own
    assert count == max(own.values())
    config = resolve_config(curve=PRIME_CURVES[p])
    assert config.context.form.nmax == count


@pytest.mark.parametrize("p", [11, 17, 37, 101, 389, 997, 2017, 5077, 10061,
                               20089])
def test_newform_terms_covers_every_reader_by_count(p):
    # Counts only, no newform: Lambda and the root number at p, the
    # twisted Lambda at p^2 and the period oracle at height 1 / p.
    count = newform_terms(p)
    assert count == _term_count(p * p, sys.maxsize)
    readers = {"lambda p": _term_count(p, sys.maxsize),
               "roots p": _root_terms(p),
               "lambda p^2": _term_count(p * p, sys.maxsize),
               "oracle": _terms_for_rate(2 * math.pi / p, sys.maxsize)}
    assert all(count >= k for k in readers.values()), readers
