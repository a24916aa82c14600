"""Oracle tests for the gNB read path.

Every Type II reader checks its report in one pass over whole arrays, reads
each array field once and hands those arrays on to the synthesis, reads
phases and DFT columns from tables, and ``user_rates`` skips the per-call
work that computes no rate.  The reference copies below are the earlier
forms, verbatim: the Rel-15 ``validate`` with ``reporting_mask``, the
Enhanced Type II ``validate_budget`` with ``check_beams`` and
``strongest``, the dequantization and synthesis they fed, the combinadic
decode and ``user_rates``.

Every report must be accepted or rejected as the reference does it, with
the same exception class and message, and every precoder and rate must
match bit for bit.  The one intended difference: a coefficient array that
holds no integers (a float or bool array) raises FormatError naming the
field, where the references read some of them and raised a bare
IndexError or AttributeError on others.  Integer lists are read as their
arrays by every reader.
"""

import math

import numpy as np
import pytest

from nrpmi import (
    channel_sim,
    enhanced,
    type2_r15,
    type2_r16,
    type2_r17,
    type2_r18,
)
from nrpmi import quantization as qt
from nrpmi.bases import ArrayGeometry, orthogonal_group
from nrpmi.beamforming import user_rates
from nrpmi.combinadics import (
    binomial,
    decode_combination,
    is_index,
    is_indices,
)
from nrpmi.enhanced import N_PSK16, PORT_SELECTION, REGULAR, SB_AMPS, WB_AMPS
from nrpmi.errors import (
    BudgetError,
    ConsistencyError,
    DegenerateReportError,
    DomainError,
    FormatError,
)

GEOM = ArrayGeometry(4, 2, 4, 4)


# ---------------------------------------------------------------------------
# reference copies

def check_beams_ref(config, pmi) -> None:
    if config.variant == REGULAR:
        if not is_indices(pmi.i11, 2):
            raise FormatError(f"i_1,1={pmi.i11} must be a pair (q1, q2)")
        g = config.geom
        if not (0 <= pmi.i11[0] < g.o1 and 0 <= pmi.i11[1] < g.o2):
            raise DomainError(f"i_1,1={pmi.i11} outside [0, {g.o1}) x "
                              f"[0, {g.o2})")
        if not (is_index(pmi.i12)
                and 0 <= pmi.i12 < binomial(g.n1 * g.n2, config.l)):
            raise FormatError(f"i_1,2={pmi.i12} out of range")
        return
    if not is_index(pmi.i11):
        raise FormatError(f"i_1,1={pmi.i11} must be one block index")
    if not 0 <= pmi.i11 < enhanced.port_blocks(config):
        raise DomainError(f"i_1,1={pmi.i11} outside [0, "
                          f"{enhanced.port_blocks(config)})"
                          f": its {config.l} ports must fit in P/2")
    if pmi.i12 is not None:
        raise FormatError("i_1,2 must be absent for port selection")


def reporting_mask_ref(config, k1, i13):
    k1 = np.asarray(k1)
    rank, two_l = k1.shape
    nonzero = k1 > 0
    others = nonzero.copy()
    others[np.arange(rank), list(i13)] = False
    if not config.subband_amplitude:
        return np.zeros_like(others), np.where(others, config.n_psk, 0)
    order = np.argsort(np.where(others, -k1, 1), axis=1, kind="stable")
    n_fine = np.minimum(nonzero.sum(axis=1), type2_r15.k2_cap(config.l)) - 1
    k2_reported = np.zeros_like(others)
    np.put_along_axis(k2_reported, order,
                      np.arange(two_l) < n_fine[:, None], axis=1)
    k2_reported &= others
    return k2_reported, np.where(k2_reported, config.n_psk,
                                 np.where(others, 4, 0))


def validate_r15_ref(config, pmi):
    rank, two_l = config.rank, 2 * config.l
    check_beams_ref(config, pmi)
    if not is_indices(pmi.i13, rank):
        raise FormatError("i_1,3 must hold one strongest-coefficient index "
                          "per layer")
    for name, shape in (("k1", (rank, two_l)),
                        ("k2", (rank, config.subband_count, two_l)),
                        ("c", (rank, config.subband_count, two_l))):
        if np.shape(getattr(pmi, name)) != shape:
            raise FormatError(f"{name} must have shape {shape}")
    k1, k2, c = np.asarray(pmi.k1), np.asarray(pmi.k2), np.asarray(pmi.c)
    i13 = np.array(pmi.i13)
    if ((i13 < 0) | (i13 >= two_l)).any():
        raise DomainError(f"i_1,3={pmi.i13} outside [0, {two_l})")
    if ((k1 < 0) | (k1 > 7)).any():
        raise DomainError("k1 outside [0, 7]")
    if ((k2 < 0) | (k2 > 1)).any():
        raise DomainError("k2 outside [0, 1]")
    rows = np.arange(rank)
    if (k1[rows, i13] != 7).any():
        raise ConsistencyError("strongest coefficient must carry k1=7")
    if (k2[rows, :, i13] != 1).any() or (c[rows, :, i13] != 0).any():
        raise ConsistencyError("strongest coefficient must carry k2=1, c=0")
    k2_reported, alphabet = reporting_mask_ref(config, k1, pmi.i13)
    a = alphabet[:, None]
    if (~k2_reported[:, None] & (k2 != 1)).any():
        raise ConsistencyError("k2 reported at a defaulted position")
    if ((a == 0) & (c != 0)).any():
        raise ConsistencyError("phase reported at a defaulted position")
    if ((a > 0) & ((c < 0) | (c >= a))).any():
        raise DomainError("phase index c outside its alphabet")
    return k2_reported, alphabet


def coefficients_r15_ref(config, pmi, alphabet):
    a = np.where(alphabet > 0, alphabet, config.n_psk)
    k2 = np.asarray(pmi.k2).swapaxes(0, 1)
    p1 = qt.R15_WB_AMPS[pmi.k1]
    p2 = (qt.R15_SB_AMPS[k2] if config.subband_amplitude
          else np.ones(k2.shape))
    c = np.asarray(pmi.c).swapaxes(0, 1)
    phi = np.exp(2j * np.pi * (c % a) / a)
    return p1 * p2 * phi


def precoders_r15_ref(config, v, coef):
    l = config.l
    beta = type2_r15._beta(config, coef)
    w = np.concatenate([np.matmul(v, coef[..., :l, None]),
                        np.matmul(v, coef[..., l:, None])], axis=-2)[..., 0]
    w = w / np.sqrt(beta)[..., None] / np.sqrt(config.rank)  # (..., rank, P)
    return np.ascontiguousarray(np.swapaxes(w, -1, -2))


def selected_beams_ref(config, pmi):
    if config.variant != REGULAR:
        return enhanced.port_block(config, pmi.i11)
    g = config.geom
    group = orthogonal_group(config.geom, *pmi.i11)
    return group[:, list(decode_combination_ref(pmi.i12, g.n1 * g.n2,
                                                config.l))]


def reconstruct_all_r15_ref(config, pmi):
    _, alphabet = validate_r15_ref(config, pmi)
    return precoders_r15_ref(config, selected_beams_ref(config, pmi),
                             coefficients_r15_ref(config, pmi, alphabet))


def strongest_ref(config, pmi, layer):
    i18 = pmi.i18[layer]
    plane = enhanced._plane(config, pmi.bitmap[layer])
    if enhanced._prefix_coded(config):
        col = np.flatnonzero(plane.T)
        if not 0 <= i18 < col.size:
            raise FormatError(f"i_1,8={i18} has no matching set bit at tap 0")
        i18 = int(col[i18])
    elif not 0 <= i18 < plane.size:
        raise FormatError(f"i_1,8={i18} outside [0, {plane.size})")
    return i18 % plane.shape[0], i18 // plane.shape[0]


def validate_budget_ref(config, pmi, layer_fields) -> None:
    rank = config.rank
    for name in layer_fields:
        if not is_indices(getattr(pmi, name), rank):
            raise FormatError(f"i_1,{name[2:]} must hold one index per layer")
    shape = config.coef_shape
    for name in ("bitmap", "k2", "c"):
        if np.shape(getattr(pmi, name)) != shape:
            raise FormatError(f"{name} must have shape {shape}")
    if np.shape(pmi.k1) != (rank, 2):
        raise FormatError(f"k1 must have shape ({rank}, 2)")
    on = pmi.bitmap == 1
    off = pmi.bitmap == 0
    if not (on | off).all():
        raise FormatError("bitmap entries must be 0 or 1")
    k0 = config.k0
    k_nz = on.reshape(rank, -1).sum(axis=1)
    if (k_nz > k0).any():
        layer = int(np.argmax(k_nz > k0))
        raise BudgetError(f"layer {layer}: K_NZ={k_nz[layer]} exceeds K0={k0}")
    if k_nz.sum() > 2 * k0:
        raise BudgetError(f"total K_NZ={k_nz.sum()} exceeds 2*K0={2 * k0}")
    if ((pmi.k1 < 1) | (pmi.k1 > 15)).any():
        raise DomainError("k1 outside [1, 15]")
    if (on & ((pmi.k2 < 0) | (pmi.k2 > 7))).any():
        raise DomainError("k2 outside [0, 7]")
    if (on & ((pmi.c < 0) | (pmi.c >= N_PSK16))).any():
        raise DomainError(f"phase index outside [0, {N_PSK16})")
    if (off & ((pmi.k2 != 0) | (pmi.c != 0))).any():
        raise ConsistencyError("unreported coefficients must be zero")
    bitmap, k2, c = (enhanced.grid(pmi.bitmap), enhanced.grid(pmi.k2),
                     enhanced.grid(pmi.c))
    for layer in range(rank):
        i_star, s_star = strongest_ref(config, pmi, layer)
        cell = (layer,) + enhanced.strongest_cell(config, i_star, s_star)
        if not bitmap[cell]:
            raise ConsistencyError("strongest coefficient must be reported")
        if k2[cell] != 7 or c[cell] != 0:
            raise ConsistencyError("strongest coefficient must carry k2=7, c=0")
        if pmi.k1[layer, i_star // config.l] != 15:
            raise ConsistencyError("strongest polarization must carry k1=15")


def layer_coefficients_ref(config, pmi, layer=slice(None)):
    p1 = WB_AMPS[pmi.k1[layer]]
    p2 = SB_AMPS[pmi.k2[layer]]
    phi = np.exp(2j * np.pi * pmi.c[layer] / N_PSK16)
    pol = np.repeat(p1, config.l, axis=-1)
    pol = pol.reshape(pol.shape + (1,) * (p2.ndim - pol.ndim))
    return pol * p2 * phi * pmi.bitmap[layer]


def dft_ref(n, indices):
    return np.exp(2j * np.pi * (np.arange(n)[:, None]
                                * np.asarray(indices)[:, None, :]) / n)


def synthesize_ref(config, pmi, v, taps, shifts=None):
    coef = layer_coefficients_ref(config, pmi)
    y = dft_ref(config.n3, taps)
    if shifts is None:
        ct = coef @ y.swapaxes(1, 2)
    else:
        z = dft_ref(config.n4, shifts)
        ct = np.einsum("kifq,ktf,knq->kitn", coef, y, z)
    gamma = (np.abs(ct) ** 2).sum(axis=1)
    points = tuple(range(1, gamma.ndim))
    bad = (gamma <= 1e-12 * gamma.max(axis=points, keepdims=True)).any(
        axis=points)
    if bad.any():
        raise DegenerateReportError(f"layer {int(np.argmax(bad))} has zero "
                                    "energy at some frequency unit")
    l, gain = config.l, enhanced.spatial_gain(config)
    if ct.ndim == 3:
        halves = [v @ ct[:, :l], v @ ct[:, l:]]
    else:
        halves = [np.einsum("pl,kltn->kptn", v, ct[:, :l]),
                  np.einsum("pl,kltn->kptn", v, ct[:, l:])]
    normed = (np.concatenate(halves, axis=1) / np.sqrt(gain * gamma)[:, None]
              / np.sqrt(config.rank))
    return np.ascontiguousarray(np.moveaxis(normed, (0, 1), (-1, -2)))


def decode_taps_ref(config, pmi, layer):
    enhanced.check_index("layer", layer, config.rank)
    choices = enhanced.tap_choices(config, enhanced.m_initial(config, pmi))
    i16 = pmi.i16[layer]
    if not 0 <= i16 < config.i16_count:
        raise FormatError(f"i_1,6={i16} outside [0, {config.i16_count})")
    return (0,) + tuple(choices[t] for t in decode_combination_ref(
        i16, len(choices), config.mv - 1))


def reconstruct_all_r16_ref(config, pmi):
    check_beams_ref(config, pmi)
    validate_budget_ref(config, pmi, ("i16", "i18"))
    taps = [decode_taps_ref(config, pmi, layer)
            for layer in range(config.rank)]
    return synthesize_ref(config, pmi, selected_beams_ref(config, pmi), taps)


def reconstruct_all_r17_ref(config, pmi):
    validate_budget_ref(config, pmi, ("i18",))
    v = enhanced.port_beams(config.p_csirs,
                            type2_r17.decode_ports(config, pmi))
    taps = type2_r17.decode_tap_offset(config, pmi)
    return synthesize_ref(config, pmi, v, [taps] * config.rank)


def reconstruct_all_r18_ref(config, pmi):
    check_beams_ref(config, pmi)
    validate_budget_ref(config, pmi, ("i16", "i18") + (
        ("i110",) if config.n4 > 1 else ()))
    layers = range(config.rank)
    taps = [decode_taps_ref(config, pmi, layer) for layer in layers]
    shifts = [type2_r18.decode_shifts(config, pmi)[layer] for layer in layers]
    return synthesize_ref(config, pmi, selected_beams_ref(config, pmi),
                          taps, shifts)


def decode_combination_ref(index, n, k):
    total = binomial(n, k)
    if not 0 <= index < total:
        raise FormatError(f"combination index {index} outside [0, {total})")
    out = []
    s = 0
    for i in range(k):
        for x_star in range(n - 1 - i, k - 2 - i, -1):
            e = binomial(x_star, k - i)
            if index - s >= e:
                s += e
                out.append(n - 1 - x_star)
                break
    return tuple(out)


def user_rates_ref(channels, beamformers, noise_powers):
    k_users = len(channels)
    if k_users == 0:
        raise DomainError("channels must hold at least one user")
    if len(beamformers) != k_users:
        raise DomainError(f"beamformers must hold one block per user, "
                          f"{len(beamformers)} for {k_users} users")
    try:
        noise = np.broadcast_to(np.asarray(noise_powers, dtype=float),
                                (k_users,))
    except ValueError:
        raise DomainError(f"noise_powers must be a scalar or {k_users} "
                          f"values, one per user") from None
    if not (np.isfinite(noise) & (noise > 0)).all():
        raise DomainError(f"noise_powers must be positive and finite, "
                          f"got {noise.tolist()}")
    arrays = [(f"channels[{k}]", np.asarray(h), -1)
              for k, h in enumerate(channels)]
    arrays += [(f"beamformers[{k}]", np.asarray(w), -2)
               for k, w in enumerate(beamformers)]
    m_carriers = nt = None
    for name, a, nt_axis in arrays:
        if a.ndim not in (2, 3):
            raise DomainError(f"{name} must be 2-D or 3-D, not {a.ndim}-D")
        if nt is None:
            nt = a.shape[nt_axis]
        elif a.shape[nt_axis] != nt:
            raise DomainError(f"{name} has Nt = {a.shape[nt_axis]}, "
                              f"channels[0] has {nt}")
        if a.ndim == 3 and m_carriers is None:
            m_carriers, m_name = a.shape[0], name
        elif a.ndim == 3 and a.shape[0] != m_carriers:
            raise DomainError(f"{name} has {a.shape[0]} subcarriers, "
                              f"{m_name} has {m_carriers}")
    if m_carriers is None:
        m_carriers = 1
    stacks = [np.broadcast_to(a, (m_carriers,) + a.shape[-2:])
              for _, a, _ in arrays]
    hs, ws = stacks[:k_users], stacks[k_users:]
    rates = np.zeros(k_users)
    for k in range(k_users):
        nr = hs[k].shape[1]
        cov = np.broadcast_to(noise[k] * np.eye(nr, dtype=complex),
                              (m_carriers, nr, nr))
        for i in range(k_users):
            if i != k:
                g = hs[k] @ ws[i]
                cov = cov + g @ g.conj().swapaxes(1, 2)
        g = hs[k] @ ws[k]
        sig = g @ g.conj().swapaxes(1, 2)
        _, logdets = np.linalg.slogdet(np.eye(nr) + np.linalg.solve(cov, sig))
        rate = 0.0
        for logdet in (logdets / math.log(2)).tolist():
            rate += logdet
        rates[k] = rate
    return rates


# ---------------------------------------------------------------------------
# the readers: (module, config, reference reconstruct_all, array fields)

R15 = ("k1", "k2", "c")
ENHANCED = ("bitmap", "k1", "k2", "c")
READERS = {
    "r15": (type2_r15, type2_r15.T2R15Config(
        l=4, n_psk=8, rank=2, subband_count=4, geom=GEOM),
        reconstruct_all_r15_ref, R15),
    "r15-no-sb-amplitude": (type2_r15, type2_r15.T2R15Config(
        l=3, n_psk=4, rank=1, subband_count=3, subband_amplitude=False,
        geom=GEOM), reconstruct_all_r15_ref, R15),
    "r15-ps": (type2_r15, type2_r15.T2R15Config(
        l=2, n_psk=4, rank=2, subband_count=2, variant=PORT_SELECTION,
        p_csirs=16, d=2), reconstruct_all_r15_ref, R15),
    "r16": (type2_r16, type2_r16.R16Config(
        param_combination=4, r=1, n3=18, rank=2, geom=GEOM),
        reconstruct_all_r16_ref, ENHANCED),
    "r16-window-rank1": (type2_r16, type2_r16.R16Config(
        param_combination=6, r=1, n3=24, rank=1, geom=GEOM),
        reconstruct_all_r16_ref, ENHANCED),
    "r16-rank4": (type2_r16, type2_r16.R16Config(
        param_combination=5, r=2, n3=10, rank=4, geom=GEOM),
        reconstruct_all_r16_ref, ENHANCED),
    "r16-ps": (type2_r16, type2_r16.R16Config(
        param_combination=2, r=1, n3=8, rank=2, variant=PORT_SELECTION,
        p_csirs=16, d=1), reconstruct_all_r16_ref, ENHANCED),
    "r17": (type2_r17, type2_r17.R17Config(
        p_csirs=16, param_combination=6, n3=12, n_threshold=4, rank=2),
        reconstruct_all_r17_ref, ENHANCED),
    "r17-alpha1-rank1": (type2_r17, type2_r17.R17Config(
        p_csirs=8, param_combination=2, n3=6, rank=1),
        reconstruct_all_r17_ref, ENHANCED),
    "r18-n4-1": (type2_r18, type2_r18.R18Config(
        geom=GEOM, param_combination=2, r=1, n3=12, n4=1, rank=2),
        reconstruct_all_r18_ref, ENHANCED),
    "r18-n4-4": (type2_r18, type2_r18.R18Config(
        geom=GEOM, param_combination=2, r=1, n3=12, n4=4, rank=2),
        reconstruct_all_r18_ref, ENHANCED),
    "r18-n4-4-rank1": (type2_r18, type2_r18.R18Config(
        geom=GEOM, param_combination=5, r=1, n3=8, n4=4, rank=1),
        reconstruct_all_r18_ref, ENHANCED),
    "r18-n4-8-rank3": (type2_r18, type2_r18.R18Config(
        geom=GEOM, param_combination=4, r=2, n3=6, n4=8, rank=3),
        reconstruct_all_r18_ref, ENHANCED),
}


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


def outcome(fn, *args):
    """("ok", precoders) or (exception class, message)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compared class and message alike
        return type(exc), str(exc)


def same_outcome(a, b) -> bool:
    if a[0] == "ok" == b[0]:
        return same_bits(a[1], b[1])
    return a == b


def with_field(pmi, name, value):
    return type(pmi)(**{**vars(pmi), name: value})


# ---------------------------------------------------------------------------
# valid reports: every precoder bit for bit

@pytest.mark.parametrize("name", READERS)
def test_reconstruct_all_matches_the_reference(name):
    module, config, reference, _ = READERS[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    for _ in range(15):
        pmi = module.random_valid_pmi(config, rng)
        assert same_bits(module.reconstruct_all(config, pmi),
                         reference(config, pmi))


LINK_MODEL = dict(n_paths=6, delay_spread=1e-6, doppler_max=200.0,
                  subcarrier_spacing=180e3, n_subcarriers=24)


@pytest.mark.parametrize("trial", range(4))
def test_searched_reports_read_and_rate_as_the_reference(trial):
    # the link trial's read side: each search's report rebuilt and rated
    model = channel_sim.ChannelModel(seed=3, **LINK_MODEL)
    h = channel_sim.draw_channel(model, GEOM, 2, trial=trial, n4=4).h
    cases = [
        ("r15", lambda cfg: type2_r15.search_t2_r15(h[0], cfg), h[0]),
        ("r16", lambda cfg: channel_sim.search_r16(h[:1, :cfg.n3], cfg),
         h[0, :18]),
        ("r17", lambda cfg: channel_sim.search_r17(h[:1, :cfg.n3], cfg),
         h[0, :12]),
        ("r18-n4-4", lambda cfg: channel_sim.search_r18(h[:, :cfg.n3], cfg),
         None),
    ]
    for name, search, hf in cases:
        module, config, reference, _ = READERS[name]
        pmi = search(config)
        ws, ws_ref = module.reconstruct_all(config, pmi), reference(config, pmi)
        assert same_bits(ws, ws_ref)
        if module is type2_r15:
            for a, b in zip(type2_r15.validate(config, pmi)[3:],
                            validate_r15_ref(config, pmi)):
                assert same_bits(a, b)
        if ws.ndim == 4:
            hf = h[:, :config.n3].reshape(-1, *h.shape[2:])
            ws = ws.transpose(1, 0, 2, 3).reshape(-1, *ws.shape[2:])
        elif name == "r15":
            edges = np.linspace(0, len(hf), len(ws) + 1).astype(int)
            ws = np.repeat(ws, np.diff(edges), axis=0)
        assert same_bits(user_rates([hf], [ws], 0.1),
                         user_rates_ref([hf], [ws], 0.1))


@pytest.mark.parametrize("l", [2, 3, 4])
@pytest.mark.parametrize("n_psk", [4, 8])
@pytest.mark.parametrize("subband_amplitude", [True, False])
def test_reporting_mask_matches_the_reference(l, n_psk, subband_amplitude):
    cfg = type2_r15.T2R15Config(l=l, n_psk=n_psk, rank=2, geom=GEOM,
                                subband_amplitude=subband_amplitude)
    rng = np.random.default_rng(10 * l + n_psk)
    for _ in range(100):
        k1 = rng.integers(0, 8, size=(2, 2 * l))
        i13 = tuple(int(s) for s in rng.integers(2 * l, size=2))
        got, want = type2_r15.reporting_mask(cfg, k1, i13), \
            reporting_mask_ref(cfg, k1, i13)
        for a, b in zip(got, want):
            assert same_bits(a, b)


# ---------------------------------------------------------------------------
# malformed reports: the same class and message as the reference

VALUES = (-1, 0, 1, 2, 3, 4, 7, 8, 15, 16, 99, 2 ** 40)


def mutations(pmi, fields, rng):
    """One changed field at a time: an array entry set to each of
    ``VALUES`` at its first, last and three drawn positions, an array of
    another shape, an index field out of range or of another type."""
    for name in fields:
        a = np.asarray(getattr(pmi, name))
        spots = {0, a.size - 1} | set(rng.integers(a.size, size=3).tolist())
        for spot in sorted(spots):
            for value in VALUES:
                b = a.copy().reshape(-1).astype(np.int64)
                b[spot] = value
                yield with_field(pmi, name, b.reshape(a.shape))
        yield with_field(pmi, name, a[..., :-1])
        yield with_field(pmi, name, a[None])
    for name in ("i11", "i12", "i13", "i15", "i16", "i18", "i110"):
        if not hasattr(pmi, name):
            continue
        value = getattr(pmi, name)
        for bad in (None, -1, 99, 2.0, (0,), (0, 0, 0, 0, 0), [0, 0]):
            yield with_field(pmi, name, bad)
        if isinstance(value, tuple):
            for spot in range(len(value)):
                for step in (-1, 1, 5, 99):
                    yield with_field(pmi, name, value[:spot]
                                     + (value[spot] + step,)
                                     + value[spot + 1:])


@pytest.mark.parametrize("name", READERS)
def test_every_malformed_report_fails_as_the_reference(name):
    module, config, reference, fields = READERS[name]
    rng = np.random.default_rng(sum(map(ord, name)) + 1)
    raised = 0
    for _ in range(3):
        pmi = module.random_valid_pmi(config, rng)
        for bad in mutations(pmi, fields, rng):
            got = outcome(module.reconstruct_all, config, bad)
            want = outcome(reference, config, bad)
            assert same_outcome(got, want), (got, want)
            raised += got[0] != "ok"
    assert raised > 100


@pytest.mark.parametrize("name", READERS)
def test_the_first_of_two_faults_wins_as_in_the_reference(name):
    # two single-field faults together: the reader must report the one the
    # reference checks first
    module, config, reference, fields = READERS[name]
    rng = np.random.default_rng(sum(map(ord, name)) + 2)
    pmi = module.random_valid_pmi(config, rng)
    faults = [bad for bad in mutations(pmi, fields, rng)
              if outcome(reference, config, bad)[0] != "ok"]
    for _ in range(400):
        one, two = (faults[i] for i in rng.choice(len(faults), 2,
                                                  replace=False))
        changed = {k: v for k, v in vars(two).items()
                   if v is not getattr(pmi, k)}
        both = type(pmi)(**{**vars(one), **changed})
        got = outcome(module.reconstruct_all, config, both)
        assert same_outcome(got, outcome(reference, config, both)), got


@pytest.mark.parametrize("name", ["r15", "r15-no-sb-amplitude", "r15-ps"])
def test_r15_validate_returns_the_reference_mask(name):
    module, config, _, _ = READERS[name]
    rng = np.random.default_rng(5)
    for _ in range(20):
        pmi = module.random_valid_pmi(config, rng)
        *_, k2_reported, alphabet = type2_r15.validate(config, pmi)
        want = validate_r15_ref(config, pmi)
        assert same_bits(k2_reported, want[0])
        assert same_bits(alphabet, want[1])


# ---------------------------------------------------------------------------
# the typed faults: one rule in all five readers

@pytest.mark.parametrize("dtype", [float, bool])
@pytest.mark.parametrize("name", READERS)
def test_an_array_of_no_integers_is_a_format_error(name, dtype):
    module, config, _, fields = READERS[name]
    pmi = module.random_valid_pmi(config, np.random.default_rng(0))
    for field in fields:
        bad = with_field(pmi, field, np.asarray(getattr(pmi, field)
                                                ).astype(dtype))
        with pytest.raises(FormatError,
                           match=f"^{field} must be an integer array"):
            module.reconstruct_all(config, bad)


@pytest.mark.parametrize("name", READERS)
def test_huge_integers_or_a_ragged_list_are_format_errors(name):
    module, config, _, fields = READERS[name]
    pmi = module.random_valid_pmi(config, np.random.default_rng(0))
    for field in fields:
        huge = np.asarray(getattr(pmi, field)).astype(object)
        huge.reshape(-1)[0] = 10 ** 30      # no int64: an object array
        with pytest.raises(FormatError,
                           match=f"^{field} must be an integer array"):
            module.reconstruct_all(config, with_field(pmi, field,
                                                      huge.tolist()))
        ragged = getattr(pmi, field).tolist()
        ragged[-1] = ragged[-1][:-1]
        with pytest.raises(FormatError, match=f"^{field} must have shape"):
            module.reconstruct_all(config, with_field(pmi, field, ragged))


def test_the_old_bare_errors_are_format_errors():
    # the references let these escape as IndexError or AttributeError
    module, config, reference, _ = READERS["r15"]
    pmi = module.random_valid_pmi(config, np.random.default_rng(1))
    for field, dtype in (("k1", float), ("k2", bool)):
        bad = with_field(pmi, field, getattr(pmi, field).astype(dtype))
        with pytest.raises(IndexError):
            reference(config, bad)
        with pytest.raises(FormatError, match=f"^{field} must be an integer"):
            module.reconstruct_all(config, bad)
    module, config, reference, _ = READERS["r16"]
    pmi = module.random_valid_pmi(config, np.random.default_rng(1))
    for field in ("k1", "k2"):
        bad = with_field(pmi, field, getattr(pmi, field).astype(float))
        with pytest.raises(IndexError):
            reference(config, bad)
        with pytest.raises(FormatError, match=f"^{field} must be an integer"):
            module.reconstruct_all(config, bad)
    with pytest.raises(AttributeError):
        reference(config, with_field(pmi, "bitmap", pmi.bitmap.tolist()))
    with pytest.raises(TypeError):
        reference(config, with_field(pmi, "k1", pmi.k1.tolist()))


@pytest.mark.parametrize("name", READERS)
def test_integer_lists_read_as_their_arrays(name):
    # Rel-15 read integer lists before; the enhanced readers do now too
    module, config, _, fields = READERS[name]
    pmi = module.random_valid_pmi(config, np.random.default_rng(2))
    lists = pmi
    for field in fields:
        lists = with_field(lists, field, getattr(pmi, field).tolist())
    assert same_bits(module.reconstruct_all(config, lists),
                     module.reconstruct_all(config, pmi))
    assert module.serialize_pmi(config, lists) == \
        module.serialize_pmi(config, pmi)


@pytest.mark.parametrize("name", ["r16", "r17", "r18-n4-4"])
def test_a_bool_bitmap_is_no_longer_read(name):
    # the reference read True/False as 1/0; a bitmap is an integer array,
    # as the CLI has always required of every array field
    module, config, reference, _ = READERS[name]
    pmi = module.random_valid_pmi(config, np.random.default_rng(3))
    bad = with_field(pmi, "bitmap", pmi.bitmap.astype(bool))
    assert same_bits(reference(config, bad), reference(config, pmi))
    with pytest.raises(FormatError, match="^bitmap must be an integer array"):
        module.reconstruct_all(config, bad)


@pytest.mark.parametrize("name", ["r15", "r16", "r18-n4-4"])
def test_unsigned_arrays_read_as_signed(name):
    module, config, _, fields = READERS[name]
    pmi = module.random_valid_pmi(config, np.random.default_rng(4))
    unsigned = pmi
    for field in fields:
        unsigned = with_field(unsigned, field,
                              getattr(pmi, field).astype(np.uint64))
    assert same_bits(module.reconstruct_all(config, unsigned),
                     module.reconstruct_all(config, pmi))
    big = np.asarray(pmi.k1).astype(np.uint64)
    big.reshape(-1)[0] = 2 ** 64 - 1
    with pytest.raises(DomainError, match="^k1 outside"):
        module.reconstruct_all(config, with_field(pmi, "k1", big))


# ---------------------------------------------------------------------------
# tables and the combinadic decode

@pytest.mark.parametrize("n", [4, 8, 16])
def test_psk_tables_hold_the_expressions_they_replace(n):
    c = np.arange(n)
    a = np.full(n, n)
    assert same_bits(qt.PSK[n], np.exp(2j * np.pi * (c % a) / a))
    assert same_bits(qt.PSK[n], np.exp(2j * np.pi * c / n))
    if n < 16:
        # Rel-15: [alphabet, c]; alphabet 0 holds c = 0, whose phase the
        # reference took in the config's alphabet n
        assert same_bits(type2_r15._PHASES[n, :n], qt.PSK[n])
        assert same_bits(type2_r15._PHASES[0, :1],
                         np.exp(2j * np.pi * (c[:1] % a[:1]) / a[:1]))


def test_dft_table_holds_every_column_it_serves():
    for n in range(1, 37):
        k = np.arange(2 * n)[None]
        assert same_bits(enhanced._dft(n, k), dft_ref(n, k))


def test_decode_combination_matches_the_reference():
    for n in range(13):
        for k in range(n + 1):
            for index in range(binomial(n, k)):
                assert decode_combination(index, n, k) == \
                    decode_combination_ref(index, n, k)
    rng = np.random.default_rng(6)
    for _ in range(300):
        n = int(rng.integers(13, 40))
        k = int(rng.integers(0, n + 1))
        index = int(rng.integers(binomial(n, k)))
        assert decode_combination(index, n, k) == \
            decode_combination_ref(index, n, k)


# ---------------------------------------------------------------------------
# user_rates (tests/test_beamforming.py checks its rates against a
# per-subcarrier loop, which the reference matches bit for bit)

def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("channels, beamformers, noise", [
    ([], [], 1.0),
    ([(2, 4)], [(4, 1), (4, 1)], 1.0),
    ([(2, 2, 4)], [(3, 4, 1)], 1.0),
    ([(3, 2, 4), (2, 2, 4)], [(4, 1), (4, 1)], 1.0),
    ([(2, 4), (2, 4)], [(4, 1), (4, 1)], [1.0, 1.0, 1.0]),
    ([(2, 4), (2, 4)], [(4, 1), (4, 1)], [[1.0], [1.0]]),
    ([(1, 3, 2, 4)], [(4, 1)], 1.0),
    ([(2, 4)], [(3, 1)], 1.0),
    ([(2, 4)], [(4,)], 1.0),
    ([(2, 4)], [(4, 1)], 0.0),
    ([(2, 4), (2, 4)], [(4, 1), (4, 1)], [1.0, float("nan")]),
    ([(2, 4), (2, 4)], [(4, 1), (4, 1)], [float("inf")]),
])
def test_malformed_rate_inputs_fail_as_the_reference(channels, beamformers,
                                                     noise):
    rng = np.random.default_rng(13)
    channels = [crandn(rng, *shape) for shape in channels]
    beamformers = [crandn(rng, *shape) for shape in beamformers]
    got = outcome(user_rates, channels, beamformers, noise)
    assert got[0] is DomainError
    assert got == outcome(user_rates_ref, channels, beamformers, noise)
