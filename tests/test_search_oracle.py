"""Oracle tests for the Type II searches' candidate stage.

The searches fit each tied candidate from the basis, taps and shifts they
already hold, skip the fit when one candidate remains, and finish and
quantize every layer of every tied candidate in one array pass, along a
leading candidate axis; each candidate must come out as it does alone.
The reference copies below are the earlier forms: a candidate loop that
fits every candidate through its release's ``reconstruct_all`` (one fit
per report), a finish that picks
each layer's shifts and taps in turn (refitting a later layer's taps into
layer 0's window), a quantizer that works one layer at a time, trimming
the budget with a loop over positions, a group scan that sums a broadcast
product over the groups, and a tap encoder that looks every tap up with
``list.index``; the searches' screened group scan is checked against the
full exact scan, ``_group_energy``.  Every report must match
them bit for bit, except where the reference quantizer overruns the 2*K0
budget at ranks 3-4 (it keeps nothing back for the later layers' strongest
coefficients): there the search must return a report within the budget
rule, ``enhanced.layer_cap``.
"""

import sys
from types import SimpleNamespace

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
from nrpmi.bases import SUPPORTED_GEOMETRIES, ArrayGeometry, orthogonal_groups
from nrpmi.combinadics import encode_combination
from nrpmi.errors import (
    BudgetError,
    CodebookError,
    DegenerateReportError,
    DomainError,
    RestrictionError,
)
from nrpmi.quantization import quantize_nearest, quantize_phase

GEOM = ArrayGeometry(4, 2, 4, 4)
LINK_MODEL = dict(n_paths=6, delay_spread=1e-6, doppler_max=200.0,
                  subcarrier_spacing=180e3, n_subcarriers=24)


# ---------------------------------------------------------------------------
# reference copies

def group_energy_oracle(targets, geom):
    """The group scan as one broadcast product over the groups, (O1, O2,
    rows, N1*N2), summed over the rows."""
    rows = targets.reshape(-1, geom.n1 * geom.n2)
    return (np.abs(rows @ orthogonal_groups(geom).conj()) ** 2).sum(axis=-2)


def encode_taps_oracle(config, taps, m_init):
    """i16 of taps (0, ...) at ``m_init``, each tap's position looked up in
    ``tap_choices`` with ``list.index`` (its first occurrence)."""
    choices = enhanced.tap_choices(config, m_init)
    return encode_combination(sorted(map(choices.index, taps[1:])),
                              len(choices), config.mv - 1)


def quantize_grid_oracle(coef, l, k0, budget_left, star_slots):
    """One layer's grid (K, ...), the budget trimmed position by position."""
    wb_amps, sb_amps, n_psk = enhanced.WB_AMPS, enhanced.SB_AMPS, 16
    shape = coef.shape
    flat_tail = coef.reshape(2 * l, -1)
    mag = np.abs(flat_tail)
    star_mag = np.round(mag, 12).copy()
    star_mag[:, ~star_slots] = -1.0
    star = np.unravel_index(int(np.argmax(star_mag)), mag.shape)
    scale = mag[star]
    if scale == 0:
        raise DomainError("no usable coefficient at the reference tap")
    coef = coef * np.exp(-1j * np.angle(flat_tail[star]))
    flat_tail = coef.reshape(2 * l, -1)
    mag = np.abs(flat_tail) / scale
    p_star = star[0] // l
    k1 = np.ones(2, dtype=int)
    k1[p_star] = 15
    other = 1 - p_star
    other_max = float(mag[other * l:other * l + l].max())
    k1[other] = (int(quantize_nearest(min(other_max, 1.0), wb_amps[1:])) + 1
                 if other_max > 0 else 1)
    pol_amp = np.repeat(wb_amps[k1], l)[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(pol_amp > 0, mag / pol_amp, 0.0)
    k2 = quantize_nearest(np.minimum(ratio, 1.0), sb_amps)
    keep = ratio >= sb_amps[0] / 2
    keep[star] = True
    cap = min(k0, budget_left)
    if keep.sum() > cap:
        order = np.argsort(mag, axis=None)[::-1]
        allowed = {int(np.ravel_multi_index(star, mag.shape))}
        for pos in order:
            if len(allowed) >= cap:
                break
            if keep.flat[pos]:
                allowed.add(int(pos))
        keep = np.zeros_like(keep)
        keep.flat[list(allowed)] = True
    phases = quantize_phase(np.angle(flat_tail), n_psk)
    bitmap = keep.astype(np.int8)
    k2 = np.where(bitmap > 0, k2, 0)
    c = np.where(bitmap > 0, phases, 0)
    k2[star] = 7
    c[star] = 0
    return (bitmap.reshape(shape), k1, k2.reshape(shape), c.reshape(shape),
            star)


def quantize_layers_oracle(config, coefs):
    """``_quantize_layers`` one layer at a time."""
    rank = config.rank
    bitmap = np.zeros(config.coef_shape, dtype=np.int8)
    k1 = np.ones((rank, 2), dtype=int)
    k2 = np.zeros(config.coef_shape, dtype=int)
    c = np.zeros(config.coef_shape, dtype=int)
    slots = np.zeros(coefs[0].shape[1:], dtype=bool)
    slots[enhanced.strongest_cell(config, 0, slice(None))[1:]] = True
    budget_left = 2 * config.k0
    i18 = []
    for layer, coef in enumerate(coefs):
        bm, kk1, kk2, cc, star = quantize_grid_oracle(
            coef, config.l, config.k0, budget_left, slots.reshape(-1))
        budget_left -= int(bm.sum())
        enhanced.grid(bitmap)[layer] = bm
        enhanced.grid(k2)[layer] = kk2
        enhanced.grid(c)[layer] = cc
        k1[layer] = kk1
        s_star = np.unravel_index(star[1],
                                  slots.shape)[config.strongest_axis - 1]
        i18.append(enhanced.encode_strongest(config, bitmap[layer], star[0],
                                             s_star))
    return tuple(i18), bitmap, k1, k2, c


def pick_taps_oracle(ref_metric, energy, config):
    """Reference tap (strongest coefficient) plus the best representable
    companions by energy; returns (ref, relative taps in decode order,
    M_init)."""
    mv, n3 = config.mv, config.n3
    ref = int(np.argmax(np.round(ref_metric, 12)))
    rel_energy = np.roll(energy, -ref)
    if mv == 1:
        return ref, (0,), 0
    if not config.window_mode or 2 * mv >= n3:
        # a window of 2Mv >= N3 taps at M_initial = 0 covers every tap
        rest = np.sort(np.argsort(rel_energy[1:])[::-1][:mv - 1] + 1)
        return ref, (0,) + tuple(int(t) for t in rest), 0
    # signed relative position; the window [M_init, M_init + 2Mv - 1] must
    # cover every pick and contain 0
    signed = {}
    for rel in range(1, n3):
        s = rel if rel <= 2 * mv - 1 else rel - n3
        if -2 * mv + 1 <= s <= 2 * mv - 1:
            signed[rel] = s
    order = sorted(signed, key=lambda rel: -rel_energy[rel])
    chosen = []
    lo = hi = 0
    for rel in order:
        if len(chosen) == mv - 1:
            break
        s = signed[rel]
        new_lo, new_hi = min(lo, s), max(hi, s)
        if new_hi - new_lo <= 2 * mv - 2:
            chosen.append(rel)
            lo, hi = new_lo, new_hi
    m_init = min(0, lo)
    choices = enhanced.tap_choices(config, m_init)
    return ref, (0,) + tuple(sorted(chosen, key=choices.index)), m_init


def refit_window_oracle(ref, energy, config, m_init):
    """Best companion taps among ``enhanced.tap_choices`` at M_init, ties
    toward the window start M_init."""
    rel_energy = np.roll(energy, -ref)
    choices = enhanced.tap_choices(config, m_init)
    picks = sorted(choices, key=lambda rel: (-rel_energy[rel],
                                             (rel - m_init) % config.n3))
    return (0,) + tuple(sorted(picks[:config.mv - 1], key=choices.index))


def finish_oracle(config, targets, i11, i12, basis,
                  quantize=channel_sim._quantize_layers):
    """``channel_sim._finish`` one layer at a time, each layer's grid
    quantized by ``quantize``; taps (rank, Mv) and shifts (rank, Q) as
    int arrays."""
    n3 = config.n3
    proj = channel_sim._beam_projections(targets, basis,
                                         enhanced.spatial_gain(config))
    n4 = proj.shape[1]
    spectrum = np.fft.fft(proj, axis=2) / n3
    spectrum = np.fft.fft(spectrum, axis=1) / n4
    m_first = None
    i16, i110, coefs, taps, shifts = [], [], [], [], []
    for layer in range(config.rank):
        if n4 > 1:
            shift_energy = (np.abs(spectrum[layer]) ** 2).sum(axis=(1, 2))
            second = 1 + int(np.argmax(shift_energy[1:]))
            shifts.append((0, second))
            i110.append(second - 1)
        else:
            shifts.append((0,))
        sub = spectrum[layer][list(shifts[-1])]           # (Q, N3, 2L)
        tap_energy = (np.abs(sub) ** 2).sum(axis=(0, 2))
        tap_peak = np.abs(sub).max(axis=(0, 2))
        ref, rels, m_init = pick_taps_oracle(tap_peak, tap_energy, config)
        if m_first is None:
            m_first = m_init
        elif m_init != m_first:
            m_init = m_first
            rels = refit_window_oracle(ref, tap_energy, config, m_init)
        idx, i15 = enhanced.encode_taps(config, rels, m_init)
        i16.append(idx)
        taps.append(rels)
        abs_taps = [(ref + rel) % n3 for rel in rels]
        coefs.append(np.stack([s[abs_taps].T for s in sub], axis=-1))
    i18, *arrays = quantize(config, np.stack(coefs))
    taps = np.array(taps)
    if len(config.coef_shape) == 4:
        return type2_r18.R18Pmi(i11, i12, i15, tuple(i16), i18,
                                tuple(i110) if n4 > 1 else None,
                                *arrays), taps, np.array(shifts)
    return type2_r16.R16Pmi(i11, i12, i15, tuple(i16), i18, *arrays), taps, None


def fit_oracle(unit, ws):
    """One report's fit: its precoders (T, N4, P, rank), or (T, P, rank)
    for one slot interval, against unit targets (rank, N4, T, P), summed
    over every correlation at once."""
    if ws.ndim == 3:
        ws = ws[:, None]
    corr = np.einsum("lntp,tnpl->tnl", unit.conj(), ws)
    return float((np.abs(corr) ** 2).sum())


def tied_picks(config, scan, caps=None):
    """Every tied group's candidate as ``_search_groups`` picks it: (q,
    i12, beams, beam caps)."""
    g, l, n = config.geom, config.l, config.geom.n1 * config.geom.n2
    energy = channel_sim._group_energy(scan, g)
    if caps is None:
        caps = np.ones((g.beams_h, g.beams_v))
    flat = np.arange(n)
    picks = []
    for q in channel_sim._tied_groups(energy, l):
        beam_cap = caps[g.o1 * (flat % g.n1) + q[0],
                        g.o2 * (flat // g.n1) + q[1]]
        flats = sorted(channel_sim._pick_beams(l, energy[q], beam_cap))
        picks.append((q, encode_combination(flats, n, l),
                      orthogonal_groups(g)[q][:, flats], beam_cap[flats]))
    return picks


def search_groups_oracle(config, scan, targets, finish, reconstruct_all,
                         caps=None):
    """The candidate loop that fits every candidate report through
    ``reconstruct_all``, skipping None and degenerate ones."""
    unit = targets / np.linalg.norm(targets, axis=-1, keepdims=True)
    best, best_fit = None, -1.0
    for pick in tied_picks(config, scan, caps):
        pmi = finish(*pick)
        if pmi is None:
            continue
        try:
            value = fit_oracle(unit, reconstruct_all(config, pmi))
        except DegenerateReportError:
            continue
        if value > best_fit + 1e-12:
            best, best_fit = pmi, value
    return best


def enhanced_oracle(channel, config):
    """The regular Rel-16/Rel-18 search through the reference copies."""
    h = channel.h if isinstance(config, type2_r18.R18Config) else channel.h[:1]
    targets = channel_sim._targets(h, config.rank)
    release = (type2_r18 if isinstance(config, type2_r18.R18Config)
               else type2_r16)
    best = search_groups_oracle(
        config, targets, targets,
        lambda q, i12, beams, _: finish_oracle(
            config, targets, q, i12, beams, quantize_layers_oracle)[0],
        release.reconstruct_all)
    if best is None:
        raise DegenerateReportError("every candidate report is degenerate")
    return best


def subband_targets_oracle(channel, n_sb, rank):
    """Per-subband dominant eigenvectors of H^H H, shape (rank, n_sb, P),
    one eigh per call."""
    edges = np.linspace(0, channel.shape[0], n_sb + 1).astype(int)
    covs = [np.einsum("mrp,mrq->pq", h.conj(), h)
            for h in np.split(channel, edges[1:-1])]
    _, vecs = np.linalg.eigh(np.array(covs))          # (n_sb, P, P)
    return np.ascontiguousarray(vecs[..., ::-1][..., :rank].transpose(2, 0, 1))


def r15_oracle(h, config, caps=None):
    """The regular Rel-15 search through the reference loop, each report
    passed through ``canonicalize``."""
    targets = subband_targets_oracle(h, config.subband_count, config.rank)
    wide = subband_targets_oracle(h, 1, config.rank)

    def finish(q, i12, beams, beam_caps):
        (found,), _ = type2_r15._candidates(config, targets, [q], [i12],
                                            [beams], [beam_caps])
        if found is None:
            return None
        return type2_r15.canonicalize(config, found)

    best = search_groups_oracle(config, wide, targets[:, None], finish,
                                type2_r15.reconstruct_all, caps)
    if best is None:
        raise RestrictionError("no admissible report under the caps")
    return best


def assert_within_budget(config, pmi, release):
    """A report that reconstructs, each layer's K_NZ within the budget
    rule given what the earlier layers report."""
    release.reconstruct_all(config, pmi)
    assert_layer_caps(config, pmi.bitmap)


def assert_layer_caps(config, bitmap):
    """Each layer's K_NZ within ``enhanced.layer_cap`` of what the earlier
    layers left."""
    left = 2 * config.k0
    for layer, k_nz in enumerate(bitmap.reshape(config.rank, -1).sum(axis=1)):
        assert 1 <= k_nz <= enhanced.layer_cap(config, layer, left)
        left -= int(k_nz)


def assert_same_report(found, expected):
    assert type(found) is type(expected)
    for name, value in vars(expected).items():
        got = getattr(found, name)
        if isinstance(value, np.ndarray):
            assert got.dtype == value.dtype, name
            assert np.array_equal(got, value), name
        else:
            assert got == value, name


def outcome(search, *args):
    """A search's report, or the type and message of its error."""
    try:
        return search(*args)
    except CodebookError as exc:
        return type(exc), str(exc)


def assert_same_outcome(found, expected):
    if isinstance(expected, tuple):
        assert found == expected
    else:
        assert_same_report(found, expected)


# ---------------------------------------------------------------------------
# the group scan and the tap map

@pytest.mark.parametrize("n1, n2", list(SUPPORTED_GEOMETRIES))
def test_group_scan_matches_the_broadcast_oracle(n1, n2):
    # one product per group, summed over rows in row order: bit for bit on
    # every geometry, 1 to 400 rows (N1N2 = 2 and 6 are where a single
    # product over all groups rounds differently)
    geom = ArrayGeometry.from_antennas(n1, n2)
    n, p = n1 * n2, geom.n_ports
    rng = np.random.default_rng(n1 * 100 + n2)
    shapes = [(n,), (p,), (1, 1, 3, p), (2, 1, 5, p), (2, 1, 18, p),
              (2, 4, 12, p), (3, 2, 7, p), (4, 1, 50, p)]
    for shape in shapes:
        for _ in range(10):
            targets = (rng.standard_normal(shape)
                       + 1j * rng.standard_normal(shape))
            if rng.random() < 0.3:
                targets[..., rng.integers(shape[-1])] = 0
            found = channel_sim._group_energy(targets, geom)
            expected = group_energy_oracle(targets, geom)
            assert found.shape == expected.shape == (geom.o1, geom.o2, n)
            assert np.array_equal(found, expected)


def screen_cases(geom, rng):
    """Scan rows (rows, N1*N2) for the screened scan: 1 to 601 rows of
    random, planted and zero rows at scales 1e-150 to 1e150."""
    n = geom.n1 * geom.n2
    beams = orthogonal_groups(geom).reshape(-1, n, n).transpose(0, 2, 1)
    for count in (1, 2, 3, 8, 31, 96, 192, 601):
        for scale in (1e-150, 1e-20, 1.0, 1e20, 1e150):
            rows = (rng.standard_normal((count, n))
                    + 1j * rng.standard_normal((count, n)))
            kind = rng.integers(5)
            if kind == 1:
                # on-grid beams: a group captures them exactly
                picks = rng.integers(len(beams) * n, size=count)
                rows = beams.reshape(-1, n)[picks] * rows[:, :1]
            elif kind in (2, 3):
                # single ports: every beam of every group ties; a 1e-10
                # perturbation leaves groups within the tie rule's 1e-9
                ports = np.eye(n)[rng.integers(n, size=count)]
                rows = ports * rows[:, :1] + (kind == 3) * 1e-10 * rows
            elif kind == 4:
                rows[rng.random(count) < 0.5] = 0
            yield rows * scale


@pytest.mark.parametrize("n1, n2", list(SUPPORTED_GEOMETRIES))
def test_contender_scan_matches_the_full_scan(n1, n2):
    # the screen keeps every group the full scan ties, with its energies to
    # the bit, and every screened energy lies within Delta of the exact one
    geom = ArrayGeometry.from_antennas(n1, n2)
    n = n1 * n2
    tables = channel_sim._group_tables(geom)
    rng = np.random.default_rng(n1 * 10 + n2)
    for rows in screen_cases(geom, rng):
        full = channel_sim._group_energy(rows, geom)
        delta = channel_sim._screen_bound(rows, tables)
        screen = channel_sim._screen_energy(rows, tables)
        assert (np.abs(screen - full.reshape(-1)) <= delta).all()
        for l in (2, 3, 4, 6):
            if l > n:
                continue
            energy = channel_sim._contender_energy(rows, geom, l)
            kept = energy[..., 0] != -np.inf
            assert energy[kept].tobytes() == full[kept].tobytes()
            assert (channel_sim._tied_groups(energy, l)
                    == channel_sim._tied_groups(full, l))


def cutoff_rows(geom, l, rng):
    """Rows (2, N1*N2), a beam of one group and t times a beam of another,
    with t bisected to the last bit at which the second group still ties
    the best under ``_tied_groups``; and that group."""
    n = geom.n1 * geom.n2
    beams = orthogonal_groups(geom).reshape(-1, n, n)
    a, b = rng.choice(len(beams), size=2, replace=False)
    base = np.stack([beams[a][:, rng.integers(n)],
                     beams[b][:, rng.integers(n)] * np.exp(2j * rng.random())])
    q = divmod(int(b), geom.o2)

    def tied(t):
        rows = base * [[1.0], [t]]
        energy = channel_sim._group_energy(rows, geom)
        return q in channel_sim._tied_groups(energy, l), rows

    lo, hi = 0.0, 1.0
    if not tied(hi)[0]:
        return None, q
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return tied(hi)[1], q
        lo, hi = (lo, mid) if tied(mid)[0] else (mid, hi)


def test_contender_scan_keeps_a_group_at_the_tie_cutoff():
    # a group whose exact score sits at the tie rule's cutoff, to the last
    # bit, while its screened score may round below it: the band of L Delta
    # around the cutoff keeps it a contender
    rng = np.random.default_rng(5)
    cases = 0
    for n1, n2 in SUPPORTED_GEOMETRIES:
        geom = ArrayGeometry.from_antennas(n1, n2)
        for l in [l for l in (2, 4) if l <= n1 * n2]:
            for _ in range(3):
                rows, q = cutoff_rows(geom, l, rng)
                if rows is None:
                    continue
                cases += 1
                tied = channel_sim._tied_groups(
                    channel_sim._contender_energy(rows, geom, l), l)
                assert q in tied
                assert tied == channel_sim._tied_groups(
                    channel_sim._group_energy(rows, geom), l)
    assert cases >= 40


def test_overflowing_screen_keeps_every_group():
    # rows whose energies overflow: the screen is inf, and every group is
    # scanned exactly, as the full scan does
    geom = ArrayGeometry.from_antennas(4, 2)
    rows = np.full((4, 8), 1e155, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        full = channel_sim._group_energy(rows, geom)
        energy = channel_sim._contender_energy(rows, geom, 2)
    assert energy.tobytes() == full.tobytes()


def tap_map_configs():
    # the wrap of 2Mv = N3 + 1 (paramCombination 6, R = 1, odd N3 > 19),
    # which repeats a tap, and windows of 2Mv < N3
    yield type2_r16.R16Config(param_combination=6, r=1, n3=21, geom=GEOM)
    yield type2_r16.R16Config(param_combination=4, r=1, n3=24, geom=GEOM)
    yield type2_r16.R16Config(param_combination=1, r=2, n3=36, geom=GEOM)
    yield type2_r18.R18Config(geom=GEOM, param_combination=3, r=1, n3=30,
                              n4=4)


@pytest.mark.parametrize("config", list(tap_map_configs()),
                         ids=lambda c: f"n3{c.n3}-mv{c.mv}")
def test_tap_map_keeps_the_first_occurrence_rule(config):
    mv = config.mv
    rng = np.random.default_rng(config.n3)
    repeats = 0
    for i15 in range(2 * mv):              # every M_initial of the window
        m_init = 0 if i15 == 0 else i15 - 2 * mv
        count = config.i16_count
        i16s = (range(count) if count <= 1000
                else rng.integers(count, size=300).tolist())
        for i16 in i16s:
            taps = enhanced.decode_taps(
                config, SimpleNamespace(i15=i15, i16=(i16,)))[0]
            expected = outcome(encode_taps_oracle, config, taps, m_init)
            found = outcome(enhanced.encode_taps, config, taps, m_init)
            if isinstance(expected, tuple):
                # a tap set that repeats a tap: the same error
                repeats += 1
                assert found == expected
                continue
            assert found == (expected, i15)
            assert enhanced.decode_taps(
                config, SimpleNamespace(i15=i15, i16=(expected,)))[0] == taps
    # only the wrap repeats taps
    assert (repeats > 0) == (2 * mv > config.n3)


# ---------------------------------------------------------------------------
# the quantizer

def quantizer_configs():
    for combo, rank in ((1, 1), (2, 2), (4, 2), (5, 3), (6, 4), (8, 2)):
        yield type2_r16.R16Config(param_combination=combo, r=1, n3=13,
                                  rank=rank, geom=GEOM)
    for n4, rank in ((1, 2), (2, 1), (4, 3), (8, 4)):
        yield type2_r18.R18Config(geom=GEOM, param_combination=4, r=1,
                                  n3=12, n4=n4, rank=rank)
    yield type2_r17.R17Config(p_csirs=16, param_combination=6, n3=12,
                              n_threshold=4, rank=2)
    yield type2_r17.R17Config(p_csirs=8, param_combination=2, n3=8, rank=4)


def quantizer_trials(config):
    """Random coefficient grids (rank, K, Mv, Q) for ``config``: some
    sparse, some with exact ties."""
    rng = np.random.default_rng(config.rank)
    shape = config.coef_shape[1:]
    shape = shape if len(shape) == 3 else shape + (1,)
    size = (config.rank,) + shape
    for trial in range(40):
        if trial % 4 == 3:
            # a few magnitudes on the axes: exact ties in the budget
            # trim's order
            axes = np.array([1, 1j, -1, -1j])[rng.integers(4, size=size)]
            yield rng.integers(1, 4, size=size) / 4 * axes
        else:
            mags = np.abs(rng.standard_normal(size))
            mags *= rng.random(size) > trial % 3 / 4
            yield mags * np.exp(2j * np.pi * rng.random(size))


@pytest.mark.parametrize("config", list(quantizer_configs()),
                         ids=lambda c: f"{type(c).__name__}-rank{c.rank}")
def test_quantizer_matches_the_per_layer_oracle(config):
    for coefs in quantizer_trials(config):
        found = outcome(channel_sim._quantize_layers, config, coefs)
        expected = outcome(quantize_layers_oracle, config, coefs)
        if isinstance(expected[0], type):
            # no usable reference, where the oracle raises: such a layer
            # reports its reference alone, as a layer of one unit
            # coefficient at its first slot does
            assert expected == (DomainError, "no usable coefficient at the "
                                "reference tap")
            expected = quantize_layers_oracle(
                config, unit_reference_layers(config, coefs))
        if int(expected[1].sum()) > 2 * config.k0:
            # the oracle's report, which reconstruct_all rejects: the same
            # references, each layer within its cap and keeping a prefix of
            # the oracle's magnitude order, or the oracle's cells and more
            assert found[0] == expected[0]
            assert np.array_equal(found[2], expected[2])
            assert_layer_caps(config, found[1])
            for got, value in zip(found[1], expected[1]):
                assert (got <= value).all() or (value <= got).all()
            continue
        assert found[0] == expected[0]
        for got, value in zip(found[1:], expected[1:]):
            assert got.dtype == value.dtype
            assert np.array_equal(got, value)


def test_quantizer_sweep_reaches_a_zero_reference():
    # the sparse trials leave some layer of some config no usable
    # reference, so the rule above is checked
    assert any(
        not np.array_equal(unit_reference_layers(config, coefs), coefs)
        for config in quantizer_configs()
        for coefs in quantizer_trials(config))


def unit_reference_layers(config, coefs):
    """``coefs`` with each layer whose slots for the strongest coefficient
    are all zero replaced by one unit coefficient at its first slot, beam
    0 at tap 0 and shift 0."""
    slots = np.zeros(coefs.shape[2:], dtype=bool)
    slots[enhanced.strongest_cell(config, 0, slice(None))[1:]] = True
    coefs = coefs.copy()
    for layer in coefs:
        if not np.abs(layer[:, slots]).any():
            layer[...] = 0
            layer[0, 0, 0] = 1
    return coefs


def test_quantizer_trims_the_total_budget():
    # K0 = 12 per layer, 24 in all: a sparse first layer of 5 leaves the
    # third layer 7 of its 16 cells
    config = type2_r16.R16Config(param_combination=5, r=1, n3=8, rank=3,
                                 geom=GEOM)
    assert config.k0 == 12
    rng = np.random.default_rng(3)
    mags = rng.uniform(0.5, 1.0, size=(3, 8, 2, 1))
    mags[0, 5:] = 0.0
    mags[0, :, 1] = 0.0
    coefs = mags * np.exp(2j * np.pi * rng.random(mags.shape))
    _, bitmap, *_ = channel_sim._quantize_layers(config, coefs)
    assert bitmap.reshape(3, -1).sum(axis=1).tolist() == [5, 12, 7]
    assert np.array_equal(bitmap, quantize_layers_oracle(config, coefs)[1])
    # a dense first layer takes K0, and the second keeps one coefficient
    # back for the third layer's reference
    mags[0] = 1.0
    coefs = mags * np.exp(2j * np.pi * rng.random(mags.shape))
    _, bitmap, *_ = channel_sim._quantize_layers(config, coefs)
    assert bitmap.reshape(3, -1).sum(axis=1).tolist() == [12, 11, 1]
    expected = quantize_layers_oracle(config, coefs)[1]
    assert expected.reshape(3, -1).sum(axis=1).tolist() == [12, 12, 1]
    assert np.array_equal(bitmap[0], expected[0])


# ---------------------------------------------------------------------------
# the finish

def finish_configs():
    # Rel-16 with N3 <= 19, with a window of 2Mv < N3 taps (N3 > 19), and
    # with 2Mv >= N3 (paramCombination 6, R = 1)
    for combo, r, n3, ranks in ((2, 2, 9, (1, 2)), (4, 1, 18, (1, 2)),
                                (1, 1, 8, (3,)), (6, 1, 13, (4,)),
                                (4, 1, 24, (1, 2)), (1, 1, 30, (3,)),
                                (3, 1, 36, (4,)), (6, 1, 20, (1,)),
                                (6, 1, 24, (2,)), (6, 1, 36, (3,)),
                                (6, 1, 21, (4,))):
        for rank in ranks:
            yield type2_r16.R16Config(param_combination=combo, r=r, n3=n3,
                                      rank=rank, geom=GEOM)
    for n4, combo, n3, rank in ((1, 2, 12, 1), (1, 6, 24, 3), (2, 4, 12, 2),
                                (2, 1, 8, 4), (4, 2, 12, 1), (4, 5, 24, 3),
                                (8, 7, 12, 2), (8, 3, 12, 4)):
        yield type2_r18.R18Config(geom=GEOM, param_combination=combo, r=1,
                                  n3=n3, n4=n4, rank=rank)


def finish_channels(config, seed):
    """Drawn channels, then frequency-flat ones and ones of planted integer
    taps (and shifts) of equal power, which give exact energy ties."""
    n3, n4 = config.n3, getattr(config, "n4", 1)
    model = channel_sim.ChannelModel(n_paths=6, delay_spread=1e-6,
                                     doppler_max=200.0,
                                     subcarrier_spacing=180e3,
                                     n_subcarriers=n3, seed=seed)
    for trial in range(4):
        yield channel_sim.draw_channel(model, GEOM, 4, trial=trial, n4=n4).h
    rng = np.random.default_rng(seed)
    shape = (4, GEOM.n_ports)
    for _ in range(2):
        a = rng.integers(-2, 3, size=shape) + 1j * rng.integers(-2, 3, size=shape)
        yield np.broadcast_to(a, (n4, n3) + shape).copy()
    t, n = np.arange(n3)[:, None, None], np.arange(n4)[:, None, None, None]
    for shared in (True, False):
        # one antenna vector on every planted tap ties their peaks up to
        # rounding, which the reference tap's 1e-12 rule must settle
        a = rng.choice([1, -1, 1j, -1j], size=shape)
        h = np.zeros((n4, n3) + shape, dtype=complex)
        for tap, shift in rng.integers((n3, n4), size=(3, 2)):
            if not shared:
                a = rng.choice([1, -1, 1j, -1j], size=shape)
            h += np.exp(2j * np.pi * (tap * t / n3 + shift * n / n4)) * a
        yield h


def finish_one(config, targets, q, i12, basis):
    """``channel_sim._finish`` of one candidate: its report, taps and
    shifts."""
    (pmi,), _, taps, shifts = channel_sim._finish(config, targets, [q], [i12],
                                                  [basis])
    return pmi, taps, shifts


def finish_outcome(finish, config, targets, q, i12, basis):
    try:
        return finish(config, targets, q, i12, basis)
    except CodebookError as exc:
        return type(exc), str(exc)


def assert_finish_matches_the_oracle(config):
    """Every tied group's candidate on ``finish_channels``: the same report,
    taps and shifts as the per-layer finish, bit for bit and dtype for
    dtype."""
    count = 0
    for h in finish_channels(config, config.n3 + config.rank):
        targets = channel_sim._targets(h, config.rank)
        for q, i12, basis, _ in tied_picks(config, targets):
            args = (config, targets, q, i12, basis)
            found = finish_outcome(finish_one, *args)
            expected = finish_outcome(finish_oracle, *args)
            count += 1
            if isinstance(expected[0], type):
                assert found == expected
                continue
            assert_same_report(found[0], expected[0])
            for got, value in zip(found[1:], expected[1:]):
                if value is None:
                    assert got is None
                else:
                    assert got.dtype == value.dtype
                    assert np.array_equal(got, value)
    assert count >= 8


@pytest.mark.parametrize("config", list(finish_configs()),
                         ids=lambda c: f"{type(c).__name__}-n3{c.n3}"
                         f"-n4{getattr(c, 'n4', 1)}-rank{c.rank}")
def test_finish_matches_the_per_layer_oracle(config):
    assert_finish_matches_the_oracle(config)


def pick_layers_oracle(rel_energy, config):
    """The per-layer finish's taps and M_initial for tap energies
    (rank, N3) already taken relative to each layer's reference tap."""
    peak = np.eye(config.n3)[0]           # the reference at tap 0
    taps, m_first = [], None
    for energy in rel_energy:
        ref, rels, m_init = pick_taps_oracle(peak, energy, config)
        if m_first is None:
            m_first = m_init
        elif m_init != m_first:
            m_init = m_first
            rels = refit_window_oracle(ref, energy, config, m_init)
        taps.append(rels)
    return np.array(taps), m_first


@pytest.mark.parametrize("config", [
    type2_r16.R16Config(param_combination=combo, r=1, n3=n3, rank=rank,
                        geom=GEOM)
    for combo, n3, rank in ((4, 18, 2), (6, 13, 4), (4, 24, 2), (1, 30, 3),
                            (3, 36, 4), (6, 21, 4), (6, 20, 2))],
    ids=lambda c: f"pc{c.param_combination}-n3{c.n3}-rank{c.rank}")
def test_pick_taps_keeps_every_tie_rule(config):
    # energies of 0, 1 or 2 on every tap: exact ties in the argsort, the
    # greedy window order and the refit's M_initial tie key
    rng = np.random.default_rng(config.n3)
    for _ in range(300):
        rel_energy = rng.integers(0, 3, size=(config.rank, config.n3)) * 1.0
        taps, (m_init,) = channel_sim._pick_taps(rel_energy, config)
        expected, m_first = pick_layers_oracle(rel_energy, config)
        assert m_init == m_first
        assert taps.dtype == expected.dtype
        assert np.array_equal(taps, expected)


def test_finish_sweep_reaches_every_tap_rule(monkeypatch):
    # the sweep covers both tap rules and a window of 2Mv >= N3, and its
    # window configs refit some later layer into layer 0's window
    calls = []

    def counting(*args):
        calls.append(args)
        return refit(*args)

    refit = refit_window_oracle
    monkeypatch.setattr(sys.modules[__name__], "refit_window_oracle", counting)
    configs = list(finish_configs())
    kinds = {(c.window_mode, 2 * c.mv >= c.n3) for c in configs}
    assert kinds >= {(False, False), (True, False), (True, True)}
    for config in configs:
        if config.window_mode and 2 * config.mv < config.n3 and config.rank > 1:
            assert_finish_matches_the_oracle(config)
    assert calls


# ---------------------------------------------------------------------------
# the candidate axis

def test_fits_match_the_one_report_oracle():
    # the fits of C candidates in one einsum and one row-wise sum equal
    # each report's fit summed at once, bit for bit
    rng = np.random.default_rng(22)
    for _ in range(300):
        rank, t = rng.integers(1, 5), rng.integers(1, 37)
        n4 = rng.choice([1, 2, 4])
        p, count = rng.choice([4, 8, 16, 32]), rng.integers(1, 6)
        targets = (rng.standard_normal((rank, n4, t, p))
                   + 1j * rng.standard_normal((rank, n4, t, p)))
        unit = targets / np.linalg.norm(targets, axis=-1, keepdims=True)
        shape = (count, t, n4, p, rank)
        ws = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if n4 == 1 and rng.random() < 0.5:
            ws = ws[:, :, 0]
        fits = channel_sim._fits(unit, ws)
        assert fits.dtype == np.float64
        assert fits.tolist() == [fit_oracle(unit, w) for w in ws]


def candidate_batch(config, targets, picks, fit_targets):
    """The candidates ``picks`` finished in one call: per candidate its
    report, taps and shifts (None for Rel-15), whether it was dropped
    (degenerate, or no admissible reference under Rel-15's caps) and its
    fit to ``fit_targets`` (None where dropped)."""
    i11s, i12s, bases, beam_caps = map(list, zip(*picks))
    rank, count = config.rank, len(picks)
    if isinstance(config, type2_r15.T2R15Config):
        reports, precoders = type2_r15._candidates(
            config, targets, i11s, i12s, bases, beam_caps)
        finished, taps, shifts = reports, [None] * count, [None] * count
    else:
        finished, layers, all_taps, all_shifts = channel_sim._finish(
            config, targets, i11s, i12s, bases)
        reports, precoders = channel_sim._candidates(
            config, bases, finished, layers, all_taps, all_shifts)
        parts = [slice(t * rank, (t + 1) * rank) for t in range(count)]
        taps = [all_taps[part] for part in parts]
        shifts = [None if all_shifts is None else all_shifts[part]
                  for part in parts]
    kept = [t for t, pmi in enumerate(reports) if pmi is not None]
    unit = fit_targets / np.linalg.norm(fit_targets, axis=-1, keepdims=True)
    fits = dict(zip(kept, channel_sim._fits(unit, precoders(kept))
                    if kept else ()))
    return [(finished[t], taps[t], shifts[t], reports[t] is None,
             fits.get(t)) for t in range(count)]


def assert_batch_matches_one_at_a_time(config, targets, picks,
                                       fit_targets=None):
    """``candidate_batch`` of all ``picks`` equals it run on each pick
    alone, bit for bit and dtype for dtype."""
    fit_targets = targets if fit_targets is None else fit_targets
    batch = candidate_batch(config, targets, picks, fit_targets)
    for pick, found in zip(picks, batch):
        expected, = candidate_batch(config, targets, [pick], fit_targets)
        if expected[0] is None:
            assert found[0] is None
        else:
            assert_same_report(found[0], expected[0])
        for got, value in zip(found[1:], expected[1:]):
            if isinstance(value, np.ndarray):
                assert got.dtype == value.dtype
                assert np.array_equal(got, value)
            else:
                assert got == value
    return batch


@pytest.mark.parametrize("config", list(finish_configs()),
                         ids=lambda c: f"{type(c).__name__}-n3{c.n3}"
                         f"-n4{getattr(c, 'n4', 1)}-rank{c.rank}")
def test_candidate_axis_matches_one_candidate_at_a_time(config):
    for h in finish_channels(config, config.n3 + config.rank):
        targets = channel_sim._targets(h, config.rank)
        assert_batch_matches_one_at_a_time(config, targets,
                                           tied_picks(config, targets))


def test_finish_channels_tie_groups():
    # the sweep above batches more than one candidate in most configs
    tied = [config for config in finish_configs()
            if any(len(tied_picks(config, channel_sim._targets(
                h, config.rank))) > 1
                for h in finish_channels(config, config.n3 + config.rank))]
    assert len(tied) > len(list(finish_configs())) / 2


def link_t2_ties():
    """The link-t2 pool's searches (seed 7) that tie four groups: config,
    targets and fit targets."""
    model = channel_sim.ChannelModel(seed=7, **LINK_MODEL)
    r15 = type2_r15.T2R15Config(l=4, n_psk=8, rank=2, subband_count=4,
                                geom=GEOM)
    window = type2_r16.R16Config(param_combination=4, r=1, n3=24, rank=2,
                                 geom=GEOM)
    for trial in range(192):
        h = channel_sim.draw_channel(model, GEOM, 2, trial=trial, n4=4).h
        targets, wide = type2_r15._subband_targets(h[0], 4, r15.rank)
        yield r15, targets, wide, targets[:, None]
        for config in (LINK_R16, window, LINK_R18):
            n4 = getattr(config, "n4", 1)
            scan = channel_sim._targets(h[:n4, :config.n3], config.rank)
            yield config, scan, scan, scan


def test_candidate_axis_matches_on_the_link_t2_ties():
    counts = {}
    for config, targets, scan, fit_targets in link_t2_ties():
        picks = tied_picks(config, scan)
        if len(picks) == 4:
            assert_batch_matches_one_at_a_time(config, targets, picks,
                                               fit_targets)
            name = (type(config).__name__, getattr(config, "n3", None))
            counts[name] = counts.get(name, 0) + 1
    # R15, R16, R16 window mode and R18 ties of the pool
    assert counts == {("T2R15Config", None): 16, ("R16Config", 18): 18,
                      ("R16Config", 24): 19, ("R18Config", 12): 31}


def test_candidate_axis_skips_a_degenerate_first_candidate():
    # beams (0, 5) of group (1, 2) finish into a report whose taps cancel
    # at one frequency unit (test_channel_sim's tied degenerate candidate);
    # batched ahead of group (1, 1), it is flagged and fitted by no one
    cfg = type2_r16.R16Config(param_combination=1, r=1, n3=12, geom=GEOM)
    model = channel_sim.ChannelModel(n_paths=6, delay_spread=1e-6,
                                     subcarrier_spacing=180e3,
                                     n_subcarriers=12, seed=5)
    h = channel_sim.draw_channel(model, GEOM, 2, trial=5).h
    targets = channel_sim._targets(h, cfg.rank)
    best, = [pick for pick in tied_picks(cfg, targets) if pick[0] == (1, 1)]
    flats = [0, 5]
    degenerate = ((1, 2), encode_combination(flats, 8, 2),
                  orthogonal_groups(GEOM)[1, 2][:, flats], np.ones(2))
    batch = assert_batch_matches_one_at_a_time(cfg, targets,
                                               [degenerate, best])
    assert [c[3] for c in batch] == [True, False]
    assert batch[0][4] is None and batch[1][4] is not None


# ---------------------------------------------------------------------------
# the searches

def r15_cases():
    rng = np.random.default_rng(15)
    caps = rng.choice([0.0, 0.5, 2 ** -0.5, 1.0], p=[0.2, 0.2, 0.2, 0.4],
                      size=(GEOM.beams_h, GEOM.beams_v))
    for l, n_psk, rank, sb, amp in ((2, 4, 1, 1, True), (3, 8, 2, 4, False),
                                    (4, 8, 2, 4, True), (4, 4, 1, 2, True)):
        config = type2_r15.T2R15Config(l=l, n_psk=n_psk, rank=rank,
                                       subband_count=sb, subband_amplitude=amp,
                                       geom=GEOM)
        for with_caps in (False, True):
            yield pytest.param(config, caps if with_caps else None,
                               id=f"l{l}-rank{rank}-sb{sb}"
                               + ("-caps" if with_caps else ""))


@pytest.mark.parametrize("config, caps", list(r15_cases()))
def test_r15_search_matches_the_reconstruct_all_oracle(config, caps):
    model = channel_sim.ChannelModel(n_paths=5, n_subcarriers=8, seed=15)
    for trial in range(6):
        h = channel_sim.draw_channel(model, GEOM, 2, trial=trial).flat
        assert_same_outcome(outcome(type2_r15.search_t2_r15, h, config, caps),
                            outcome(r15_oracle, h, config, caps))


def enhanced_cases():
    for combo, r, n3, ranks in ((1, 1, 8, (1, 3)), (2, 2, 9, (2,)),
                                (4, 1, 18, (1, 2, 3)), (6, 1, 24, (1, 2, 4)),
                                (5, 1, 30, (3,)), (6, 1, 8, (4,)),
                                (8, 1, 36, (1, 2))):
        for rank in ranks:
            yield type2_r16.R16Config(param_combination=combo, r=r, n3=n3,
                                      rank=rank, geom=GEOM)
    for n4, combo, ranks in ((1, 2, (1, 2)), (2, 4, (1, 3)), (4, 2, (2,)),
                             (8, 7, (1, 4))):
        for rank in ranks:
            yield type2_r18.R18Config(geom=GEOM, param_combination=combo,
                                      r=1, n3=12, n4=n4, rank=rank)


def enhanced_search(channel, config):
    if isinstance(config, type2_r18.R18Config):
        return channel_sim.search_r18(channel, config)
    return channel_sim.search_r16(channel_sim.ChannelRealization(
        h=channel.h[:1]), config)


@pytest.mark.parametrize("config", list(enhanced_cases()),
                         ids=lambda c: f"{type(c).__name__}-rank{c.rank}")
def test_enhanced_search_matches_the_reconstruct_all_oracle(config):
    # few, short paths: sparse grids that leave ranks 3-4 within budget
    n4 = getattr(config, "n4", 1)
    model = channel_sim.ChannelModel(n_paths=3, delay_spread=1e-7,
                                     doppler_max=200.0,
                                     subcarrier_spacing=180e3,
                                     n_subcarriers=config.n3, seed=config.n3)
    for trial in range(6):
        ch = channel_sim.draw_channel(model, GEOM, 4, trial=trial, n4=n4)
        found = outcome(enhanced_search, ch, config)
        expected = outcome(enhanced_oracle, ch, config)
        if isinstance(expected, tuple) and expected[0] is BudgetError:
            # the oracle overran 2*K0: the search stays within the budget
            assert_within_budget(config, found, RELEASES[type(config)])
            continue
        assert_same_outcome(found, expected)


LINK_R16 = type2_r16.R16Config(param_combination=4, r=1, n3=18, rank=2,
                               geom=GEOM)
LINK_R18 = type2_r18.R18Config(geom=GEOM, param_combination=2, r=1, n3=12,
                               n4=4, rank=2)


@pytest.mark.parametrize("config, trial", [(LINK_R16, 11), (LINK_R18, 4)],
                         ids=["r16", "r18"])
def test_four_way_tie_matches_the_oracle(config, trial):
    model = channel_sim.ChannelModel(seed=7, **LINK_MODEL)
    ch = channel_sim.draw_channel(model, GEOM, 2, trial=trial, n4=4)
    ch = channel_sim.ChannelRealization(
        h=ch.h[:getattr(config, "n4", 1), :config.n3])
    targets = channel_sim._targets(ch.h, config.rank)
    energy = channel_sim._group_energy(targets, GEOM)
    assert len(channel_sim._tied_groups(energy, config.l)) == 4
    assert_same_report(enhanced_search(ch, config),
                       enhanced_oracle(ch, config))


RELEASES = {type2_r15.T2R15Config: type2_r15, type2_r16.R16Config: type2_r16,
            type2_r18.R18Config: type2_r18}


def test_fit_from_parts_is_reconstruct_all(monkeypatch):
    # every candidate's precoders, from the search's own basis, taps and
    # shifts, equal its report's reconstruct_all bit for bit
    seen = []
    choose = channel_sim._choose

    def checking(reports, precoders, targets):
        # ``config`` is the configuration of the search under way
        kept = [t for t, pmi in enumerate(reports) if pmi is not None]
        for t, ws in zip(kept, precoders(kept) if kept else ()):
            release = RELEASES[type(config)]
            assert np.array_equal(ws, release.reconstruct_all(
                config, reports[t]))
            seen.append(reports[t])
        return choose(reports, precoders, targets)

    monkeypatch.setattr(channel_sim, "_choose", checking)
    model = channel_sim.ChannelModel(seed=7, **LINK_MODEL)
    r15 = type2_r15.T2R15Config(l=4, n_psk=8, rank=2, subband_count=4,
                                geom=GEOM)
    ps = type2_r16.R16Config(param_combination=2, r=1, n3=8, rank=1,
                             p_csirs=16, d=1)
    window = type2_r16.R16Config(param_combination=4, r=1, n3=24, rank=2,
                                 geom=GEOM)
    for trial in (4, 11, 12):
        ch = channel_sim.draw_channel(model, GEOM, 2, trial=trial, n4=4)
        for config in (LINK_R16, window, LINK_R18, ps):
            n4 = getattr(config, "n4", 1)
            enhanced_search(channel_sim.ChannelRealization(
                h=ch.h[:n4, :config.n3]), config)
        config = r15
        type2_r15.search_t2_r15(ch.h[0], r15)
    # the four-way ties of trials 4 and 11 give more than one per search
    assert len(seen) > 3 * 5


def searched_reports():
    model = channel_sim.ChannelModel(seed=3, **LINK_MODEL)
    r17 = type2_r17.R17Config(p_csirs=16, param_combination=6, n3=12,
                              n_threshold=4, rank=2)
    r16_ps = type2_r16.R16Config(param_combination=2, r=1, n3=8, rank=2,
                                 p_csirs=16, d=2)
    r15_ps = type2_r15.T2R15Config(l=2, rank=2, subband_count=2,
                                   p_csirs=16, d=1)
    for trial in range(12):
        ch = channel_sim.draw_channel(model, GEOM, 2, trial=trial, n4=4)
        one = channel_sim.ChannelRealization(h=ch.h[:1])
        for config in (type2_r15.T2R15Config(l=4, rank=2, subband_count=4,
                                             geom=GEOM), r15_ps):
            yield type2_r15, config, type2_r15.search_t2_r15(ch.h[0], config)
        for config in (LINK_R16, r16_ps, type2_r16.R16Config(
                param_combination=6, r=1, n3=24, rank=2, geom=GEOM)):
            yield type2_r16, config, channel_sim.search_r16(
                channel_sim.ChannelRealization(h=one.h[:, :config.n3]), config)
        yield type2_r17, r17, channel_sim.search_r17(
            channel_sim.ChannelRealization(h=one.h[:, :12]), r17)
        yield type2_r18, LINK_R18, channel_sim.search_r18(
            channel_sim.ChannelRealization(h=ch.h[:, :12]), LINK_R18)


def test_every_searched_report_passes_validation():
    # the fits no longer validate the candidates: each returned report
    # must pass its release's checks and reconstruct
    count = 0
    for release, config, pmi in searched_reports():
        if release is type2_r15:
            release.validate(config, pmi)
            assert_same_report(type2_r15.canonicalize(config, pmi), pmi)
        else:
            release.validate_budget(config, pmi)
        release.reconstruct_all(config, pmi)
        count += 1
    assert count == 12 * 7


def high_rank_configs():
    for combo in (1, 3, 5, 6):
        for n3 in (8, 24):
            for rank in (3, 4):
                yield type2_r16.R16Config(param_combination=combo, r=1,
                                          n3=n3, rank=rank, geom=GEOM)
                yield type2_r18.R18Config(geom=GEOM, param_combination=combo,
                                          r=1, n3=n3, n4=4, rank=rank)


@pytest.mark.parametrize("config", list(high_rank_configs()),
                         ids=lambda c: f"{type(c).__name__}-pc"
                         f"{c.param_combination}-n3{c.n3}-rank{c.rank}")
def test_high_rank_searches_report_within_the_budget(config):
    # ranks 3-4 on rich and on single-path channels: every layer keeps
    # back one coefficient for each later layer's strongest one, so the
    # searches report where the 2*K0 budget used to overrun
    n4 = getattr(config, "n4", 1)
    for n_paths in (1, 6):
        model = channel_sim.ChannelModel(
            n_paths=n_paths, delay_spread=1e-6, doppler_max=300.0,
            subcarrier_spacing=180e3, n_subcarriers=config.n3, seed=n_paths)
        for trial in range(3):
            ch = channel_sim.draw_channel(model, GEOM, 4, trial=trial, n4=n4)
            assert_within_budget(config, enhanced_search(ch, config),
                                 RELEASES[type(config)])
