"""Random downlink network realizations and their graph representation.

A scenario is one frozen snapshot: base stations on a hexagonal grid,
UEs dropped uniformly, distances, per-PRB and wideband SINR, RSRP, and
per-UE-per-cell PRB demand. The graph view connects UEs that share at
least one cell where both clear an SINR threshold, with node features
built from the PRB, distance, and SINR rows. `build_graph` of a list of
scenarios builds their graphs at once, as one `GraphInstance` stacked on
a leading instance axis, and `normalize_features` z-scores such a stack in
one call; each stacked graph has the bits of its own build.

Scenarios are drawn a chunk of seeds at a time (`generate_scenarios`,
`iter_scenarios`). Each seed keeps its own random stream, so a scenario's
bits do not depend on the chunk it was drawn in; `generate_scenario` is a
chunk of one. The chunk size is a memory bound, not a knob: a chunk holds
at most `CHUNK_CUBE_BYTES` of per-PRB SINR, and its temporaries scale
with that.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .codec import encode_array
from .errors import ConfigError, ContractError

SPEED_OF_LIGHT = 299792458.0
SUBCARRIERS_PER_PRB = 12
THERMAL_NOISE_DBM_HZ = -174.0
SPECTRAL_EFFICIENCY_CAP = 7.4  # bit/s/Hz, keeps demand finite at huge SINR
# Per-PRB SINR bytes in one `generate_scenarios` chunk at the most (see
# `chunk_size`); the chunk's other cube-sized temporaries scale with it
CHUNK_CUBE_BYTES = 1 << 20
MIN_STD = 1e-12  # `feature_stats` divides a column spread less by 1.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs for one family of random network realizations."""

    n_cells: int = 7
    inter_site_distance: float = 1000.0   # m
    region: tuple = (3000.0, 3000.0)      # m x m, BS grid centered inside
    n_ues: int = 50
    bandwidth_mhz: float = 20.0
    subcarrier_spacing_khz: float = 30.0
    guard_khz: float = 800.0              # per carrier edge
    carrier_ghz: float = 3.5
    n_tx_antennas: int = 4
    h_tx_m: float = 25.0
    h_ue_m: float = 1.5
    tx_power_dbm: float = 30.0            # per PRB
    noise_figure_db: float = 7.0
    pathloss_exponent: float = 3.0
    shadowing_sigma_db: float = 6.0
    reuse_factor: float = 1.0 / 3.0
    gamma_th_db: float = 0.0
    ue_demand_mbps: float = 5.0

    def __post_init__(self):
        if self.n_cells < 1:
            raise ConfigError(f"n_cells must be >= 1, got {self.n_cells}")
        if self.n_ues < 1:
            raise ConfigError(f"n_ues must be >= 1, got {self.n_ues}")
        if self.n_tx_antennas < 1:
            raise ConfigError(f"n_tx_antennas must be >= 1, got {self.n_tx_antennas}")
        if self.bandwidth_mhz <= 0:
            raise ConfigError(f"bandwidth_mhz must be > 0, got {self.bandwidth_mhz}")
        if self.subcarrier_spacing_khz <= 0:
            raise ConfigError("subcarrier_spacing_khz must be > 0")
        if self.carrier_ghz <= 0:
            raise ConfigError(f"carrier_ghz must be > 0, got {self.carrier_ghz}")
        if not 0.0 < self.reuse_factor <= 1.0:
            raise ConfigError(f"reuse_factor must be in (0, 1], got {self.reuse_factor}")
        if len(self.region) != 2 or min(self.region) <= 0:
            raise ConfigError(f"region must be two positive extents, got {self.region}")
        if self.inter_site_distance <= 0:
            raise ConfigError("inter_site_distance must be > 0")
        if self.h_tx_m <= 0 or self.h_ue_m <= 0 or self.h_tx_m == self.h_ue_m:
            raise ConfigError("h_tx_m and h_ue_m must be positive and distinct")
        if self.shadowing_sigma_db < 0:  # numpy's normal(0, sigma) refuses it too
            raise ConfigError(f"shadowing_sigma_db must be >= 0, got {self.shadowing_sigma_db}")
        if self.ue_demand_mbps <= 0:
            raise ConfigError(f"ue_demand_mbps must be > 0, got {self.ue_demand_mbps}")
        if self.pathloss_exponent <= 0:  # the signal would grow with distance
            raise ConfigError(f"pathloss_exponent must be > 0, got {self.pathloss_exponent}")
        if self.guard_khz < 0:  # the usable band would outgrow the carrier
            raise ConfigError(f"guard_khz must be >= 0, got {self.guard_khz}")
        try:
            noise_mw = self.noise_mw
        except OverflowError:
            noise_mw = math.inf
        if not 0.0 < noise_mw < math.inf:
            raise ConfigError(
                f"noise_figure_db {self.noise_figure_db} gives a per-PRB noise "
                f"power a float cannot hold"
            )
        if self.n_prb_total < 1:
            raise ConfigError(
                f"bandwidth_mhz {self.bandwidth_mhz} leaves no usable PRB "
                f"after twice guard_khz {self.guard_khz}"
            )

    @property
    def prb_bandwidth_hz(self) -> float:
        return SUBCARRIERS_PER_PRB * self.subcarrier_spacing_khz * 1e3

    @property
    def n_prb_total(self) -> int:
        usable_hz = self.bandwidth_mhz * 1e6 - 2.0 * self.guard_khz * 1e3
        return int(usable_hz // self.prb_bandwidth_hz)

    @property
    def n_reuse_groups(self) -> int:
        return math.ceil(1.0 / self.reuse_factor - 1e-9)

    @property
    def noise_mw(self) -> float:
        return 10.0 ** (noise_power_dbm(self) / 10.0)


@dataclass(frozen=True)
class Scenario:
    """One realized network: geometry, channel quality, PRB demand."""

    seed: int
    bs_positions: np.ndarray       # (N, 2) m
    ue_positions: np.ndarray       # (K, 2) m
    distance: np.ndarray           # (K, N) m, 3-D including antenna heights
    sinr_wideband_db: np.ndarray   # (K, N)
    # (K, N, n_prb_total) linear ratio; None in a scenario read back by
    # `from_record`, since records do not store it. `eval` scores the
    # scenario `generate_scenario` draws from the record's seed instead
    sinr_per_prb: np.ndarray | None
    rsrp_dbm: np.ndarray           # (K, N)
    prb_demand: np.ndarray         # (K, N) int, in [1, n_prb_total]
    n_prb_total: int

    @property
    def n_ues(self) -> int:
        return self.ue_positions.shape[0]

    @property
    def n_cells(self) -> int:
        return self.bs_positions.shape[0]


def _one_carrier(items) -> int:
    """The PRB count all items (scenarios or graphs) share, to be stacked."""
    carriers = {x.n_prb_total for x in items}
    if len(carriers) != 1:
        raise ContractError(f"stacked graphs need one carrier, got {sorted(carriers)}")
    return carriers.pop()


@dataclass(frozen=True)
class GraphInstance:
    """UE graph over one scenario: features, adjacency, PRB demand.

    A stacked instance holds the graphs of B scenarios of one size and
    carrier, each array with a leading instance axis of length B (`stack`,
    `build_graph` of a list). Indexing a stacked instance on that axis,
    `g[i]` or `g[rows]`, gives one instance or a stack of those rows.
    """

    features: np.ndarray     # (..., K, 3N)
    adjacency: np.ndarray    # (..., K, K) bool, symmetric, unit diagonal
    prb_matrix: np.ndarray   # (..., K, N) float copy of the demand
    n_prb_total: int

    def __post_init__(self):
        # the mask each attention round softmaxes over, checked once per graph
        adj = self.adjacency
        wanted = (*self.features.shape[:-1], self.features.shape[-2])
        if getattr(adj, "dtype", None) != bool or adj.shape != wanted:
            raise ContractError(
                f"adjacency must be a {wanted} bool mask, got "
                f"{np.asarray(adj).dtype} {np.shape(adj)}"
            )
        if not adj.any(axis=-1).all():
            raise ContractError("adjacency has a row with no neighbour")

    @classmethod
    def stack(cls, graphs):
        """The graphs, of one size and carrier, as one stacked instance."""
        return cls(
            *(np.stack([getattr(g, name) for g in graphs])
              for name in ("features", "adjacency", "prb_matrix")),
            _one_carrier(graphs),
        )

    def __getitem__(self, index):
        return GraphInstance(
            self.features[index], self.adjacency[index], self.prb_matrix[index],
            self.n_prb_total,
        )


def hex_layout(n_cells: int, inter_site_distance: float, region) -> np.ndarray:
    """The n_cells grid points nearest the region center, spaced one
    inter-site distance apart on a hexagonal lattice.

    Sites fill outward ring by ring in angle order, so the layout is
    deterministic and compact for any cell count. Each layout is built
    once per (n_cells, inter_site_distance, region); every call returns
    a fresh copy of it.
    """
    return _hex_layout(n_cells, inter_site_distance, tuple(region)).copy()


@functools.lru_cache(maxsize=16)
def _hex_layout(n_cells: int, inter_site_distance: float, region: tuple) -> np.ndarray:
    width, height = float(region[0]), float(region[1])
    max_ring = int(math.ceil(math.sqrt(n_cells))) + 2
    pts = []
    for q in range(-max_ring, max_ring + 1):
        for r in range(-max_ring, max_ring + 1):
            if max(abs(q), abs(r), abs(q + r)) > max_ring:
                continue
            x = inter_site_distance * (q + 0.5 * r)
            y = inter_site_distance * (math.sqrt(3.0) / 2.0) * r
            dist = math.hypot(x, y)
            angle = math.atan2(y, x) % (2.0 * math.pi)
            pts.append((round(dist, 6), round(angle, 9), x, y))
    pts.sort()
    chosen = np.array([(x, y) for _, _, x, y in pts[:n_cells]])
    chosen += np.array([width / 2.0, height / 2.0])
    if (
        chosen[:, 0].min() < 0.0
        or chosen[:, 0].max() > width
        or chosen[:, 1].min() < 0.0
        or chosen[:, 1].max() > height
    ):
        raise ConfigError(
            f"region {region} cannot hold {n_cells} sites at "
            f"inter-site distance {inter_site_distance}"
        )
    return chosen


def free_space_reference_db(carrier_ghz: float) -> float:
    """Path loss of the first meter at the carrier frequency."""
    f_hz = carrier_ghz * 1e9
    return 20.0 * math.log10(4.0 * math.pi * f_hz / SPEED_OF_LIGHT)


def noise_power_dbm(cfg: ScenarioConfig) -> float:
    """Thermal noise plus receiver noise figure over one PRB."""
    return (
        THERMAL_NOISE_DBM_HZ
        + 10.0 * math.log10(cfg.prb_bandwidth_hz)
        + cfg.noise_figure_db
    )


def chunk_size(cfg: ScenarioConfig) -> int:
    """Seeds per `generate_scenarios` call: as many as keep the chunk's
    per-PRB cube within `CHUNK_CUBE_BYTES`, and at least one."""
    cube_bytes = cfg.n_ues * cfg.n_cells * cfg.n_prb_total * 8
    return max(1, CHUNK_CUBE_BYTES // cube_bytes)


def iter_scenarios(cfg: ScenarioConfig, seeds):
    """The scenarios of the seeds, in order, drawn `chunk_size(cfg)` seeds
    per `generate_scenarios` call."""
    seeds = list(seeds)
    step = chunk_size(cfg)
    for start in range(0, len(seeds), step):
        yield from generate_scenarios(cfg, seeds[start:start + step])


def generate_scenario(cfg: ScenarioConfig, seed: int) -> Scenario:
    """Draw one network realization, fully determined by (cfg, seed).

    `shadowing_sigma_db` 0 silences shadowing without changing how many
    random numbers are drawn, so a scenario stays comparable to its
    shadowed twin at the same seed.
    """
    return generate_scenarios(cfg, [seed])[0]


# a link budget out of a float's range is reported by the finite check,
# as a ConfigError, not as numpy warnings before it
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def generate_scenarios(cfg: ScenarioConfig, seeds) -> list[Scenario]:
    """`generate_scenario` of each seed, computed as one chunk.

    Each seed draws from its own `default_rng(seed)`, straight into its
    slices of the chunk's arrays: UE positions, then shadowing, then
    per-PRB fading, as standard variates. The chunk is then scaled once,
    with the arithmetic numpy's `uniform(0, region)`, `normal(0, sigma)`
    and `exponential(1)` apply to the same variates, so the bits are
    theirs. The channel math after the draws runs once over arrays with
    the seeds on a leading axis, every operation elementwise or within
    one seed, so each scenario's bits are those of a chunk of one. Each
    scenario gets its own copy of the base-station positions; its other
    arrays are views of the chunk's, disjoint from the other scenarios'.
    The received powers and SINR are laid out cell-major, so
    `sinr_per_prb` is a strided (K, N, T) view.

    The interference at a serving cell sums only its co-channel cells'
    received power: its first partner's, then each other partner's, in
    ascending cell order. Float addition does not associate, so that order
    is part of the output: at reuse 1 all N - 1 other cells add non-zero
    terms, and any other order changes the last bits of the SINR, which
    datasets store and `eval` regenerates and compares byte for byte. It
    is the order a dense (N, N) 0/1 contraction accumulates in, so the
    bits are also those of datasets drawn with one.

    A chunk whose wideband SINR or RSRP is not finite (a link budget out
    of a float's range) raises ConfigError naming its first such seed.
    """
    seeds = list(seeds)
    b, k, n, t = len(seeds), cfg.n_ues, cfg.n_cells, cfg.n_prb_total
    ue = np.empty((b, k, 2))
    shadow_db = np.empty((b, k, n))
    fade_gain = np.empty((b, k, n, t))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        rng.random(out=ue[i])
        rng.standard_normal(out=shadow_db[i])
        rng.standard_exponential(out=fade_gain[i])
    # numpy's `low + (high - low) * u` and `loc + scale * z`, with low and
    # loc 0: the `+= 0.0` turns the -0.0 of a zero sigma into numpy's 0.0
    # (the outputs only subtract the shadowing, where the two signs agree)
    ue *= np.asarray(cfg.region, dtype=np.float64)
    shadow_db *= cfg.shadowing_sigma_db
    shadow_db += 0.0

    bs = hex_layout(cfg.n_cells, cfg.inter_site_distance, cfg.region)
    dist = _distance(ue, bs, cfg)

    pl0 = free_space_reference_db(cfg.carrier_ghz)
    pathloss_db = pl0 + 10.0 * cfg.pathloss_exponent * np.log10(dist)
    array_gain_db = 10.0 * math.log10(cfg.n_tx_antennas)
    rx_mean_dbm = cfg.tx_power_dbm + array_gain_db - pathloss_db - shadow_db
    # received powers cell-major, (N, B*K*T): each cell's powers are one
    # contiguous row, so the interference sums run over whole rows
    rx_mw = np.empty((n, b * k * t))
    np.multiply(
        (10.0 ** (rx_mean_dbm / 10.0)).transpose(2, 0, 1)[..., None],
        fade_gain.transpose(2, 0, 1, 3),
        out=rx_mw.reshape(n, b, k, t),
    )
    # the spent fading buffer takes interference plus noise, and the
    # received powers become the SINR in place
    denominator = fade_gain.reshape(n, b * k * t)
    _co_channel_sum(rx_mw, cfg.n_reuse_groups, denominator)
    denominator += cfg.noise_mw
    np.divide(rx_mw, denominator, out=rx_mw)
    sinr = rx_mw.reshape(n, b, k, t).transpose(1, 2, 0, 3)  # (B, K, N, T) view
    # C order like the other (B, K, N) arrays: the mean of the view is
    # strided, and a later sum over a strided axis could run in another order
    sinr_wideband_db = 10.0 * np.log10(np.ascontiguousarray(sinr.mean(axis=3)))
    rsrp_dbm = cfg.tx_power_dbm - pathloss_db - shadow_db
    finite = np.isfinite(sinr_wideband_db).all(axis=(1, 2)) & np.isfinite(rsrp_dbm).all(
        axis=(1, 2)
    )
    if not finite.all():
        raise ConfigError(
            f"seed {seeds[int(np.argmin(finite))]} draws a non-finite wideband "
            f"SINR or RSRP: the link budget (scenario keys tx_power_dbm, "
            f"n_tx_antennas, carrier_ghz, pathloss_exponent, shadowing_sigma_db, "
            f"noise_figure_db) leaves a float's range"
        )
    prb_demand = _prb_demand(sinr_wideband_db, cfg.ue_demand_mbps, cfg, t)

    return [
        Scenario(
            seed=seed,
            bs_positions=bs.copy(),
            ue_positions=ue[i],
            distance=dist[i],
            sinr_wideband_db=sinr_wideband_db[i],
            sinr_per_prb=sinr[i],
            rsrp_dbm=rsrp_dbm[i],
            prb_demand=prb_demand[i],
            n_prb_total=t,
        )
        for i, seed in enumerate(seeds)
    ]


def _co_channel_sum(rx, n_groups: int, out) -> None:
    """Fill row c of out (N, M) with the sum of rows m of rx (N, M) over
    the other cells m of cell c's reuse group, in ascending m: the first
    partner's row, then each further partner's added in turn. A cell with
    no partner gets 0.0.

    Cell c is in reuse group c % n_groups, and only cells of one group
    interfere with each other. So member j of every group is the cell
    range [j*G, j*G + G): each step below is one slice operation over all
    groups, and the steps follow from N and G alone.
    Member j starts from the sum of the members below it (the previous
    member's start plus that member's row), then adds each member above it
    in turn.
    """
    n, g = len(out), n_groups
    out[max(0, n - g):min(g, n)] = 0.0  # groups of one cell
    pairs = min(g, n - g)  # groups with a second member
    if pairs > 0:
        out[:pairs] = rx[g:g + pairs]
        out[g:g + pairs] = rx[:pairs]
    for j in range(2, -(-n // g)):
        lo, width = j * g, min(g, n - j * g)
        below = slice(lo - g, lo - g + width)
        np.add(out[below], rx[below], out=out[lo:lo + width])
        members_below = out[:lo].reshape(j, g, -1)[:, :width]
        members_below += rx[lo:lo + width]


def _distance(ue, bs, cfg: ScenarioConfig) -> np.ndarray:
    """3-D distances (..., K, N) of UE positions (..., K, 2) to cells (N, 2)."""
    dh = np.linalg.norm(ue[..., :, None, :] - bs, axis=-1)
    return np.sqrt(dh**2 + (cfg.h_tx_m - cfg.h_ue_m) ** 2)


def _prb_demand(sinr_wideband_db, demand_mbps, cfg: ScenarioConfig, n_prb_total):
    """PRBs UE k would need at cell n to carry its demand, over a wideband
    SINR array of any shape.

    Capped-Shannon rate per PRB from the wideband SINR; always at least
    one PRB, never more than a full carrier.
    """
    if demand_mbps <= 0:
        raise ContractError(f"demand_mbps must be > 0, got {demand_mbps}")
    sinr_lin = 10.0 ** (sinr_wideband_db / 10.0)
    se = np.minimum(np.log2(1.0 + sinr_lin), SPECTRAL_EFFICIENCY_CAP)
    rate_per_prb = cfg.prb_bandwidth_hz * se
    demand_bps = demand_mbps * 1e6
    with np.errstate(divide="ignore", over="ignore"):
        need = np.ceil(demand_bps / rate_per_prb)
    need = np.where(np.isfinite(need), need, n_prb_total)
    return np.clip(need, 1, n_prb_total).astype(np.int64)


def build_graph(s, gamma_th_db: float) -> GraphInstance:
    """Assemble the UE graph: two UEs are adjacent when some cell hears
    both above the threshold. Features are the raw [PRB, distance, SINR]
    rows; normalization is applied later with training-split statistics.

    `s` is one scenario, or a list of scenarios of one size and carrier,
    whose graphs come back as one instance stacked in list order. Every
    step is exact or elementwise, so a stacked graph is bit-equal to the
    graph of its scenario alone.
    """
    if isinstance(s, Scenario):
        sinr, distance, demand, t = s.sinr_wideband_db, s.distance, s.prb_demand, s.n_prb_total
    else:
        t = _one_carrier(s)
        sinr, distance, demand = (
            np.stack([getattr(x, name) for x in s])
            for name in ("sinr_wideband_db", "distance", "prb_demand")
        )
    passing = sinr > gamma_th_db
    adj = (passing @ np.swapaxes(passing, -1, -2)) > 0
    diagonal = np.arange(adj.shape[-1])
    adj[..., diagonal, diagonal] = True
    prb = demand.astype(np.float64)
    features = np.concatenate([prb, distance, sinr], axis=-1)
    return GraphInstance(features=features, adjacency=adj, prb_matrix=prb, n_prb_total=t)


@dataclass(frozen=True)
class FeatureStats:
    """Per-column mean and spread used to z-score node features."""

    mean: np.ndarray
    std: np.ndarray

    def to_dict(self):
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}


def feature_stats(graphs) -> FeatureStats:
    """Column statistics pooled over all nodes of the given graphs, each
    one instance or stacked, in order."""
    stacked = np.concatenate(
        [g.features.reshape(-1, g.features.shape[-1]) for g in graphs], axis=0
    )
    std = stacked.std(axis=0)
    std = np.where(std < MIN_STD, 1.0, std)  # constant columns stay untouched
    return FeatureStats(mean=stacked.mean(axis=0), std=std)


def normalize_features(g: GraphInstance, stats: FeatureStats) -> GraphInstance:
    """g, one instance or stacked, with its feature columns z-scored by
    stats; elementwise, so a stack normalizes to the bits of its instances."""
    feat = (g.features - stats.mean) / stats.std
    if not np.isfinite(feat).all():
        raise ContractError("normalized features contain non-finite values")
    return replace(g, features=feat)


# ---------------------------------------------------------------------------
# dataset serialization: one self-describing record per line, every array
# field encoded exactly by `codec.encode_array`

# record key -> Scenario field, for every scenario array a record stores:
# those the seed's draws decide
RECORD_FIELDS = {
    "ue_xy": "ue_positions",
    "sinr_db": "sinr_wideband_db",
    "rsrp_dbm": "rsrp_dbm",
}


def to_record(s: Scenario) -> dict:
    """One dataset line: the seed and the scenario arrays named in
    `RECORD_FIELDS`. Nothing derived is stored: the cell layout, distance,
    PRB demand, the per-PRB SINR cube and the graph follow from these and
    the config."""
    return {
        "seed": int(s.seed),
        **{key: encode_array(getattr(s, name)) for key, name in RECORD_FIELDS.items()},
    }


def from_record(rec: dict, cfg: ScenarioConfig, where: str = "record") -> Scenario:
    """Rebuild the scenario; the cell layout, distance and PRB demand come
    back from the config and the stored arrays, as `generate_scenarios`
    computes them, and `sinr_per_prb` is None. The record is read by the
    `config.RECORD` table, so one `to_record` cannot have written under
    cfg raises ConfigError naming `where` and the key."""
    from .config import RECORD, read_artifact  # config imports this module

    arr = read_artifact(rec, RECORD, where, n_cells=cfg.n_cells, n_ues=cfg.n_ues)
    bs = hex_layout(cfg.n_cells, cfg.inter_site_distance, cfg.region)
    t = cfg.n_prb_total
    return Scenario(
        seed=arr["seed"],
        bs_positions=bs,
        distance=_distance(arr["ue_xy"], bs, cfg),
        sinr_per_prb=None,
        prb_demand=_prb_demand(arr["sinr_db"], cfg.ue_demand_mbps, cfg, t),
        n_prb_total=t,
        **{name: arr[key] for key, name in RECORD_FIELDS.items()},
    )


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def read_jsonl(path):
    """Records of a JSON-lines file, skipping blank lines. A line that is
    not JSON raises ConfigError naming the file and the line number."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    records.append(json.loads(line))
                except ValueError as exc:
                    raise ConfigError(
                        f"dataset {path} line {lineno} is not JSON: {exc}"
                    ) from None
    return records
