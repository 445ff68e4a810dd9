"""Observation datasets drawn from QRE play, their count tables, and frequency estimators.

A matrix game's samples are one-step episodes at state 0, so both game
classes share one dataset type, one draw loop (_draw), which stores its
draws (sample_episodes) or counts them into nested count tables
(sample_counts), and one estimator.

All sampling is driven by Philox streams derived from (seed, rep) via
SeedSequence spawn keys, so repetitions are order-independent and two runs
with the same seed produce bit-identical datasets.
"""

from __future__ import annotations

import io
import itertools
import os
import stat
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from invgame.markov_game import MarkovGameSpec, StagePolicies
from invgame.matrix_game import PolicyPair

DATASET_HEADER = "episode,step,state,action_a,action_b,next_state"
_COLUMNS = DATASET_HEADER.split(",")[2:]  # the EpisodeDataset arrays, as the file names them
_BLOCK_ROWS = 1 << 12  # dataset rows written, or read by line layout, at once, at most
_READ_BLOCK_BYTES = 1 << 16  # a dataset's bytes read first, H found in them (see _read_by_layout)
_COUNT_BLOCK = 1 << 14  # episodes whose cell indices are formed at once
_MIN_PART_EPISODES = 1 << 15  # episodes per part of a draw, at least (see _draw_parts)
_CHUNK_EPISODES = 1 << 16  # episodes a part draws at once, at most (see _draw)


def stream(seed: int, rep: int = 0) -> np.random.Generator:
    """Counter-based generator for repetition `rep` of a seeded experiment."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(rep,)))
    )


@dataclass(frozen=True)
class EpisodeDataset:
    """T episodes of H steps: states, actions and successor states, each a
    (T, H) array of any strides and any integer dtype (sampled ones in the
    smallest signed dtype that holds every index; read ones int8 when read
    by line layout, else int64: see read_dataset)."""

    states: np.ndarray
    actions_a: np.ndarray
    actions_b: np.ndarray
    next_states: np.ndarray

    def __post_init__(self):
        if self.states.ndim != 2 or any(a.shape != self.states.shape for a in self.arrays):
            raise ValueError("episode arrays must share one shape (T, H)")
        for a in self.arrays:
            if not np.issubdtype(a.dtype, np.integer):
                raise ValueError(f"episode arrays must be of an integer dtype, got {a.dtype}")

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        """(states, actions_a, actions_b, next_states): the file's columns in order."""
        return (self.states, self.actions_a, self.actions_b, self.next_states)

    @property
    def n_episodes(self) -> int:
        return self.states.shape[0]

    @property
    def horizon(self) -> int:
        return self.states.shape[1]

    def prefix(self, t: int) -> "EpisodeDataset":
        """The first t episodes, 0 <= t <= T, as views."""
        if not 0 <= t <= self.n_episodes:
            raise ValueError(f"a prefix holds 0..{self.n_episodes} episodes, not {t}")
        return EpisodeDataset(*(a[:t] for a in self.arrays))

    def check(self, s_len: int, m: int, n: int) -> None:
        """Reject indices a model of s_len states and m x n actions lacks, with
        a ValueError naming the column as the dataset file spells it."""
        for column, a, size in zip(_COLUMNS, self.arrays, (s_len, m, n, s_len)):
            if a.size and (a.min() < 0 or a.max() >= size):
                raise ValueError(f"{column} must lie in 0..{size - 1}")


DataOrTable = EpisodeDataset | np.ndarray  # an estimator's input: a dataset, or its table


@dataclass(frozen=True)
class EmpiricalMarkovQRE:
    """Per-step per-state conditional frequencies with visit counts.

    Unvisited (h, s) cells hold the uniform distribution and are flagged in
    `visited`; downstream weighted systems assign them zero weight.
    """

    mu_hat: np.ndarray  # (H, S, m)
    nu_hat: np.ndarray  # (H, S, n)
    counts: np.ndarray  # (H, S) integer visit counts N_h(s)
    visited: np.ndarray  # (H, S) bool


def sample_matrix_actions(
    policies: PolicyPair, n_samples: int, seed: int, rep: int = 0
) -> EpisodeDataset:
    """Draw N independent (a, b) pairs with a ~ mu and b ~ nu: sample_episodes
    on the one-step, one-state game (any payoff: the sampler reads none)."""
    spec = MarkovGameSpec.one_step(np.zeros((policies.mu.size, policies.nu.size)), 1.0)
    stage = StagePolicies(policies.mu[None, None], policies.nu[None, None])
    return sample_episodes(spec, stage, [1.0], n_samples, seed, rep)


def frequency_estimate_matrix(data: DataOrTable, m: int, n: int) -> EmpiricalMarkovQRE:
    """Empirical marginals mu_hat(a) = #{a^k = a} / N and likewise for nu, of
    one-step episodes at state 0: the S=1 case of frequency_estimate_markov."""
    return frequency_estimate_markov(data, 1, m, n)


def sample_episodes(
    spec: MarkovGameSpec, policies: StagePolicies, initial: np.ndarray, n_episodes: int,
    seed: int, rep: int = 0,
) -> EpisodeDataset:
    """Roll out T episodes under the stage policies, storing successors (_draw):
    the one sampler, of which a matrix game's samples are the one-step,
    one-state case.  The arrays are (T, H) views of one step-major (3H + 1, T)
    block in the smallest signed dtype that holds max(S, m, n) - 1 (int8 up
    to 128 states or actions): the state chain s_0..s_H, then each step's a
    and b, so each s' is drawn in place as the next step's state.  A
    one-state chain is state 0 throughout: a zero-stride view, not drawn,
    beside a (2H, T) block."""
    block, h_len = _draw(spec, policies, initial, n_episodes, seed, rep), spec.H
    zeros = np.broadcast_to(block.dtype.type(0), (h_len + 1, n_episodes))
    chain = block[: h_len + 1] if spec.S > 1 else zeros
    acts_a, acts_b = block[-2 * h_len :].reshape(2, h_len, n_episodes)
    return EpisodeDataset(chain[:-1].T, acts_a.T, acts_b.T, chain[1:].T)


def sample_counts(
    spec: MarkovGameSpec, policies: StagePolicies, initial: np.ndarray, sizes,
    seed: int, rep: int = 0,
) -> list[np.ndarray]:
    """The read-only step_counts table of the first t episodes, for each t of
    sizes (rising strictly from 1), of the dataset sample_episodes(spec,
    policies, initial, sizes[-1], seed, rep) draws, to the bit: each slice
    between sizes is counted as it is drawn (_draw), and no dataset is held."""
    sizes = list(sizes)
    if not sizes or sizes[0] < 1 or sizes != sorted(set(sizes)):
        raise ValueError(f"sample sizes must rise strictly from 1, got {sizes}")
    counts = _draw(spec, policies, initial, sizes[-1], seed, rep, sizes)
    tables = np.cumsum(counts, axis=0).reshape(len(sizes), *spec.transition.shape)
    tables.flags.writeable = False
    return list(tables)


def _draw(
    spec: MarkovGameSpec, policies: StagePolicies, initial: np.ndarray, n_episodes: int,
    seed: int, rep: int, sizes=(),
) -> np.ndarray:
    """The one draw loop.  Draw j of a call (the initial state when S > 1,
    then each step's a, b and s') reads words jT .. jT + T - 1 of
    stream(seed, rep), episode i word jT + i.  Contiguous parts of the
    episodes are drawn at once on their own threads (_draw_parts), each
    _CHUNK_EPISODES or fewer at a time from the chunk's own words
    (_uniforms), so neither the split nor the chunk size changes a draw.
    Without sizes, a chunk goes into its columns of sample_episodes' block,
    which is returned.  With sizes, it goes into the part's three scratch
    rows: a step's state, which its s' is drawn over once the transition
    row has read it, a and b.  Each step's cells ((s m + a) n + b) S + s',
    extended from the transition row, are bincounted per slice of the chunk
    between consecutive sizes: the (K, H, cells) int64 counts of the slices
    are returned."""
    initial = spec.check_play(policies, initial)
    if n_episodes < 1:
        raise ValueError("n_episodes must be at least 1")
    h_len, s_len, m, n = spec.H, spec.S, spec.m, spec.n
    dtype = np.min_scalar_type(-max(s_len, m, n))  # holds -max, so max - 1 too
    height = 2 * h_len if s_len == 1 else 3 * h_len + 1
    block = None if sizes else np.empty((height, n_episodes), dtype=dtype)
    bounds, cells = [0, *sizes], s_len * m * n * s_len
    cum_init = np.cumsum(initial)[None]
    cum_mu, cum_nu = (np.cumsum(p, axis=2) for p in (policies.mu, policies.nu))
    cum_p = np.cumsum(spec.transition, axis=4).reshape(h_len, -1, s_len)

    def draw(lo: int, hi: int):  # episodes lo..hi-1, a chunk at a time
        width = min(hi - lo, _CHUNK_EPISODES)
        scratch = np.empty((3, width), dtype=dtype) if block is None else None
        counts = np.zeros((len(sizes), h_len, cells), dtype=np.int64)
        for start in range(lo, hi, _CHUNK_EPISODES):
            stop = min(start + _CHUNK_EPISODES, hi)
            if block is None:  # one row a step's state, drawn over by the next, then a and b
                states, acts_a, acts_b = ([row] * (h_len + 1) for row in scratch[:, : stop - start])
            else:
                chunk = block[:, start:stop]
                states, (acts_a, acts_b) = chunk[: h_len + 1], chunk[-2 * h_len :].reshape(2, h_len, -1)
            slices = [(k, max(a, start) - start, min(b, stop) - start)
                      for k, (a, b) in enumerate(zip(bounds, bounds[1:])) if a < stop and b > start]
            uniforms = _uniforms(seed, rep, n_episodes, start, stop)
            if s_len > 1:
                _draw_rows(next(uniforms), cum_init, None, states[0])
            for h in range(h_len):
                rows = states[h].astype(np.intp) if s_len > 1 else None  # one-row tables read none
                _draw_rows(next(uniforms), cum_mu[h], rows, acts_a[h])
                _draw_rows(next(uniforms), cum_nu[h], rows, acts_b[h])
                if s_len > 1:
                    rows *= m  # the transition row (s * m + a) * n + b, in intp: cannot wrap
                    rows += acts_a[h]
                    rows *= n
                    rows += acts_b[h]
                    _draw_rows(next(uniforms), cum_p[h], rows, states[h + 1])
                if slices and s_len > 1:
                    rows *= s_len
                    rows += states[h + 1]
                elif slices:  # the one state's cells are a * n + b
                    rows = np.multiply(acts_a[h], n, dtype=np.intp)
                    rows += acts_b[h]
                for k, a, b in slices:
                    counts[k, h] += np.bincount(rows[a:b], minlength=cells)
        return counts

    counts = sum(_draw_parts(draw, n_episodes))
    return counts if sizes else block


def _available_cpus() -> int:
    """The CPUs this process may run on (its affinity mask, where there is one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _draw_parts(draw, n_episodes: int) -> list:
    """The results of draw(lo, hi), in part order, for each part [lo, hi) of
    the T episodes: one part per available CPU, but none under
    _MIN_PART_EPISODES, where a second thread costs more than it saves.  One
    part is drawn on the calling thread alone; otherwise the first is, and
    each other on a thread of its own.  Every thread is joined before this
    returns or raises, and the first part that raises (in part order) raises
    here."""
    parts = max(1, min(_available_cpus(), n_episodes // _MIN_PART_EPISODES))
    if parts == 1:
        return [draw(0, n_episodes)]
    bounds = [n_episodes * k // parts for k in range(parts + 1)]
    with ThreadPoolExecutor(parts - 1) as pool:  # leaving the block joins every thread
        others = [pool.submit(draw, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
        first = draw(bounds[0], bounds[1])
        return [first] + [other.result() for other in others]


def _uniforms(seed: int, rep: int, n_episodes: int, lo: int, hi: int):
    """The uniforms of episodes lo..hi-1, a chunk of a _draw call of T
    episodes, for each draw in draw order, in one reused buffer of hi - lo
    doubles: draw j's are words jT + lo .. jT + hi - 1 of stream(seed, rep),
    one per double.  The chunk's own Philox skips the words of other chunks
    (_seek); a chunk of all T episodes reads the stream in order, skipping none."""
    rng = stream(seed, rep)
    u, at = np.empty(hi - lo), 0
    for word in itertools.count(lo, n_episodes):
        if word > at:
            _seek(rng.bit_generator, at, word)
        yield rng.random(out=u)
        at = word + hi - lo


def _seek(bit_generator: np.random.Philox, at: int, word: int) -> None:
    """Move a Philox that has given words 0..at-1 of its stream on to word
    `word` (at or later), so that its next word is that one.  A counter step
    makes 4 words, and has been taken for each block begun: advance skips
    whole blocks (and drops the rest of one begun), and the words before
    `word` in its block are drawn and dropped."""
    begun = -(-at // 4)
    if word // 4 < begun:  # in the block begun
        bit_generator.random_raw(word - at)
    else:
        bit_generator.advance(word // 4 - begun)
        bit_generator.random_raw(word % 4)


def _draw_rows(u: np.ndarray, cum: np.ndarray, rows: np.ndarray | None, out: np.ndarray):
    """Inverse-CDF draws out[i] = #{j < k - 1 : u_i >= cum[rows[i], j]},
    counted straight into the integer row out, whose dtype holds k - 1:
    category j takes [cum[j - 1], cum[j]), so none of probability zero is
    drawn, and a u above a last entry that rounds below 1 is still the last
    category.  Counted a column at a time, gathered by the intp rows unless
    cum has one row (rows is then unread).  Parts of one draw run at once on
    their own slices of u, rows and out (_draw), so it writes nothing but
    out."""
    out[...] = 0
    for column in cum.T[:-1]:
        out += u >= (column if column.size == 1 else column.take(rows))


def frequency_estimate_markov(data: DataOrTable, s_len: int, m: int, n: int) -> EmpiricalMarkovQRE:
    """Per-(h, s) conditional frequencies of step_counts, over N_h(s) v 1."""
    table = step_counts(data, s_len, m, n)
    counts = table.sum(axis=(2, 3, 4))
    denom = np.maximum(counts, 1)[:, :, None]
    mu_hat = table.sum(axis=(3, 4)) / denom
    nu_hat = table.sum(axis=(2, 4)) / denom
    visited = counts > 0
    mu_hat[~visited] = 1.0 / m
    nu_hat[~visited] = 1.0 / n
    return EmpiricalMarkovQRE(mu_hat, nu_hat, counts, visited)


def step_counts(data: DataOrTable, s_len: int, m: int, n: int) -> np.ndarray:
    """The int64 table N_h(s, a, b, s'), shaped (H, S, m, n, S) like the
    transition kernel: every estimator reads the data only through it, so
    each takes a dataset or its table.  A dataset is range-checked, so an
    index out of range is named rather than counted in a neighbouring cell,
    and counted into a read-only table (_count_steps); sample_counts gives
    the tables of a drawn dataset's prefixes without drawing it.  A table is
    returned unchanged once its shape is checked."""
    if isinstance(data, EpisodeDataset):
        data.check(s_len, m, n)
        return _count_steps(data, s_len, m, n)
    if data.shape[1:] != (s_len, m, n, s_len):
        shape = f"(H, {s_len}, {m}, {n}, {s_len})"
        raise ValueError(f"a table must be shaped {shape}, not {data.shape}")
    return data


def _count_steps(data: EpisodeDataset, s_len: int, m: int, n: int) -> np.ndarray:
    """The read-only table of a range-checked dataset: one bincount per step
    and block of episodes over the cells' flat indices, formed in place, so
    one block-sized index array is alive at a time."""
    cells = s_len * m * n * s_len
    table = np.zeros((data.horizon, cells), dtype=np.int64)
    for start in range(0, data.n_episodes, _COUNT_BLOCK):
        states, acts_a, acts_b, nexts = (a[start : start + _COUNT_BLOCK].T for a in data.arrays)
        for h in range(data.horizon):
            key = np.multiply(states[h], m, dtype=np.int64)  # any index dtype: no wrap
            np.add(key, acts_a[h], out=key, dtype=np.int64)  # += makes uint64 float
            key *= n
            np.add(key, acts_b[h], out=key, dtype=np.int64)
            key *= s_len
            np.add(key, nexts[h], out=key, dtype=np.int64)
            table[h] += np.bincount(key, minlength=cells)
    table.flags.writeable = False
    return table.reshape(data.horizon, s_len, m, n, s_len)


def empirical_state_distribution(data: DataOrTable, s_len: int, m: int, n: int) -> np.ndarray:
    """Per-step state frequencies rho_hat = N_h(s) / N with shape (H, S)."""
    counts = step_counts(data, s_len, m, n).sum(axis=(2, 3, 4))
    return counts / counts[0].sum()


def _format_rows(table: np.ndarray) -> np.ndarray:
    """The lines of an int64 table as ASCII bytes in one uint8 buffer.

    Each row is its values in decimal, joined by "," and ended by "\n":
    byte for byte what ",".join(str(int(x)) for x in row) + "\n" gives.
    The rows are laid out at one fixed width per column: a sign slot when
    the column holds a negative value, as many digit slots as its widest
    magnitude has digits, then a separator.  Each digit position is filled
    for the whole column at once, the leading one with no division, and one
    boolean index drops the slots a value does not use: its leading zeros,
    and the sign of a nonnegative value.  Columns are read one at a time,
    so a column-major table (the transpose of a C-ordered one) reads fastest.
    """
    negative = table < 0
    # abs wraps int64's minimum to itself, which reads as 2**63 unsigned
    magnitude = np.abs(table).view(np.uint64)
    signed = negative.any(axis=0)
    widths = [len(str(int(top))) for top in magnitude.max(axis=0, initial=0)]
    matrix = np.empty((table.shape[0], signed.sum() + sum(widths) + len(widths)), np.uint8)
    keep = np.ones(matrix.shape, dtype=bool)
    slot = 0
    for column, width in enumerate(widths):
        if signed[column]:
            matrix[:, slot] = ord("-")
            keep[:, slot] = negative[:, column]
            slot += 1
        rest = magnitude[:, column]
        for p in range(width):  # from the last digit: rest is magnitude // 10**p
            pos = slot + width - 1 - p
            if p:  # kept where magnitude >= 10**p: not a leading zero
                keep[:, pos] = rest != 0
            quotient = rest // 10 if p < width - 1 else 0  # the leading digit: rest < 10
            matrix[:, pos] = rest - quotient * 10 + ord("0")  # // beats np.divmod, % on uint64
            rest = quotient
        slot += width + 1
        matrix[:, slot - 1] = ord(",")
    matrix[:, -1] = ord("\n")
    return matrix[keep]


def _layout(first: int, stop: int, h_len: int) -> tuple[np.ndarray, np.ndarray]:
    """The lines of episodes first..stop-1 (indices of one digit count) of H
    steps as a column-major (episodes, bytes per episode) uint8 matrix with
    a "0" in each of the 4H body fields, and those fields' byte offsets in a
    row, in (step, column) order.  A step of more digits only widens its
    line, so any H has a layout; an episode's digits are formed once."""
    digits = len(str(first))
    lines = [f"{'0' * digits},{h},0,0,0,0\n" for h in range(h_len)]
    lengths = np.fromiter(map(len, lines), np.intp, h_len)
    ends = np.cumsum(lengths)
    row = np.frombuffer(bytearray("".join(lines), "ascii"), np.uint8)
    layout = np.repeat(row[:, None], stop - first, axis=1)  # (bytes, episodes)
    rest = np.arange(first, stop)
    for place in range(digits - 1, -1, -1):  # the last digit first
        quotient = rest // 10
        layout[ends - lengths + place] = rest - quotient * 10 + ord("0")
        rest = quotient
    return layout.T, (ends[:, None] - np.arange(8, 0, -2)).ravel()


def write_dataset(data: EpisodeDataset, path: str | Path) -> None:
    """Serialize to the line-delimited interchange format (0-based indices).

    Rows come in (episode, step) order, with no spaces and LF line endings,
    so the same dataset always gives the same bytes.  They are written a
    block of whole episodes at a time, _BLOCK_ROWS rows or fewer (one
    episode when H is larger) whose indices have one digit count, so the
    writer's memory does not grow with the dataset.  A block whose states
    and actions are all 0..9 is its line layout (_layout) with their digits
    put in; any other is formatted by _format_rows from a column-major
    table, the way it reads one: episode and step by repeat and tile, each
    other column as its episodes' rows raveled.
    """
    h_len, start = data.horizon, 0
    per_block = max(_BLOCK_ROWS // max(h_len, 1), 1)
    with open(path, "wb") as fh:
        fh.write(DATASET_HEADER.encode("ascii") + b"\n")
        while start < data.n_episodes:
            stop = min(start + per_block, data.n_episodes, 10 ** len(str(start)))
            columns = [a[start:stop] for a in data.arrays]
            # a body field of every episode a row, in (step, column) order
            body = np.stack([column.T for column in columns], axis=1).reshape(-1, stop - start)
            if 0 <= body.min(initial=0) and body.max(initial=0) <= 9:
                lines, body_at = _layout(start, stop, h_len)
                lines[:, body_at] = body.T + ord("0")
            else:
                table = np.empty((6, (stop - start) * h_len), dtype=np.int64)
                table[0] = np.repeat(np.arange(start, stop), h_len)
                table[1] = np.tile(np.arange(h_len), stop - start)
                for row, column in zip(table[2:], columns):
                    row[:] = column.ravel()
                lines = _format_rows(table.T)
            fh.write(np.ascontiguousarray(lines))
            start = stop


def read_dataset(path: str | Path, model_shape: tuple | None = None) -> EpisodeDataset:
    """Parse the line-delimited interchange format written by write_dataset.

    The input is opened once: a pipe (a shell's <(...) is one), or any file
    but a regular one, is read whole into memory first.  Its first line must
    be the header.  A file as write_dataset writes it, with one-digit states
    and actions and episode 1 begun in its first _READ_BLOCK_BYTES, is read
    by line layout (_read_by_layout) into int8 views of one body.  Any other
    is read whole by np.loadtxt into int64 (_read_by_loadtxt): blank and
    '#' lines, spaces around fields, '+' signs and CRLF endings are
    accepted, and records may come in any order, since the (episode, step)
    keys must be the grid 0..T-1 x 0..H-1, each pair once; a file in
    (episode, step) order is neither sorted nor copied.  next_state at step
    h must be state at step h+1.  With model_shape (S, m, n) the indices
    are range-checked (EpisodeDataset.check) before the state chain, so an
    index out of range is named as such.
    """
    with open(path, "rb") as fh:
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
        source = fh if regular else io.BytesIO(fh.read())
        size = source.seek(0, os.SEEK_END)
        source.seek(0)
        first = source.readline(1 << 16)  # a file of CR line endings may hold no LF
        header = first.split(b"\r")[0].strip().decode("ascii")  # the line loadtxt skips
        if header != DATASET_HEADER:
            raise ValueError(f"unexpected dataset header: {header!r}")
        read = None
        if first == (DATASET_HEADER + "\n").encode("ascii"):
            read = _read_by_layout(source, size - len(first))
        if read is None:
            read = _read_by_loadtxt(source, path if regular else None)
    body, h_len = read
    data = EpisodeDataset(*body.reshape(-1, h_len, 4).transpose(2, 0, 1))
    if model_shape is not None:
        data.check(*model_shape)
    if not np.array_equal(data.next_states[:, :-1], data.states[:, 1:]):
        raise ValueError("next_state at step h must equal state at step h+1")
    return data


def _read_by_loadtxt(source, path: str | Path | None) -> tuple[np.ndarray, int]:
    """The (records, 4) int64 body and H of a dataset file in source, read
    whole from its start by np.loadtxt, or by path where given (loadtxt then
    reads the file in chunks rather than a line at a time), its records
    sorted into (episode, step) order when they are not in it."""
    source.seek(0)
    # universal newlines, as loadtxt reads; closing it closes source
    with io.TextIOWrapper(source, encoding="ascii") as text:
        text.readline()
        # loadtxt warns on a body of blank and '#' lines alone
        if not any(line.split("#")[0].strip() for line in text):
            raise ValueError("dataset file has no records")
        text.seek(0)
        rows = np.loadtxt(path or text, delimiter=",", dtype=np.int64, ndmin=2, skiprows=1,
                          encoding="ascii")
    if rows.shape[1] != 6:
        raise ValueError(f"a record needs 6 fields, not {rows.shape[1]}")
    episodes, steps = rows[:, 0], rows[:, 1]
    t, h_len = int(episodes.max()) + 1, int(steps.max()) + 1
    off_grid = f"(episode, step) must be each of 0..{t - 1} x 0..{h_len - 1} once"
    if min(episodes.min(), steps.min()) < 0 or rows.shape[0] != t * h_len:
        raise ValueError(off_grid)
    keys = episodes * h_len + steps
    grid = np.arange(keys.size)
    if np.array_equal(keys, grid):
        return rows[:, 2:], h_len
    order = np.argsort(keys, kind="stable")
    if not np.array_equal(keys[order], grid):  # a key repeats
        raise ValueError(off_grid)
    return rows[order, 2:], h_len


def _read_by_layout(source, size: int) -> tuple[np.ndarray, int] | None:
    """The (records, 4) int8 body and H of the size bytes of records that
    follow a header line in source, if write_dataset would write them with
    one-digit states and actions, else None: records in (episode, step)
    order, record i being (i // H, i % H), H being the number of lines
    before episode 1's first in the first _READ_BLOCK_BYTES.  They are read
    a block of whole episodes of one index width at a time, each taken
    while its body bytes are digits and its bytes equal its line layout
    (_layout) with those copied in, into views of one body of a row per 12
    bytes (a record's least)."""
    body, records = np.empty((size // 12, 4), np.int8), 0
    tail = source.read(_READ_BLOCK_BYTES)
    h_len = tail.count(b"\n", 0, tail.find(b"\n1,") + 1)
    while h_len:  # a block of whole episodes of one index width
        first = records // h_len
        stop = min(first + max(_BLOCK_ROWS // h_len, 1), 10 ** len(str(first)))
        layout, body_at = _layout(first, stop, h_len)
        tail += source.read(max(layout.size - len(tail), 0))
        width = layout.shape[1]
        count = min(len(tail) // width, len(layout))
        if not count:  # the file's end (but a line short of an episode)
            break
        lines = np.frombuffer(tail, np.uint8, count * width).reshape(count, width)
        lines = np.asfortranarray(lines)  # column-major, as the layout
        layout, digits = layout[:count], lines[:, body_at]
        layout[:, body_at] = digits
        digits -= np.uint8(ord("0"))  # a byte below "0" wraps past 9
        if digits.max() > 9 or not np.array_equal(layout, lines):
            return None
        body[records : records + count * h_len] = digits.reshape(-1, 4)
        records += count * h_len
        tail = tail[lines.size :]
    return (body[:records], h_len) if records and not tail else None


def read_counts(path: str | Path, s_len: int, m: int, n: int) -> np.ndarray:
    """The read-only step_counts table, for s_len states and m x n actions,
    of the dataset file at path (read_dataset with that model shape): the
    file is range-checked once and counted once."""
    return _count_steps(read_dataset(path, (s_len, m, n)), s_len, m, n)
