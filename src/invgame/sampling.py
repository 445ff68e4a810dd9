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

import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from invgame.markov_game import MarkovGameSpec, StagePolicies
from invgame.matrix_game import PolicyPair

DATASET_HEADER = "episode,step,state,action_a,action_b,next_state"
_COLUMNS = DATASET_HEADER.split(",")[2:]  # the EpisodeDataset arrays, as the file names them
_WRITE_BLOCK_ROWS = 1 << 12  # dataset rows formatted at once, at most
_READ_BLOCK_BYTES = 1 << 16  # dataset bytes parsed at once, about (see _read_in_order)
_SEPARATORS = np.frombuffer(b",,,,,\n", np.uint8)  # a record's separators, in order
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
    (T, H) array of any strides and any integer dtype (sampled ones, and
    read ones of a file as write_dataset writes it, in the smallest signed
    dtype that holds every index; other read ones int64)."""

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
    for the whole column at once, the leading one with no division.  When
    every row uses every slot (each column's values are all as long, and
    all negative under a sign slot), the matrix is the lines; otherwise one
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
    full = table.size and (negative == signed).all() and all(
        len(str(int(low))) == width for low, width in zip(magnitude.min(axis=0), widths))
    keep = None if full else np.ones(matrix.shape, dtype=bool)
    slot = 0
    for column, width in enumerate(widths):
        if signed[column]:
            matrix[:, slot] = ord("-")
            if keep is not None:
                keep[:, slot] = negative[:, column]
            slot += 1
        rest = magnitude[:, column]
        for p in range(width):  # from the last digit: rest is magnitude // 10**p
            pos = slot + width - 1 - p
            if p and keep is not None:  # kept where magnitude >= 10**p: not a leading zero
                keep[:, pos] = rest != 0
            quotient = rest // 10 if p < width - 1 else 0  # the leading digit: rest < 10
            matrix[:, pos] = rest - quotient * 10 + ord("0")  # // beats np.divmod, % on uint64
            rest = quotient
        slot += width + 1
        matrix[:, slot - 1] = ord(",")
    matrix[:, -1] = ord("\n")
    return matrix.ravel() if keep is None else matrix[keep]


def write_dataset(data: EpisodeDataset, path: str | Path) -> None:
    """Serialize to the line-delimited interchange format (0-based indices).

    Rows come in (episode, step) order, with no spaces and LF line endings,
    so the same dataset always gives the same bytes.  They are formatted a
    block of whole episodes at a time, _WRITE_BLOCK_ROWS rows or fewer (one
    episode when H is larger), so the writer's memory does not grow with
    the dataset.  A block is built column-major, the way _format_rows reads
    it: episode and step by repeat and tile, each other column as its
    episodes' rows raveled.
    """
    h_len = data.horizon
    per_block = max(_WRITE_BLOCK_ROWS // max(h_len, 1), 1)
    with open(path, "wb") as fh:
        fh.write(DATASET_HEADER.encode("ascii") + b"\n")
        for start in range(0, data.n_episodes, per_block):
            stop = min(start + per_block, data.n_episodes)
            table = np.empty((6, (stop - start) * h_len), dtype=np.int64)
            table[0] = np.repeat(np.arange(start, stop), h_len)
            table[1] = np.tile(np.arange(h_len), stop - start)
            for row, column in zip(table[2:], data.arrays):
                row[:] = column[start:stop].ravel()
            fh.write(_format_rows(table.T))


def read_dataset(path: str | Path, model_shape: tuple | None = None) -> EpisodeDataset:
    """Parse the line-delimited interchange format written by write_dataset.

    A file as write_dataset writes it is parsed a block at a time into views
    of one body in the smallest signed dtype that holds its indices
    (_read_in_order).  Any other is read whole by np.loadtxt into int64:
    blank and '#' lines, spaces around fields, '+' signs and CRLF endings
    are accepted, and records may come in any order, since the (episode,
    step) keys must be the grid 0..T-1 x 0..H-1, each pair once; a file in
    (episode, step) order is neither sorted nor copied.  next_state at step
    h must be state at step h+1.  With model_shape (S, m, n) the indices are
    range-checked (EpisodeDataset.check) before the state chain, so an index
    out of range is named as such.
    """
    read = _read_in_order(path)
    if read is None:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().strip()
            if header != DATASET_HEADER:
                raise ValueError(f"unexpected dataset header: {header!r}")
            # loadtxt warns on a body of blank and '#' lines alone
            if not any(line.split("#")[0].strip() for line in fh):
                raise ValueError("dataset file has no records")
        # by path, loadtxt reads the file in chunks rather than a line at a time
        rows = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2, skiprows=1, encoding="ascii")
        if rows.shape[1] != 6:
            raise ValueError(f"a record needs 6 fields, not {rows.shape[1]}")
        episodes, steps = rows[:, 0], rows[:, 1]
        t, h_len = int(episodes.max()) + 1, int(steps.max()) + 1
        off_grid = f"(episode, step) must be each of 0..{t - 1} x 0..{h_len - 1} once"
        if min(episodes.min(), steps.min()) < 0 or rows.shape[0] != t * h_len:
            raise ValueError(off_grid)
        keys = episodes * h_len + steps
        grid = np.arange(keys.size)
        body = rows[:, 2:]
        if not np.array_equal(keys, grid):
            order = np.argsort(keys, kind="stable")
            if not np.array_equal(keys[order], grid):  # a key repeats
                raise ValueError(off_grid)
            body = body[order]
        read = body, h_len
    body, h_len = read
    data = EpisodeDataset(*body.reshape(-1, h_len, 4).transpose(2, 0, 1))
    if model_shape is not None:
        data.check(*model_shape)
    if not np.array_equal(data.next_states[:, :-1], data.states[:, 1:]):
        raise ValueError("next_state at step h must equal state at step h+1")
    return data


def _read_in_order(path: str | Path) -> tuple[np.ndarray, int] | None:
    """The (records, 4) body and H of a file as write_dataset writes it, or
    None for any other: the header line, then blocks of whole lines
    (_parse_block) in (episode, step) order, record i being (i // H, i % H)
    for H the index of episode 1's first record (or the record count).
    Each block's body columns go into one body with a row per 12 bytes of
    the file (a record's least), in the smallest signed dtype that holds
    every index so far, copied when a block needs a wider one (or, in a
    pipe, more rows); its filled rows are returned."""
    h_len, records, tail = None, 0, b""
    with open(path, "rb") as fh:
        header = fh.readline()
        if header != (DATASET_HEADER + "\n").encode("ascii"):
            return None
        # a pipe's size (a shell's <(...) is one) reads 0: its body grows
        body = np.empty((max(os.fstat(fh.fileno()).st_size - len(header), 0) // 12, 4), np.int8)
        for chunk in iter(lambda: fh.read(_READ_BLOCK_BYTES), b""):
            text = tail + chunk
            end = text.rfind(b"\n") + 1  # the block's whole lines: none when a line outgrows it
            tail = text[end:]
            if not end or (rows := _parse_block(np.frombuffer(text, np.uint8, end))) is None:
                return None
            if h_len is None and rows[:, 0].any():  # episode 1 begins here (or 0 is missing)
                h_len = records + int(np.argmax(rows[:, 0] != 0))
            keys = np.arange(records, records + len(rows))
            records += len(rows)
            # while H is unknown, records is past every key: all are of episode 0
            if (rows[:, :2].T != np.divmod(keys, h_len or records)).any():
                return None
            dtype = np.promote_types(body.dtype, np.min_scalar_type(-1 - int(rows[:, 2:].max())))
            if dtype != body.dtype or len(body) < records:  # widened, or outgrown (a pipe)
                grown = np.empty((max(len(body), 2 * records), 4), dtype)
                grown[: keys[0]] = body[: keys[0]]
                body = grown
            body[keys[0] : records] = rows[:, 2:]
            del rows, keys  # before the next block is parsed
    h_len = h_len or records
    if tail or not records or records % h_len:  # a last line or episode cut short, or none
        return None
    return body[:records], h_len


def _parse_block(block: np.ndarray) -> np.ndarray | None:
    """The (lines, 6) int64 fields of lines of six fields of 1 to 18 digits
    split by "," and ended by "\n", or None for any other block.  When all
    lines have the first one's length and separator columns, the block is
    read as a (lines, length) byte matrix, a field from its digit columns;
    any other is read field by field (_parse_fields)."""
    width = int(np.argmax(block == ord("\n"))) + 1  # the first line's length
    ends = np.flatnonzero(block[:width] < ord("0"))  # "," and "\n" sort below the digits
    lengths = np.diff(ends, prepend=-1) - 1
    if (block.size % width or ends.size != 6 or not 1 <= lengths.min() <= lengths.max() <= 18
            or (block.reshape(-1, width)[:, ends] != _SEPARATORS).any()):
        return _parse_fields(block)
    digits = block.reshape(-1, width) - np.uint8(ord("0"))  # a byte below "0" wraps past 9
    digits[:, ends] = 0
    if digits.max() > 9:  # a digit column holds another byte
        return _parse_fields(block)
    return _place_values(digits, ends, lengths)


def _parse_fields(block: np.ndarray) -> np.ndarray | None:
    """_parse_block of a block of any layout, read field by field."""
    ends = np.flatnonzero(block < ord("0"))  # "," and "\n" sort below the digits
    lengths = np.diff(ends, prepend=-1)
    lengths -= 1  # at most 18 digits: 10**18 - 1 fits int64
    if (block.max() > ord("9") or ends.size % 6 or not 1 <= lengths.min() <= lengths.max() <= 18
            or (block[ends].reshape(-1, 6) != _SEPARATORS).any()):
        return None
    return _place_values(block - ord("0"), ends, lengths).reshape(-1, 6)


def _place_values(digits: np.ndarray, ends: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The int64 fields of the lengths that end at ends (moved in place onto
    their last digits) on the last axis of digits: every field's last digit
    at once, then each earlier place for the fields that long."""
    ends -= 1
    fields, longer = digits[..., ends].astype(np.int64), np.flatnonzero(lengths > 1)
    for place in range(1, lengths.max()):  # the digit worth 10**place
        fields[..., longer] += digits[..., ends[longer] - place] * np.int64(10) ** place
        longer = longer[lengths[longer] > place + 1]
    return fields


def read_counts(path: str | Path, s_len: int, m: int, n: int) -> np.ndarray:
    """The read-only step_counts table, for s_len states and m x n actions,
    of the dataset file at path (read_dataset with that model shape): the
    file is range-checked once and counted once."""
    return _count_steps(read_dataset(path, (s_len, m, n)), s_len, m, n)
