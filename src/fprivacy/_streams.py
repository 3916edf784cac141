"""numpy's per-bucket draws, for many buckets at once.

Bucket b of a release draws from the stream that
``default_rng(SeedSequence(seed).spawn(B)[b])`` starts: ``publish`` shuffles
the bucket's ST rows with ``Generator.shuffle``; ``inject_fakes`` picks its
fakes with ``Generator.choice(replace=False)`` and shuffles the padded rows.
``Streams`` makes the same draws with every bucket a lane of numpy arrays, so
no Python loop runs per bucket and the bytes stay numpy's:

* states: SeedSequence's spawn hash and PCG64's seeding, lane-wise in uint32
  and uint64 arithmetic;
* words: PCG64 (XSL RR 128/64) outputs, from anchor states a jump ahead
  sets, state_k = mult**k * state + (1 + mult + ... + mult**(k-1)) * inc,
  and plain LCG steps between them; each output is two 32-bit words, low
  half first, as ``next_uint32`` buffers them;
* ``shuffle``: Fisher-Yates from the last position down, each swap index a
  masked rejection draw (``random_interval``), one round per draw for all
  lanes at once until few are left; each of those few then finishes in
  ``RandomState.shuffle``, on a PCG64 set to where the lane stopped;
* ``choice``: Floyd's algorithm with Lemire's bounded draws
  (``random_bounded_uint64``), then a Lemire Fisher-Yates over the picks;
  for a pool over 10,000 values with more than pool // 50 picks, numpy's
  tail shuffle, a Lemire Fisher-Yates over the pool's last positions.  A
  Lemire draw almost never rejects, so all of a lane's draws are first
  taken from its consecutive words in one pass; a lane where one is redrawn
  takes the rest of its draws in another pass, from the next word on.

These are numpy 2.x's ``Generator`` algorithms (``_generator.pyx`` and
``distributions.c``).  NEP 19 keeps SeedSequence and PCG64 stable, but not
the Generator methods, so the tests check every draw against Generator.
It also freezes RandomState's methods, and ``RandomState.shuffle`` on a
PCG64 makes the same masked rejection draws as ``Generator.shuffle``; no
draw here comes from a Generator method.  Every draw here is a 32-bit one,
which holds while pools and buckets stay under 2**32 values.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .core import stable_order

# numpy's SeedSequence hash constants (O'Neill's seed_seq_fe, as in
# numpy/random/bit_generator.pyx) and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_LOW = np.uint64(_M32)

# lanes per block: enough that each numpy call does real work, few enough
# that no scratch array grows with the bucket count; and lanes times their
# length, which bounds a block's words
_BLOCK, _BLOCK_ROWS = 1024, 1 << 20
# words come from plain LCG steps in runs of _RUN, one run per anchor state
# that a jump ahead sets; a pass takes up to _ANCHORS anchors and _ENTRIES
# (step, lane) entries
_RUN, _ANCHORS, _ENTRIES = 8, 2048, 1 << 18
# once this few lanes are left shuffling, RandomState.shuffle finishes each
# alone: a round's dozen numpy calls then cost more than those lanes' draws
_FEW = 32
# choice keeps dense (lanes, pool) and (draws, lanes) arrays; at most this
# many entries
_POOL_ENTRIES = 1 << 21


def lane_blocks(lengths: np.ndarray) -> list[np.ndarray]:
    """Lane indices in blocks, ordered by length.  A block's lengths share
    their bit length, so its lanes need about as many draws as each other,
    and its lanes times 2**bit length stay within _BLOCK_ROWS, which bounds
    its word buffer."""
    order = stable_order(lengths)
    bits = np.frexp(lengths[order])[1]
    cuts = np.flatnonzero(np.diff(bits)) + 1
    blocks = []
    for group, top in zip(np.split(order, cuts), bits[np.r_[0, cuts]]):
        width = min(_BLOCK, max(1, _BLOCK_ROWS >> int(top)))
        blocks += np.array_split(group, -(-len(group) // width))
    return blocks


def spawn_states(seed: int, keys: np.ndarray):
    """(state_hi, state_lo, inc_hi, inc_lo) uint64 arrays: the PCG64 state
    that default_rng(SeedSequence(seed).spawn(n)[k]) starts in, per key k.

    Child k's entropy is the seed's 32-bit words, zero-padded to 4, then the
    spawn key k.  SeedSequence(seed).pool is the pool hashed from the seed's
    words; by then numpy's hash constant has taken one step per hashmix
    call: 4 fill the pool, 12 cross-mix it, and 4 more come per word past
    the fourth.  The key's word is mixed in and the pool hashed into
    generate_state(4, uint64) for every key at once; PCG64 then seeds from
    those words with two LCG steps.
    """
    seed = operator.index(seed)
    pool = np.random.SeedSequence(seed).pool.tolist()
    words = max(1, -(-seed.bit_length() // 32))
    hash_a = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, words - 4), 2**32) & _M32

    # the spawn key's mix and generate_state's hash, per child
    keys = np.asarray(keys, dtype=np.uint32)
    lanes = []
    for dst in range(4):
        hashed = keys ^ np.uint32(hash_a)
        hash_a = hash_a * _MULT_A & _M32
        hashed *= np.uint32(hash_a)
        hashed ^= hashed >> 16
        lane = np.uint32(_MIX_L * pool[dst] & _M32) - np.uint32(_MIX_R) * hashed
        lanes.append(lane ^ lane >> 16)
    hash_b = _INIT_B
    halves = []
    for k in range(8):
        half = lanes[k % 4] ^ np.uint32(hash_b)
        hash_b = hash_b * _MULT_B & _M32
        half *= np.uint32(hash_b)
        half ^= half >> 16
        halves.append(half.astype(np.uint64))
    # uint64 words are little-endian pairs: seed high, seed low, inc high,
    # inc low
    s_hi, s_lo, i_hi, i_lo = (halves[j] | halves[j + 1] << np.uint64(32)
                              for j in range(0, 8, 2))
    # PCG64's srandom: inc = 2·i + 1, state = (inc + s)·mult + inc
    inc_hi = i_hi << np.uint64(1) | i_lo >> np.uint64(63)
    inc_lo = i_lo << np.uint64(1) | np.uint64(1)
    state = _add128(*_mul128(*_add128(inc_hi, inc_lo, s_hi, s_lo),
                             *_split([_PCG_MULT])), inc_hi, inc_lo)
    return (*state, inc_hi, inc_lo)


def _split(values):
    """(high, low) uint64 arrays of 128-bit Python ints."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _M64 for v in values], dtype=np.uint64))


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """(a·b) mod 2**128 of (high, low) uint64 pairs, broadcast; the low
    halves' full product is taken in 32-bit limbs."""
    a0, a1 = a_lo & _LOW, a_lo >> np.uint64(32)
    b0, b1 = b_lo & _LOW, b_lo >> np.uint64(32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> np.uint64(32)) + (p01 & _LOW) + (p10 & _LOW)
    hi = (a1 * b1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32))
          + (mid >> np.uint64(32)) + a_hi * b_lo + a_lo * b_hi)
    return hi, a_lo * b_lo


@functools.cache
def _jump_table(count: int):
    """(mult**k, 1 + mult + ... + mult**(k-1)) mod 2**128 for k = _RUN,
    2 * _RUN, ..., count * _RUN, as (high, low, high, low) uint64 columns:
    state_k = mult**k * state + (1 + ... + mult**(k-1)) * inc."""
    run_power, run_total = 1, 0
    for _ in range(_RUN):
        run_total = run_total + run_power & _M128
        run_power = run_power * _PCG_MULT & _M128
    powers, totals = [run_power], [run_total]
    while len(powers) < count:
        totals.append(totals[-1] + powers[-1] * run_total & _M128)
        powers.append(powers[-1] * run_power & _M128)
    return tuple(x[:, None] for x in (*_split(powers), *_split(totals)))


def _doublings():
    """(mult**(2**i), 1 + mult + ... + mult**(2**i - 1)) mod 2**128 for
    i < 64: the LCG's 2**i-step map, state -> power * state + total * inc."""
    power, total, table = _PCG_MULT, 1, []
    for _ in range(64):
        table.append((power, total))
        total = power * total + total & _M128
        power = power * power & _M128
    return tuple(table)


_DOUBLINGS = _doublings()


def _advance(state: int, inc: int, steps: int) -> int:
    """The PCG64 state `steps` LCG steps on: one 2**i-step map per set bit
    of steps."""
    for i in range(steps.bit_length()):
        if steps >> i & 1:
            power, total = _DOUBLINGS[i]
            state = power * state + total * inc & _M128
    return state


_MULT_HI, _MULT_LO = (np.uint64(x[0]) for x in _split([_PCG_MULT]))


class Streams:
    """The 32-bit words of one PCG64 stream per lane, the stream of spawn
    child keys[l] of seed, each lane reading its own words in order."""

    def __init__(self, seed: int, keys: np.ndarray):
        self._spawned = self._state = spawn_states(seed, keys)
        # re-stated to a lane's stream for each shuffle RandomState finishes
        self._pcg = np.random.PCG64()
        self._legacy = np.random.RandomState(self._pcg)
        # (capacity, lanes): row w holds every lane's word w, for the first
        # _have rows
        self._words = np.empty((0, len(keys)), dtype=np.uint32)
        self._have = 0
        self._cursor = np.zeros(len(keys), dtype=np.int64)

    def _reserve(self, count: int) -> None:
        """Generate words until every lane holds at least `count`.  When
        the buffer grows, its capacity at least doubles, so it is copied
        only a few times however the draws ask for words.

        A pass jumps ahead to anchors _RUN steps apart and takes _RUN plain
        LCG steps from each of them at once: a jump costs two 128-bit
        products, a step one.
        """
        lanes = len(self._cursor)
        steps = -(-(count - self._have) // 2)
        if steps <= 0:
            return
        # a pass may round its steps up to a whole run
        need = self._have + 2 * (steps + _RUN)
        if need > len(self._words):
            grown = np.empty((max(need, 2 * len(self._words)), lanes),
                             dtype=np.uint32)
            grown[:self._have] = self._words[:self._have]
            self._words = grown
        while steps > 0:
            run = min(steps, _RUN)
            anchors = min(-(-steps // run), _ANCHORS,
                          max(1, _ENTRIES // (run * lanes)))
            hi, lo, inc_hi, inc_lo = self._state
            # tables in powers of two, so that few are ever built
            table = _jump_table(1 << (anchors - 1).bit_length())
            a_hi, a_lo, g_hi, g_lo = (x[:anchors - 1] for x in table)
            jumped = _add128(*_mul128(a_hi, a_lo, hi, lo),
                             *_mul128(g_hi, g_lo, inc_hi, inc_lo))
            s_hi, s_lo = (np.concatenate((x[None], y))
                          for x, y in zip((hi, lo), jumped))
            new = self._words[self._have:][:2 * anchors * run].reshape(
                anchors, run, 2, lanes)
            for r in range(run):
                s_hi, s_lo = _add128(*_mul128(s_hi, s_lo, _MULT_HI, _MULT_LO),
                                     inc_hi, inc_lo)
                # XSL RR: the xor of the halves, rotated right by the top 6
                # bits; the low half is the first word
                mixed = s_hi ^ s_lo
                turn = s_hi >> np.uint64(58)
                out = mixed >> turn | mixed << ((np.uint64(64) - turn)
                                                & np.uint64(63))
                new[:, r, 0] = out
                new[:, r, 1] = out >> np.uint64(32)
            self._state = (s_hi[-1], s_lo[-1], inc_hi, inc_lo)
            self._have += 2 * anchors * run
            steps -= anchors * run

    def shuffle(self, data: np.ndarray, starts: np.ndarray,
                lengths: np.ndarray) -> None:
        """Generator.shuffle of lane l's slice data[starts[l]:][:lengths[l]],
        in place; the slices must not overlap.  A shuffle is the last draw
        of its lanes: it leaves no cursor behind for another draw.

        Every round, each lane still shuffling reads one word and swaps its
        top position with the word under the smallest all-ones mask that
        covers it, unless that lands past the top (masked rejection).  A
        round is a dozen numpy calls whatever the lane count, so once no
        more than _FEW lanes are left, RandomState.shuffle finishes each.
        """
        lanes = np.flatnonzero(lengths > 1)
        starts = starts[lanes].astype(np.int64)
        pos = lengths[lanes].astype(np.int64) - 1
        bits = np.frexp(np.arange(pos.max(initial=0) + 1))[1]
        masks = np.left_shift(1, bits, dtype=np.int64) - 1
        # round r reads word first + r of every lane, shuffling or not
        first = self._cursor[lanes]
        at = first * len(self._cursor) + lanes
        last = int(first.max(initial=0))
        rounds = 0
        while np.count_nonzero(active := pos > 0) > _FEW:
            if last + rounds >= self._have:
                # about 1.4 words per swap, and more when a lane needs them
                self._reserve(last + rounds + 3 * int(pos.max()) // 2 + 16)
            got = self._words.ravel()[at] & masks[pos]
            kept = (got <= pos) & active
            a, b = starts + pos, starts + np.where(kept, got, pos)
            data[a], data[b] = data[b], data[a]
            pos -= kept
            at += len(self._cursor)
            rounds += 1
        for k in np.flatnonzero(active).tolist():
            self._restate(int(lanes[k]), int(first[k]) + rounds)
            self._legacy.shuffle(data[starts[k]:starts[k] + pos[k] + 1])

    def _restate(self, lane: int, words: int) -> None:
        """Set self._pcg to where the lane's stream is once it has read
        `words` words: its spawn state moved on words // 2 outputs, and for
        an odd count one output more, whose high half is buffered as
        next_uint32 keeps it.  The state is computed here and set with one
        write."""
        s_hi, s_lo, i_hi, i_lo = (int(x[lane]) for x in self._spawned)
        inc = i_hi << 64 | i_lo
        state = _advance(s_hi << 64 | s_lo, inc, (words + 1) // 2)
        high = 0
        if words % 2:
            # the XSL RR output of the new state, rotated right by its top
            # six bits
            xored, rot = (state >> 64 ^ state) & _M64, state >> 122
            high = ((xored >> rot | xored << (64 - rot)) & _M64) >> 32
        self._pcg.state = {"bit_generator": "PCG64",
                           "state": {"state": state, "inc": inc},
                           "has_uint32": words % 2, "uinteger": high}

    def choice(self, pop: np.ndarray, size: int) -> np.ndarray:
        """(lanes, size) int64: Generator.choice(pool, size, replace=False)
        of lane l's pool of pop[l] values, as indices into the pool.  Lanes
        are taken in parts whose (lanes, pool) and (draws, lanes) arrays
        stay within _POOL_ENTRIES."""
        picks = np.empty((len(pop), size), dtype=np.int64)
        tail = (pop > 10000) & (size > pop // 50)
        for draw, lanes in ((self._floyd, np.flatnonzero(~tail)),
                            (self._tail_shuffle, np.flatnonzero(tail))):
            if size and len(lanes):
                width = int(pop[lanes].max()) + 2 * size
                parts = -(-len(lanes) * width // _POOL_ENTRIES)
                for part in np.array_split(lanes, min(parts, len(lanes))):
                    picks[part] = draw(part, pop[part], size)
        return picks

    def _floyd(self, lanes, pop, size):
        """Floyd's algorithm: pick t is a draw from 0..top, top = pop -
        size + t, or top itself when the draw repeats an earlier pick; then
        a Lemire Fisher-Yates over the picks."""
        t = np.arange(size)[:, None]
        drawn = self._lemire(lanes, np.concatenate((
            pop - size + t,
            np.broadcast_to(size - 1 - t[:-1], (size - 1, len(lanes)))),
            dtype=np.int32))
        # picks index the flat (lanes, pool) bitmap of values taken
        base = np.arange(len(lanes)) * int(pop.max())
        taken = np.zeros(len(base) * int(pop.max()), dtype=bool)
        picks = drawn[:size] + base
        for top, got in zip(pop - size + base + t, picks):
            np.copyto(got, top, where=taken[got])
            taken[got] = True
        picks -= base
        # pick k of lane l is entry k * lanes + l
        rows = np.arange(len(lanes))
        _swap_down(picks.ravel(), (size - 1 - t[:-1]) * len(lanes) + rows,
                   drawn[size:] * len(lanes) + rows)
        return picks.T

    def _tail_shuffle(self, lanes, pop, size):
        """numpy's tail shuffle: a Lemire Fisher-Yates of the whole pool
        down to position pop - size (at least 1), whose last size values
        are the picks."""
        first = np.maximum(pop - size, 1)
        tops = pop - 1 - np.arange(int((pop - first).max()))[:, None]
        # a lane past its first position draws 0 from 0..0, reading no
        # word, and swaps position 0 with itself
        tops[tops < first] = 0
        drawn = self._lemire(lanes, tops)
        width = int(pop.max())
        pool = np.tile(np.arange(width, dtype=np.int32), len(lanes))
        base = np.arange(len(lanes)) * width
        _swap_down(pool, tops + base, drawn + base)
        at = (pop - size + base)[:, None] + np.arange(size)
        return pool[at]

    def _lemire(self, lanes: np.ndarray, tops: np.ndarray) -> np.ndarray:
        """(draws, lanes) int32: Lemire draws (random_bounded_uint64) from
        0..tops[j, l], lane l making its draws j in order; a top of 0 reads
        no word.  A draw is redrawn while its low word falls under 2**32
        mod (top + 1), about once in 2**32 / top draws, so every draw first
        takes the lane's next word; a lane where one falls short takes that
        draw and the rest in another pass, from the word after."""
        reads = tops > 0
        drawn = np.empty(tops.shape, dtype=np.int32)
        cursor = self._cursor[lanes]
        # lane -> (its first short draw, the word that draw read)
        shorts = {}
        step = max(1, _ENTRIES // len(lanes))
        for lo in range(0, len(tops), step):
            read = reads[lo:lo + step]
            # each draw's word; one that reads none looks at the next unused
            at = cursor + (np.arange(len(read))[:, None] if read.all()
                           else np.cumsum(read, axis=0) - read)
            cursor = at[-1] + read[-1]
            self._reserve(int(at.max()) + 1)
            span = tops[lo:lo + step].astype(np.uint64) + np.uint64(1)
            product = self._words[at, lanes] * span
            drawn[lo:lo + step] = product >> np.uint64(32)
            # the redraw bound 2**32 mod span is under span
            product &= _LOW
            near = np.flatnonzero(product < span)
            for i in near[product.flat[near]
                          < np.uint64(2**32) % span.flat[near]].tolist():
                j, k = divmod(i, len(lanes))
                shorts.setdefault(k, (lo + j, int(at[j, k])))
        self._cursor[lanes] = cursor
        for k, (j, row) in shorts.items():
            self._cursor[lanes[k]] = row + 1
            drawn[j:, k:k + 1] = self._lemire(lanes[k:k + 1],
                                              tops[j:, k:k + 1])
        return drawn


def _swap_down(data, tops, gots):
    """Fisher-Yates swaps in place: round r swaps data[tops[r, l]] with
    data[gots[r, l]] for every lane l at once; lanes' positions do not
    meet."""
    for top, got in zip(tops, gots):
        data[top], data[got] = data[got], data[top]
