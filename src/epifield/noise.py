"""The seeded sensor noise field: numpy's normal draws, in numpy alone.

standard_normal(seed, shape) equals numpy's
Generator(Philox(SeedSequence(seed))).normal(size=shape) bit for bit, but
never imports numpy's random package, whose bit generators load OpenSSL.
SeedSequence's 32-bit hash runs on Python ints and gives the Philox key;
Philox4x64-10 (Salmon et al., SC 2011) runs vectorised over blocks; and
Marsaglia & Tsang's ziggurat (2000), as numpy codes it, decodes a chunk of
words at once and walks its rare tail and wedge draws in scalar code, with
math.log1p and math.exp, which call the same libm as numpy's C.
"""

from __future__ import annotations

import math

import numpy as np

__all__: list[str] = []  # render_epi's helper, not part of the package API

_M32, _M52 = 2**32 - 1, 2**52 - 1
_CHUNK_BLOCKS = 1024  # Philox blocks generated and decoded at a time
_LOW, _HALF = np.uint64(_M32), np.uint64(32)  # numpy scalars: a Python int converts per op

# Ziggurat layer edges: x[0] is the base strip's virtual width, x[1:] rise
# to the tail start R = x[255]. numpy's wi, ki and fi tables follow from them.
_EDGES = (
    3.910757959524912, 0.21524189598488003, 0.2861745917920715, 0.33573751921442435,
    0.3751213328783798, 0.40838913461199033, 0.4375184022078708, 0.4636343367908815,
    0.4874439661392353, 0.509423329602091, 0.5299097206615574, 0.5491517023271645,
    0.5673382570538182, 0.5846167661063788, 0.6011046177559921, 0.6168969900077509,
    0.6320722363860606, 0.6466957148949931, 0.6608225742444191, 0.6744998228372932,
    0.6877678927957878, 0.7006618411068143, 0.7132122851909752, 0.7254461409099988,
    0.7373872114342949, 0.7490566620178146, 0.7604734064301074, 0.7716544242245675,
    0.7826150233072324, 0.7933690588406226, 0.8039291169899705, 0.8143066701352146,
    0.8245122087522915, 0.8345553540863815, 0.8444449549091533, 0.8541891710081632,
    0.8637955455533082, 0.87327106808886, 0.882622229585165, 0.891855070732941,
    0.9009752244612214, 0.9099879534967181, 0.9188981836495902, 0.9277105334019996,
    0.9364293402865748, 0.945058684468165, 0.9536024098810856, 0.9620641432230401,
    0.970447311064224, 0.9787551552942242, 0.986990747099062, 0.9951569996350904,
    1.0032566795446725, 1.011292417439995, 1.0192667174654835, 1.027181966035645,
    1.03504043983344, 1.0428443131441483, 1.0505956645909291, 1.0582964833306743,
    1.0659486747621219, 1.0735540657924356, 1.0811144097034033, 1.0886313906539793,
    1.0961066278520208, 1.103541679424639, 1.110938046013575, 1.1182971741193444,
    1.1256204592155326, 1.1329092486525332, 1.1401648443681507, 1.1473885054208484,
    1.1545814503599272, 1.161744859445611, 1.1688798767308328, 1.1759876120154515,
    1.1830691426826863, 1.1901255154266914, 1.1971577478794408, 1.2041668301443809,
    1.2111537262436987, 1.218119375485481, 1.2250646937565302, 1.2319905747461355,
    1.2388978911056867, 1.2457874955486268, 1.2526602218948968, 1.2595168860637138,
    1.266358287018229, 1.273185207665356, 1.2799984157138176, 1.2867986644932434,
    1.2935866937369476, 1.300363230330837, 1.307128989030731, 1.3138846731502203,
    1.3206309752210559, 1.3273685776279256, 1.3340981532193599, 1.3408203658964037,
    1.347535871180587, 1.3542453167626347, 1.3609493430332826, 1.3676485835974759,
    1.374343665773166, 1.381035211075855, 1.3877238356899757, 1.3944101509281406,
    1.4010947636792506, 1.4077782768463984, 1.4144612897754707, 1.4211443986753085,
    1.4278281970302555, 1.4345132760058918, 1.4412002248487237, 1.4478896312805758,
    1.45458208188841, 1.4612781625102753, 1.4679784586180793, 1.4746835556978553,
    1.481394039628187, 1.4881104970574472, 1.4948335157804935, 1.5015636851154637,
    1.5083015962813113, 1.5150478427767144, 1.5218030207609978, 1.528567729437712,
    1.5353425714415139, 1.5421281532290017, 1.5489250854741732, 1.5557339834691761,
    1.5625554675310445, 1.5693901634151233, 1.576238702735906, 1.583101723396029,
    1.5899798700241905, 1.5968737944227878, 1.6037841560260941, 1.6107116223698297,
    1.617656869573015, 1.624620582833034, 1.6316034569348727, 1.638606196775547,
    1.6456295179047817, 1.6526741470830553, 1.659740822858182, 1.666830296161665,
    1.6739433309261247, 1.6810807047251735, 1.688243209437195, 1.6954316519345614,
    1.702646854799923, 1.7098896570713016, 1.7171609150178229, 1.7244615029480448,
    1.7317923140529632, 1.7391542612859117, 1.7465482782817225, 1.7539753203176716,
    1.7614363653189102, 1.7689324149112684, 1.7764644955245228, 1.7840336595494415,
    1.7916409865521625, 1.7992875845497203, 1.8069745913508208, 1.8147031759662826,
    1.8224745400938858, 1.830289919682757, 1.8381505865828067, 1.8460578502851857,
    1.8540130597602023, 1.8620176053996746, 1.8700729210712674, 1.8781804862929965,
    1.8863418285367834, 1.8945585256707052, 1.9028322085504297, 1.9111645637712535,
    1.9195573365931882, 1.9280123340526658, 1.9365314282756947, 1.9451165600086784,
    1.9537697423846467, 1.962493064944363, 1.9712886979336592, 1.9801588969004766,
    1.989106007617438, 1.9981324713584196, 2.0072408305605287, 2.016433734906204,
    2.025713947863854, 2.035084353729619, 2.0445479652175313, 2.054107931650652,
    2.063767547811732, 2.0735302635187427, 2.083399693998304, 2.0933796311387916,
    2.1034740557148766, 2.1136871506866526, 2.1240233156895227, 2.134487182846016,
    2.145083634047888, 2.1558178198767366, 2.1666951803543077, 2.1777214677402923,
    2.1889027716263603, 2.200245546611276, 2.2117566428841604, 2.22344334009251,
    2.235313384929921, 2.247375032947389, 2.259637095173787, 2.2721089902283813,
    2.284800802724492, 2.2977233489028634, 2.310888250601372, 2.3243080188711325,
    2.3379961487965284, 2.3519672273791445, 2.366237056717291, 2.3808227951720857,
    2.3957431197819274, 2.4110184139011195, 2.4266709849371466, 2.442725318200364,
    2.459208374334705, 2.476149939670523, 2.4935830412710467, 2.511544441626694,
    2.530075232159854, 2.549221550324783, 2.5690354526818435, 2.589575986708286,
    2.610910518488823, 2.6331163936315822, 2.656283037576743, 2.6805146432857447,
    2.705933656123062, 2.7326853590440114, 2.7609440052799865, 2.7909211740019275,
    2.8228773968264433, 2.857138730873225, 2.8941210536134125, 2.934366867208888,
    2.9786032798818436, 3.027837791769594, 3.0835261320021434, 3.147889289518001,
    3.224575052047802, 3.320244733839826, 3.4492782985614316, 3.654152885361009,
)
_R = _EDGES[255]
_INV_R = 1.0 / _R  # equals numpy's literal 0.27366123732975828
_WI = np.array(_EDGES) / 2.0**52
_KI = np.array(
    [int(_R / _EDGES[0] * 2**52), 0]
    + [round(_EDGES[i - 1] / _EDGES[i] * 2**52) for i in range(2, 256)],
    dtype=np.uint64,
)
_FI = np.array([1.0] + [math.exp(-0.5 * e * e) for e in _EDGES[1:]])
_FI[38] = float.fromhex("0x1.5ad29acc85c89p-1")  # numpy's table is one ulp above exp

# Philox4x64 multipliers and key increments, one row per multiplied counter word
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], np.uint64)


def _hasher(hash_const: int, mult: int):
    """SeedSequence's running 32-bit hash, from its initial constant and multiplier."""

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * mult & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return result ^ result >> 16


def _philox_key(seed: int) -> tuple[int, int]:
    """numpy's SeedSequence(seed).generate_state(2, np.uint64), on Python ints."""
    if seed < 0:
        raise ValueError(f"expected non-negative integer, got {seed}")
    entropy = [seed >> k & _M32 for k in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in (entropy + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)  # generate_state's own hash
    state = [hashmix(word) for word in pool]
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _mulhilo(v: np.ndarray, m: np.ndarray, m_lo: np.ndarray, m_hi: np.ndarray):
    """High and low words of the 128-bit products v * m, from 32-bit halves."""
    v_lo, v_hi = v & _LOW, v >> _HALF
    carry = (v_lo * m_lo >> _HALF) + v_hi * m_lo  # < 2**64
    mid = (carry & _LOW) + v_lo * m_hi
    return v_hi * m_hi + (carry >> _HALF) + (mid >> _HALF), v * m


def _philox(key: tuple[int, int], first: int, count: int) -> np.ndarray:
    """The 4 * count words of Philox4x64-10 blocks first .. first + count - 1.

    even holds counter words 0 and 2, odd words 1 and 3. A round maps
    (c0, c1, c2, c3) to (hi2 ^ c1 ^ k0, lo2, hi0 ^ c3 ^ k1, lo0), where
    hi0, lo0 are the halves of c0 * M0 and hi2, lo2 those of c2 * M1.
    """
    even = np.zeros((2, count), np.uint64)
    even[0] = np.arange(first, first + count, dtype=np.uint64)
    odd = np.zeros((2, count), np.uint64)
    k = np.array(key, np.uint64)[:, None]
    m = np.repeat(_PHILOX_M, count, axis=1)  # full rows: a broadcast column is slower
    m_lo, m_hi = m & _LOW, m >> _HALF
    for _ in range(10):
        hi, lo = _mulhilo(even, m, m_lo, m_hi)
        even = hi[::-1]
        even ^= odd
        even ^= k
        odd = lo[::-1]
        k += _PHILOX_W
    out = np.empty((count, 4), np.uint64)
    out[:, 0::2], out[:, 1::2] = even.T, odd.T
    return out.reshape(-1)


class _Stream:
    """The Philox words of one key, a chunk at a time, each chunk decoded once.

    x holds every word's ziggurat value; rejects lists in order the words
    the fast path cannot accept, then the chunk size as a sentinel. pos is
    the next word to read.
    """

    def __init__(self, key: tuple[int, int]):
        self.key, self.block = key, 1
        self.words, self.pos = np.empty(0, np.uint64), 0  # the first read fills
        self.x, self.rejects, self.next = np.empty(0), [0], 0

    def fast_run(self) -> int:
        """How many words from pos on the fast path accepts in a row."""
        if self.pos == self.words.size:
            words = self.words = _philox(self.key, self.block, _CHUNK_BLOCKS)
            self.block += _CHUNK_BLOCKS
            self.pos = self.next = 0
            idx = (words & 0xFF).astype(np.intp)
            rabs = words >> 9 & _M52
            self.x = rabs * _WI[idx]
            np.negative(self.x, out=self.x, where=(words & 0x100).astype(bool))
            self.rejects = np.flatnonzero(rabs >= _KI[idx]).tolist() + [words.size]
        while self.rejects[self.next] < self.pos:  # skip words a slow draw read
            self.next += 1
        return self.rejects[self.next] - self.pos

    def word(self) -> int:
        if self.pos == self.words.size:
            self.fast_run()
        self.pos += 1
        return int(self.words[self.pos - 1])

    def double(self) -> float:
        return (self.word() >> 11) * 2.0**-53


def _slow_draw(stream: _Stream) -> float | None:
    """Finish a draw whose word the fast path rejects: None if numpy retries."""
    word = stream.word()
    idx, rabs = word & 0xFF, word >> 9 & _M52
    x = -(rabs * _WI[idx]) if word & 0x100 else rabs * _WI[idx]
    if idx == 0:  # the tail beyond R; numpy takes its sign from bit 8 of rabs
        while True:
            xx = -_INV_R * math.log1p(-stream.double())
            yy = -math.log1p(-stream.double())
            if yy + yy > xx * xx:
                return -(_R + xx) if rabs & 0x100 else _R + xx
    if (_FI[idx - 1] - _FI[idx]) * stream.double() + _FI[idx] < math.exp(-0.5 * x * x):
        return x
    return None


def standard_normal(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """Row-major standard normal draws of the seed's stream; seed must be >= 0.

    Besides the result, the temporaries are one chunk's words, values and
    Philox rounds, about 265 KiB (tracemalloc) whatever the shape.
    """
    out = np.empty(shape)
    flat, done = out.reshape(-1), 0
    stream = _Stream(_philox_key(seed))
    while done < flat.size:
        take = min(stream.fast_run(), flat.size - done)
        flat[done : done + take] = stream.x[stream.pos : stream.pos + take]
        stream.pos += take
        done += take
        if done < flat.size and stream.pos < stream.words.size:
            z = _slow_draw(stream)
            if z is not None:
                flat[done] = z
                done += 1
    out += 0.0  # numpy returns 0.0 + 1.0 * z, so -0.0 reads +0.0
    return out
