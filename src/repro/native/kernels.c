/* Native fused-kernel tier below the NumPy word engine.
 *
 * C99, no Python.h: the library is a plain shared object loaded via
 * ctypes (see repro/native/__init__.py), compiled at build or first
 * import by repro/native/build.py with whatever system toolchain is
 * present.  It holds one kernel per APC layer of the exact backend, the
 * Stanh walk and the ideal SNG; each is a bit-identical
 * re-implementation of a NumPy composition (ExactBackend's counting ->
 * pool -> Btanh -> pack, repro.sc.activation.stanh_packed, and
 * IdealSNG's PCG64 draw -> compare -> pack) — arming the tier must
 * change zero output bits, which the conformance suite enforces.
 *
 * Four design rules (DESIGN.md, "Native kernel tier"):
 *
 *  1. *One call per layer*: a pooled APC conv stage transposes each
 *     image once and runs cut -> count -> max or average pool ->
 *     Btanh -> pack per pool window, cutting every position's tile out
 *     of the transposed image by word shifts and never building its
 *     count tensor (repro_apc_conv_pool_btanh_pack); an APC FC layer —
 *     or an unpooled APC conv over its patch rows — runs count ->
 *     Btanh -> pack per row tile, or the output layer's count sums
 *     (repro_apc_fc_btanh_pack).
 *  2. *Tile* to the cache: the FC kernel re-reads its transposed input
 *     tile once per output channel, so the tile is sized (TILE_BYTES) to
 *     stay resident across the channel loop; the conv stage's
 *     transposed image, per-window tiles and count scratch fit L1/L2
 *     beside its bank.  Counting rows are laid out so the cycle loop
 *     vectorizes (count_layout: word-major for widths that are a
 *     multiple of 8 bytes).
 *  3. *Lay weights out once*: repro_layout_bank (the FC layout) and
 *     repro_layout_conv_bank (the conv stage's channel-minor layout,
 *     over weights permuted into its gather plan's tile order) write a
 *     weight bank when the backend is built, and every counting kernel
 *     reads that stored bank and plan — no call copies weights or
 *     re-derives a gather.
 *  4. *One lane per independent chain*: the conv stage's per-channel
 *     pool and Btanh counters step in lockstep, so they run one output
 *     channel per lane of GCC/Clang vector types (LANES; no intrinsics,
 *     so the tier needs a compiler with vector extensions and builds
 *     under either of build.py's flag sets).  A serial clamp chain per
 *     channel left the core waiting on its latency.
 *
 * All kernels are pure functions of their arguments writing distinct
 * output buffers, so concurrent calls from serving threads are safe
 * (and ctypes drops the GIL for the duration of each call).
 *
 * Conventions shared with the NumPy engine: packed streams are uint8,
 * stream axis last, big-endian bit order (bit t of a stream lives at
 * byte[t/8] >> (7 - t%8)), padding bits of the final byte are zero.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if !defined(__GNUC__) && !defined(__clang__)
#error "the native kernel tier needs GCC/Clang vector extensions"
#endif

#if defined(_WIN32)
#define API __declspec(dllexport)
#else
#define API __attribute__((visibility("default")))
#endif

/* ------------------------------------------------------------------ */
/* helpers                                                            */
/* ------------------------------------------------------------------ */

static inline int64_t popcnt64(uint64_t x)
{
    return (int64_t)__builtin_popcountll(x);
}

/* 8x8 bit-matrix transpose (Hacker's Delight 7-3).  Viewing the word
 * as 8 rows of 8 bits with row 0 in the most significant byte and
 * column 0 at each byte's most significant bit, the result is the
 * transposed matrix in the same convention — which is exactly the
 * big-endian packed layout on both sides. */
static inline uint64_t transpose8(uint64_t x)
{
    uint64_t t;
    t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAULL;  x ^= t ^ (t << 7);
    t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCULL; x ^= t ^ (t << 14);
    t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ULL; x ^= t ^ (t << 28);
    return x;
}

/* Bit-transpose n packed streams -> L cycle rows (out pre-zeroed).
 * Stream j is the row base + idx[j] * nbytes (base + j * nbytes when
 * idx is NULL), so a conv patch is read through its gather table
 * without first being copied out.  Byte col of cycle t lands at
 * out + t * tstride + (col / 8) * kstride + col % 8: (W, 8) gives the
 * row-major (L, W) layout, (8, 8 * L) the word-major (W / 8, L) one.
 * Streams are processed 8 at a time; each (8 streams x 8 cycles) block
 * is one transpose8. */
static void transpose_rows(const uint8_t *base, const int64_t *idx,
                           int64_t n, int64_t nbytes, int64_t L,
                           int64_t tstride, int64_t kstride, uint8_t *out)
{
    int64_t kmax = (L + 7) / 8;
    if (kmax > nbytes)
        kmax = nbytes;
    for (int64_t j0 = 0; j0 < n; j0 += 8) {
        int64_t jn = (n - j0 < 8) ? n - j0 : 8;
        int64_t col = j0 >> 3;
        const uint8_t *row[8];
        for (int64_t j = 0; j < jn; j++)
            row[j] = base + (idx ? idx[j0 + j] : j0 + j) * nbytes;
        uint8_t *ocol = out + (col >> 3) * kstride + (col & 7);
        for (int64_t k = 0; k < kmax; k++) {
            uint64_t x = 0;
            for (int64_t j = 0; j < jn; j++)
                x |= (uint64_t)row[j][k] << (8 * (7 - j));
            if (!x)
                continue;               /* out is pre-zeroed */
            uint64_t y = transpose8(x);
            int64_t t1 = L - 8 * k;
            if (t1 > 8)
                t1 = 8;
            uint8_t *o = ocol + (8 * k) * tstride;
            for (int64_t t = 0; t < t1; t++)
                o[t * tstride] = (uint8_t)(y >> (8 * (7 - t)));
        }
    }
}

/* Popcount of (a XOR b) over w bytes; memcpy loads keep it alignment-
 * safe and compile to plain word loads. */
static inline int64_t popcount_xor(const uint8_t *a, const uint8_t *b,
                                   int64_t w)
{
    int64_t c = 0, i = 0;
    for (; i + 8 <= w; i += 8) {
        uint64_t ua, ub;
        memcpy(&ua, a + i, 8);
        memcpy(&ub, b + i, 8);
        c += popcnt64(ua ^ ub);
    }
    for (; i + 4 <= w; i += 4) {
        uint32_t ua, ub;
        memcpy(&ua, a + i, 4);
        memcpy(&ub, b + i, 4);
        c += popcnt64((uint64_t)(ua ^ ub));
    }
    for (; i < w; i++)
        c += popcnt64((uint64_t)(a[i] ^ b[i]));
    return c;
}

/* ------------------------------------------------------------------ */
/* kernels                                                            */
/* ------------------------------------------------------------------ */

/* Counting layout of one transposed bank (DESIGN.md, "Native kernel
 * tier"): how the L cycle rows of W bytes are laid out and how each
 * cycle's count n - popcount(x ^ w) gets its APC LSB patch.
 *
 *  - W == 4 (n <= 32, e.g. LeNet-5's first conv layer): row-major, one
 *    32-bit word per cycle; the patch reads the last input's product
 *    bit out of the XOR word, so the loop is branch-free.
 *  - W % 8 == 0: word-major, word k of every cycle contiguous
 *    ((W / 8, L) uint64), so the cycle loop is a straight vector loop
 *    of XOR + popcount + add per word.
 *  - otherwise (W = 12, 20, ...): row-major, bytewise XOR-popcount.
 *
 * The patch (repro.sc.adders.apc_count): the output LSB is the exact
 * LSB XOR-ed with the last input's product bit, prod = 1 ^ xb ^ wb, so
 * the patched count is count ^ prod.  `lastmask` is that bit in the
 * host byte order of a loaded word (built through memcpy, so it holds
 * on either endianness). */
typedef struct {
    int64_t n, L, W;
    int64_t words;          /* W / 8 when word-major, else 0 */
    int64_t tstride, kstride;   /* transpose_rows strides of the layout */
    int64_t lastb, lastk;   /* byte of the last input; its word */
    int sh;                 /* its bit within that byte (MSB first) */
    uint64_t lastmask;      /* its bit within the loaded word */
} count_layout;

static count_layout make_layout(int64_t n, int64_t L, int64_t W)
{
    count_layout cl;
    uint8_t bytes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    cl.n = n;
    cl.L = L;
    cl.W = W;
    cl.words = (W % 8 == 0) ? W / 8 : 0;
    cl.tstride = cl.words ? 8 : W;
    cl.kstride = cl.words ? 8 * L : 8;
    cl.lastb = (n - 1) >> 3;
    cl.lastk = cl.lastb >> 3;
    cl.sh = 7 - (int)((n - 1) & 7);
    cl.lastmask = 0;
    if (W == 4) {
        uint32_t m;
        bytes[cl.lastb] = (uint8_t)(1u << cl.sh);
        memcpy(&m, bytes, 4);
        cl.lastmask = m;
    } else if (cl.words) {
        bytes[cl.lastb & 7] = (uint8_t)(1u << cl.sh);
        memcpy(&cl.lastmask, bytes, 8);
    }
    return cl;
}

static inline uint64_t load64(const uint8_t *p)
{
    uint64_t v;
    memcpy(&v, p, 8);
    return v;
}

/* Lay a packed weight bank (C, n, nbytes) out for counting: each
 * channel's n streams bit-transposed into the (L, W) cycle rows of
 * count_layout (word-major when W % 8 == 0).  The exact backend calls
 * this once per FC layer, output layer and unpooled APC conv at
 * construction (the pooled conv stages use repro_layout_conv_bank
 * instead); the FC kernel reads the stored bank as is, so no call copies
 * weights. */
API int repro_layout_bank(const uint8_t *w, int64_t C, int64_t n,
                          int64_t nbytes, int64_t L, int64_t W,
                          uint8_t *out)
{
    const count_layout cl = make_layout(n, L, W);
    memset(out, 0, (size_t)(C * L * W));
    for (int64_t c = 0; c < C; c++)
        transpose_rows(w + c * n * nbytes, NULL, n, nbytes, L, cl.tstride,
                       cl.kstride, out + c * L * W);
    return 0;
}

/* APC counts of one transposed input row block xr against one weight
 * channel wr (both in the layout of cl), LSB patched: out[t], t < L. */
static inline void count_cycles(const count_layout *cl, const uint8_t *xr,
                                const uint8_t *wr, int16_t *out)
{
    const int64_t n = cl->n, L = cl->L, W = cl->W;
    if (W == 4) {
        const uint32_t m = (uint32_t)cl->lastmask;
        for (int64_t t = 0; t < L; t++) {
            uint32_t ua, ub;
            memcpy(&ua, xr + 4 * t, 4);
            memcpy(&ub, wr + 4 * t, 4);
            uint32_t v = ua ^ ub;
            int64_t cnt = n - popcnt64((uint64_t)v);
            int prod = 1 ^ ((v & m) != 0);
            out[t] = (int16_t)(cnt ^ prod);
        }
    } else if (cl->words) {
        for (int64_t t = 0; t < L; t++)
            out[t] = (int16_t)n;
        for (int64_t k = 0; k < cl->words; k++) {
            const uint8_t *xk = xr + 8 * k * L, *wk = wr + 8 * k * L;
            for (int64_t t = 0; t < L; t++)
                out[t] = (int16_t)(out[t] - popcnt64(load64(xk + 8 * t)
                                                     ^ load64(wk + 8 * t)));
        }
        const uint8_t *xk = xr + 8 * cl->lastk * L;
        const uint8_t *wk = wr + 8 * cl->lastk * L;
        const uint64_t m = cl->lastmask;
        for (int64_t t = 0; t < L; t++) {
            uint64_t v = load64(xk + 8 * t) ^ load64(wk + 8 * t);
            out[t] = (int16_t)(out[t] ^ (1 ^ ((v & m) != 0)));
        }
    } else {
        const int64_t lastb = cl->lastb;
        const int sh = cl->sh;
        for (int64_t t = 0; t < L; t++) {
            const uint8_t *a = xr + t * W, *b = wr + t * W;
            int64_t cnt = n - popcount_xor(a, b, W);
            int prod = 1 ^ (((a[lastb] ^ b[lastb]) >> sh) & 1);
            out[t] = (int16_t)(cnt ^ prod);
        }
    }
}

/* Btanh + pack (repro.sc.activation.btanh_counts, then pack_bits) of K
 * APC count rows, row k at cnt + k * L, into the packed output rows
 * o + k * ostride: per row, state += 2*count - n clamped into [0, hi]
 * from init half, output bit t = state >= half, big-endian, padding
 * bits zero.  Each row's clamp chain is serial; K > 1 interleaves K
 * chains so each runs in the others' latency shadow (four rows at once
 * halved the chain time at LeNet-5 fc1's shapes).  Callers pass K as a
 * constant <= 4, so the inlined loop keeps every state in a register.
 * (The conv stage runs its chains one channel per SIMD lane instead:
 * pool_btanh_lanes.) */
static inline void btanh_pack_rows(int K, const int16_t *cnt, int64_t L,
                                   int64_t n, int64_t hi, int64_t half,
                                   uint8_t *o, int64_t ostride)
{
    int64_t s[4];
    unsigned acc[4];
    for (int k = 0; k < K; k++) {
        s[k] = half;
        acc[k] = 0;
    }
    for (int64_t t = 0; t < L; t++) {
        for (int k = 0; k < K; k++) {
            int64_t v = s[k] + 2 * (int64_t)cnt[k * L + t] - n;
            v = v < 0 ? 0 : v;
            s[k] = v > hi ? hi : v;
            acc[k] = (acc[k] << 1) | (unsigned)(s[k] >= half);
        }
        if ((t & 7) == 7)
            for (int k = 0; k < K; k++) {
                o[k * ostride + (t >> 3)] = (uint8_t)acc[k];
                acc[k] = 0;
            }
    }
    if (L & 7)
        for (int k = 0; k < K; k++)
            o[k * ostride + (L >> 3)] = (uint8_t)(acc[k] << (8 - (L & 7)));
}

/* Bytes of transposed input tile kept cache-resident across the
 * channel loop of the FC kernel. */
#define TILE_BYTES (1 << 19)

/* Rows of L x W transposed bytes per TILE_BYTES tile, in [1, R] (1 when
 * R is 0, so the scratch allocation is never empty). */
static int64_t tile_rows(int64_t R, int64_t L, int64_t W)
{
    int64_t Rb = TILE_BYTES / (L * W > 0 ? L * W : 1);
    if (Rb > R)
        Rb = R;
    return Rb < 1 ? 1 : Rb;
}

/* Transpose the rn input rows x[r0 .. r0 + rn) into buf, in the layout
 * of cl. */
static void transpose_tile(const count_layout *cl, const uint8_t *x,
                           int64_t r0, int64_t rn, int64_t nbytes,
                           uint8_t *buf)
{
    const int64_t n = cl->n, L = cl->L, W = cl->W;
    memset(buf, 0, (size_t)(rn * L * W));
    for (int64_t rr = 0; rr < rn; rr++)
        transpose_rows(x + (r0 + rr) * n * nbytes, NULL, n, nbytes, L,
                       cl->tstride, cl->kstride, buf + rr * L * W);
}

/* One APC fully-connected layer (ExactBackend._fc_layer), or an
 * unpooled APC conv over its patch rows (ExactBackend._conv_layer):
 * inner product -> APC count -> Btanh -> pack in one call, without the
 * (C, R, L) count tensor.
 *
 *   x[r, j, :]    (R, n, nbytes) packed input bank, bias row included
 *   bank          (C, L, W) weight bank laid out by repro_layout_bank
 *   bits[r, c, :] (R, C, nbytes) packed Btanh output bits, or, when
 *   sums is not NULL (the decoded output layer),
 *   sums[r, c]    (R, C) the APC counts summed over all L cycles.
 *
 * The input is transposed tile by tile (transpose_tile: rows of
 * TILE_BYTES, in the counting layout), then per channel the counts of every row of the tile go into an Rb x L int16
 * scratch before any Btanh chain starts (a count read right after its
 * vector store stalls the serial chain ~3x), and each row's chain packs
 * straight into its output row, already image-major. */
API int repro_apc_fc_btanh_pack(const uint8_t *x, int64_t R, int64_t n,
                                int64_t nbytes, const uint8_t *bank,
                                int64_t C, int64_t L, int64_t W,
                                int64_t n_states, uint8_t *bits,
                                int64_t *sums)
{
    const count_layout cl = make_layout(n, L, W);
    const int64_t Rb = tile_rows(R, L, W), ob = (L + 7) / 8;
    const int64_t hi = n_states - 1, half = n_states / 2;
    uint8_t *buf = (uint8_t *)malloc((size_t)(Rb * L * W));
    int16_t *cnt = (int16_t *)malloc((size_t)(Rb * L) * sizeof(int16_t));
    if (!buf || !cnt) {
        free(buf);
        free(cnt);
        return -1;
    }
    for (int64_t r0 = 0; r0 < R; r0 += Rb) {
        int64_t rn = (R - r0 < Rb) ? R - r0 : Rb;
        transpose_tile(&cl, x, r0, rn, nbytes, buf);
        for (int64_t c = 0; c < C; c++) {
            for (int64_t rr = 0; rr < rn; rr++)
                count_cycles(&cl, buf + rr * L * W, bank + c * L * W,
                             cnt + rr * L);
            int64_t rr = 0;
            if (sums) {
                for (; rr < rn; rr++) {
                    int64_t tot = 0;
                    for (int64_t t = 0; t < L; t++)
                        tot += cnt[rr * L + t];
                    sums[(r0 + rr) * C + c] = tot;
                }
            } else {
                for (; rr + 4 <= rn; rr += 4)
                    btanh_pack_rows(4, cnt + rr * L, L, n, hi, half,
                                    bits + ((r0 + rr) * C + c) * ob, C * ob);
                for (; rr < rn; rr++)
                    btanh_pack_rows(1, cnt + rr * L, L, n, hi, half,
                                    bits + ((r0 + rr) * C + c) * ob, C * ob);
            }
        }
    }
    free(buf);
    free(cnt);
    return 0;
}

/* Stanh byte-LUT walk (repro.sc.activation.stanh_packed): steps the
 * K-state FSM one packed byte per lookup through the caller-supplied
 * transition tables nxt/outb, each (n_states, 256) row-major uint8 —
 * the exact tables activation._stanh_tables caches.  last_mask
 * re-zeroes the padding bits of the final byte. */
API int repro_stanh_lut(const uint8_t *in, int64_t rows, int64_t nbytes,
                        const uint8_t *nxt, const uint8_t *outb,
                        int64_t init, uint8_t last_mask, uint8_t *out)
{
    for (int64_t r = 0; r < rows; r++) {
        const uint8_t *a = in + r * nbytes;
        uint8_t *o = out + r * nbytes;
        unsigned s = (unsigned)init;
        for (int64_t k = 0; k < nbytes; k++) {
            unsigned idx = (s << 8) | a[k];
            o[k] = outb[idx];
            s = nxt[idx];
        }
        o[nbytes - 1] &= last_mask;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* the ideal SNG: PCG64 stepped, compared and packed in one pass      */
/* ------------------------------------------------------------------ */

/* PCG64's 128-bit state word (a GCC/Clang type; __extension__ keeps
 * -std=c99 -pedantic quiet). */
__extension__ typedef unsigned __int128 u128;

#define PCG_MULT (((u128)0x2360ED051FC65DA4ULL << 64) | 0x4385DF649FCCF645ULL)

/* Interleaved PCG64 chains, and the values one row segment compares
 * (a multiple of 8, so segments start on a byte). */
#define SNG_CHAINS 4
#define SNG_SEGMENT 256

/* PCG64's XSL-RR 128/64 output of a state. */
static inline uint64_t pcg_output(u128 s)
{
    const uint64_t x = (uint64_t)(s >> 64) ^ (uint64_t)s;
    const unsigned r = (unsigned)(s >> 122);
    return (x >> r) | (x << ((64 - r) & 63));
}

/* Draws one value per chain into v, as 53-bit integers, and steps
 * each chain SNG_CHAINS values on. */
static inline void sng_round(u128 *ch, u128 mult, u128 step, uint64_t *v)
{
    for (int j = 0; j < SNG_CHAINS; j++) {
        v[j] = pcg_output(ch[j]) >> 11;
        ch[j] = ch[j] * mult + step;
    }
}

/* Packs the k comparisons v[i] < thr MSB-first into ceil(k/8) bytes. */
static inline void sng_pack(const uint64_t *v, int64_t k, uint64_t thr,
                            uint8_t *o)
{
    for (int64_t q = 0; q < k / 8; q++) {
        unsigned acc = 0;
        for (int b = 0; b < 8; b++)
            acc |= (unsigned)(v[8 * q + b] < thr) << (7 - b);
        o[q] = (uint8_t)acc;
    }
    if (k % 8) {
        unsigned acc = 0;
        for (int64_t i = k & ~(int64_t)7; i < k; i++)
            acc |= (unsigned)(v[i] < thr) << (7 - (i & 7));
        o[k / 8] = (uint8_t)acc;
    }
}

/* Ideal SNG (repro.sc.rng.IdealSNG.generate): rows x L values of
 * NumPy's PCG64 in C order, exactly what Generator.random((rows, L))
 * draws, with bit t of row r set when value (r, t) is below that row's
 * probability, packed MSB-first into out (rows, ceil(L/8)).  random()
 * returns (next64 >> 11) * 2^-53, so u < p <=> (next64 >> 11) <
 * thresholds[r] = ceil(p * 2^53) (0 for NaN or p <= 0, 2^53 for
 * p >= 1; computed by the caller).  state is {state_hi, state_lo,
 * inc_hi, inc_lo} and is left where random() would leave it.
 *
 * Value i comes from chain i % SNG_CHAINS, which holds the state of the
 * next value it produces and steps SNG_CHAINS values at a time, so the
 * chains' 128-bit multiplies do not wait on each other.  Values are
 * drawn in whole rounds, one per chain, into buf; the at most
 * SNG_CHAINS - 1 a row segment leaves over start the next one, and the
 * state of the last value is kept from the round that drew it. */
API int repro_sng_pcg64_pack(uint64_t *state, const uint64_t *thresholds,
                             int64_t rows, int64_t L, uint8_t *out)
{
    const u128 inc = ((u128)state[2] << 64) | state[3];
    const u128 m2 = PCG_MULT * PCG_MULT;
    const u128 mult = m2 * m2;
    const u128 step = inc * (m2 * PCG_MULT + m2 + PCG_MULT + 1);
    const int64_t nbytes = (L + 7) / 8;
    u128 s = ((u128)state[0] << 64) | state[1];
    u128 ch[SNG_CHAINS], last = s;
    uint64_t buf[SNG_SEGMENT + SNG_CHAINS];
    int64_t have = 0, left = rows * L;      /* values not yet drawn */

    for (int j = 0; j < SNG_CHAINS; j++) {
        s = s * PCG_MULT + inc;
        ch[j] = s;
    }
    for (int64_t r = 0; r < rows; r++) {
        for (int64_t t = 0; t < L; t += SNG_SEGMENT) {
            const int64_t k = L - t < SNG_SEGMENT ? L - t : SNG_SEGMENT;
            const int64_t rounds = (k - have + SNG_CHAINS - 1) / SNG_CHAINS;
            /* the call's last value falls in this segment's last round */
            const int final = rounds > 0 && left <= SNG_CHAINS * rounds;
            uint64_t *v = buf + have;
            for (int64_t i = 0; i < rounds - final; i++, v += SNG_CHAINS)
                sng_round(ch, mult, step, v);
            if (final) {
                last = ch[left - SNG_CHAINS * (rounds - 1) - 1];
                sng_round(ch, mult, step, v);
            }
            left -= SNG_CHAINS * rounds;
            have += SNG_CHAINS * rounds;
            sng_pack(buf, k, thresholds[r], out + r * nbytes + t / 8);
            have -= k;
            for (int64_t i = 0; i < have; i++)
                buf[i] = buf[k + i];
        }
    }
    state[0] = (uint64_t)(last >> 64);
    state[1] = (uint64_t)last;
    return 0;
}

/* ------------------------------------------------------------------ */
/* the APC conv stage: one SIMD lane per output channel               */
/* ------------------------------------------------------------------ */

/* Channels per lane group.  The conv stage runs every output channel's
 * pool and Btanh counter in one lane of GCC/Clang vector types (no
 * intrinsics) and pads the channel axis of its bank and count scratch to
 * a multiple of LANES.  What keeps GCC 12 from lowering the lanes to
 * scalar or shuffle-bound code (both measured):
 *
 *  - no vector is wider than one AVX-512 register, so a group's int64
 *    lanes are two vectors of HLANES, whose clamp chains run in each
 *    other's latency shadow;
 *  - no lane is widened by a conversion: __builtin_convertvector lowers
 *    a widening to shuffles that all queue on one port.  The counts are
 *    int32 lanes, and int32 -> int64 splits the even and odd lanes with
 *    shifts (LO64/HI64): on a little-endian target the int64 half h
 *    holds channels 2i + h, and JOIN32 undoes the split on any. */
#define LANES 16
#define HLANES 8

typedef int32_t i32xL __attribute__((vector_size(4 * LANES)));
typedef uint32_t u32xL __attribute__((vector_size(4 * LANES)));
typedef int64_t i64xH __attribute__((vector_size(8 * HLANES)));
typedef uint64_t u64xH __attribute__((vector_size(8 * HLANES)));

/* The even (LO64) and odd (HI64) int32 lanes of v, sign-extended to
 * int64 lanes; JOIN32 is their inverse (its halves must fit int32). */
#define LO64(v) ((i64xH)((u64xH)(v) << 32) >> 32)
#define HI64(v) ((i64xH)(v) >> 32)
#define JOIN32(lo, hi) \
    ((i32xL)(((u64xH)(lo) & 0xFFFFFFFFu) | ((u64xH)(hi) << 32)))

/* Counting chunks: one 256-bit vector of bank words.  Compilers
 * vectorize a lane popcount only up to their preferred vector width
 * (256 bits for GCC on x86), so the count loop runs in these. */
#define CHUNK_BYTES 32
typedef uint32_t u32xC __attribute__((vector_size(CHUNK_BYTES)));
typedef uint64_t u64xC __attribute__((vector_size(CHUNK_BYTES)));
typedef int32_t i32xC32 __attribute__((vector_size(CHUNK_BYTES)));
typedef int32_t i32xC64 __attribute__((vector_size(CHUNK_BYTES / 2)));

/* C channels padded to whole lane groups. */
static int64_t lane_pad(int64_t C)
{
    return (C + LANES - 1) / LANES * LANES;
}

/* Word bytes of a conv lane bank of W-byte cycle rows: the u64 words of
 * count_layout when W % 8 == 0, else u32 (W is a multiple of 4). */
static int64_t lane_word(int64_t W)
{
    return W % 8 ? 4 : 8;
}

/* MSB-first loads: bit i of the packed byte row at p is bit 63 - i
 * (31 - i) of the word, on either endianness.  GCC and Clang compile
 * the shifts to one load and a byte swap. */
static inline uint64_t load_be64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; i++)
        v = (v << 8) | p[i];
    return v;
}

static inline uint32_t load_be32(const uint8_t *p)
{
    return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16)
        | ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

/* Lay a packed weight bank (C, n, nbytes) out for the conv stage: each
 * channel's n streams bit-transposed into W-byte cycle rows, split into
 * MSB-first words of lane_word(W) bytes (input i of word k at bit
 * 8 * ws - 1 - i, i.e. input 8 * ws * k + i) and stored channel-minor
 * as (words, L, Cp) — word k of channel c's row t at (k * L + t) * Cp
 * + c — with Cp = lane_pad(C) and the padding channels zero.  The exact
 * backend calls this once per fused conv layer at construction, on the
 * weights permuted into its gather plan's tile order. */
API int repro_layout_conv_bank(const uint8_t *w, int64_t C, int64_t n,
                               int64_t nbytes, int64_t L, int64_t W,
                               uint8_t *out)
{
    const int64_t ws = lane_word(W), words = W / ws, Cp = lane_pad(C);
    uint8_t *row = (uint8_t *)malloc((size_t)(L * W));
    if (!row)
        return -1;
    memset(out, 0, (size_t)(words * L * Cp * ws));
    for (int64_t c = 0; c < C; c++) {
        memset(row, 0, (size_t)(L * W));
        transpose_rows(w + c * n * nbytes, NULL, n, nbytes, L, W, 8, row);
        for (int64_t k = 0; k < words; k++)
            for (int64_t t = 0; t < L; t++) {
                const uint8_t *src = row + t * W + k * ws;
                const int64_t at = (k * L + t) * Cp + c;
                if (ws == 8)
                    ((uint64_t *)out)[at] = load_be64(src);
                else
                    ((uint32_t *)out)[at] = load_be32(src);
            }
    }
    free(row);
    return 0;
}

/* Bit-transpose one image of S packed streams into img: stream image[q]
 * (the input row at image position q) becomes bit 63 - q % 64 of word
 * q / 64 of every cycle, stored word-major — word k of cycle t at
 * img[k * L + t] — for ceil(S / 64) words, followed by one zero pad
 * word of L cycles, so a funnel shift from any position reads inside
 * the buffer. */
static void transpose_image(const uint8_t *xb, const int64_t *image,
                            int64_t S, int64_t nbytes, int64_t L,
                            uint64_t *img)
{
    const int64_t iw = (S + 63) / 64;
    memset(img, 0, (size_t)((iw + 1) * L) * sizeof(uint64_t));
    transpose_rows(xb, image, S, nbytes, L, 8, 8 * L, (uint8_t *)img);
    for (int64_t i = 0; i < iw * L; i++)
        img[i] = load_be64((const uint8_t *)(img + i));
}

/* Cut one conv position's tile out of a transposed image: run r copies
 * runs[r] consecutive image positions from src[r] on to the next
 * runs[r] tile inputs, for all L cycles.  Tile input i is bit
 * 63 - i % 64 of word i / 64, word-major like the image (T64 words of
 * L cycles).  A run is cut at tile word boundaries; each piece is one
 * two-word funnel shift (word b is read even when the piece starts on a
 * word boundary: the pad word keeps it in bounds), a mask and a store
 * — the first piece of a tile word stores, the others OR — in a loop
 * over cycles the compiler vectorizes. */
static void cut_tile(const uint64_t *img, int64_t L, const int64_t *runs,
                     int64_t R, const int64_t *src, uint64_t *tile)
{
    int64_t d = 0;
    for (int64_t r = 0; r < R; r++) {
        int64_t s = src[r], len = runs[r];
        while (len > 0) {
            const int ds = (int)(d & 63), sh = (int)(s & 63);
            const int64_t l = len < 64 - ds ? len : 64 - ds;
            const uint64_t m = (~(uint64_t)0 << (64 - l)) >> ds;
            const uint64_t *restrict a = img + (s >> 6) * L;
            const uint64_t *restrict b = a + L;
            uint64_t *restrict o = tile + (d >> 6) * L;
            /* b >> 1 >> (63 - sh) is b >> (64 - sh), and 0 at sh = 0 */
            if (ds == 0)
                for (int64_t t = 0; t < L; t++)
                    o[t] = ((a[t] << sh) | (b[t] >> 1 >> (63 - sh))) & m;
            else
                for (int64_t t = 0; t < L; t++)
                    o[t] |= (((a[t] << sh) | (b[t] >> 1 >> (63 - sh))) >> ds)
                        & m;
            d += l;
            s += l;
            len -= l;
        }
    }
}

/* APC counts of one pool window, channel-minor: the 4 tiles of a window
 * (cut_tile's layout, T64 words of L cycles each, tile p at
 * tile + p * T64 * L) against every channel of a conv lane bank (words
 * of T; word k of cycle t's Cp channels at bank + (k * L + t) * Cp),
 * into cnt[(p * L + t) * Cp + c]:
 *
 *   cnt = n - popcount(x ^ w), LSB patched from the last input's product
 *   bit (word lastk, bit mask), wrapped to int16 as the NumPy oracle's
 *   counts are, held in int32 lanes.
 *
 * All four positions share bank row t, so each bank chunk is loaded
 * once and counted against the four tile words.  A lane group's chunks
 * accumulate their popcounts in registers across the words; chunks
 * holding only padding channels are skipped (their counts stay as the
 * caller zeroed them).  V is the chunk vector of T, NL its lanes,
 * XWORD(row, k, L) word k of a tile row, TO32 stores a chunk as int32
 * lanes. */
#define DEFINE_COUNT_LANES(name, T, V, NL, POPCNT, XWORD, TO32)           \
static void name(const uint64_t *tile, const T *bank, int64_t L,          \
                 int64_t T64, int64_t C, int64_t Cp, int64_t words,       \
                 int64_t lastk, T mask, int64_t n, int32_t *cnt)          \
{                                                                         \
    const V nv = (V){0} + (T)n, mv = (V){0} + mask;                       \
    for (int64_t t = 0; t < L; t++) {                                     \
        const uint64_t *xr[4];                                            \
        T xl[4];                                                          \
        for (int p = 0; p < 4; p++) {                                     \
            xr[p] = tile + p * T64 * L + t;                               \
            xl[p] = XWORD(xr[p], lastk, L);                               \
        }                                                                 \
        const T *bt = bank + t * Cp;                                      \
        for (int64_t g = 0; g < C; g += LANES) {                          \
            const int64_t qn = (C - g + (NL) - 1) / (NL);                 \
            V acc[4][LANES / (NL)];                                       \
            for (int p = 0; p < 4; p++)                                   \
                for (int q = 0; q < LANES / (NL); q++)                    \
                    acc[p][q] = (V){0};                                   \
            for (int64_t k = 0; k < words; k++) {                         \
                T x[4];                                                   \
                for (int p = 0; p < 4; p++)                               \
                    x[p] = XWORD(xr[p], k, L);                            \
                const T *b = bt + k * L * Cp + g;                         \
                for (int q = 0; q < LANES / (NL); q++) {                  \
                    V v;                                                  \
                    if (q >= qn)                                          \
                        break;                                            \
                    memcpy(&v, b + q * (NL), sizeof v);                   \
                    for (int p = 0; p < 4; p++) {                         \
                        V u = v ^ x[p];                                   \
                        T a[NL];                                          \
                        memcpy(a, &u, sizeof u);                          \
                        for (int i = 0; i < (NL); i++)                    \
                            a[i] = (T)POPCNT(a[i]);                       \
                        memcpy(&u, a, sizeof u);                          \
                        acc[p][q] += u;                                   \
                    }                                                     \
                }                                                         \
            }                                                             \
            const T *b = bt + lastk * L * Cp + g;                         \
            for (int q = 0; q < LANES / (NL); q++) {                      \
                V w;                                                      \
                if (q >= qn)                                              \
                    break;                                                \
                memcpy(&w, b + q * (NL), sizeof w);                       \
                for (int p = 0; p < 4; p++) {                             \
                    V c = (nv - acc[p][q])                                \
                        ^ ((V)(((w ^ xl[p]) & mv) == 0) & 1);             \
                    TO32(c, cnt + (p * L + t) * Cp + g + q * (NL));       \
                }                                                         \
            }                                                             \
        }                                                                 \
    }                                                                     \
}

#define STORE32_FROM32(c, o) do {                                         \
    i32xC32 c32_ = ((i32xC32)(c) << 16) >> 16;                            \
    memcpy((o), &c32_, sizeof c32_);                                      \
} while (0)
#define STORE32_FROM64(c, o) do {                                         \
    i32xC64 c32_ = (__builtin_convertvector((c), i32xC64) << 16) >> 16;  \
    memcpy((o), &c32_, sizeof c32_);                                      \
} while (0)

/* Word k of a tile row whose u64 words lie L apart: u64 words as
 * stored; u32 word k is the high (even k) or low (odd k) half of u64
 * word k / 2. */
#define XWORD64(row, k, L) ((row)[(k) * (L)])
#define XWORD32(row, k, L) \
    ((uint32_t)((row)[((k) >> 1) * (L)] >> (((k) & 1) ? 0 : 32)))

DEFINE_COUNT_LANES(count_lanes32, uint32_t, u32xC, CHUNK_BYTES / 4,
                   __builtin_popcount, XWORD32, STORE32_FROM32)
DEFINE_COUNT_LANES(count_lanes64, uint64_t, u64xC, CHUNK_BYTES / 8,
                   popcnt64, XWORD64, STORE32_FROM64)

/* Cycles an int32 running sum of int16-valued counts can take without
 * overflow (2^16 * 2^15 = 2^31). */
#define SUM32_CYCLES 65536

/* Stores the low byte of lane i < lanes of the int32 lanes v at
 * o + i * stride. */
static void store_lane_bytes(const i32xL *v, int64_t lanes, uint8_t *o,
                             int64_t stride)
{
    int32_t b[LANES];
    memcpy(b, v, sizeof b);
    for (int64_t i = 0; i < lanes; i++)
        o[i * stride] = (uint8_t)b[i];
}

/* Pool kinds of the conv stage (its `pool` argument): the accumulator
 * max pool of APC-Max-Btanh or the rounded average of APC-Avg-Btanh. */
#define POOL_MAX 0
#define POOL_AVG 1

/* APC-Max-Btanh or APC-Avg-Btanh (Section 4.4) of one pool window for
 * LANES channels at once, one channel per lane:
 *
 *   cnt[(k * L + t) * Cp + i]   count of candidate k < 4 at cycle t,
 *                               lane i (the window's count scratch)
 *   o[i * ostride + 0 .. nb)    packed Btanh output of lane i < lanes
 *
 * in one pass per lane: the pool, the Btanh saturating counter over the
 * pooled counts (state += 2*count - n clamped into [0, hi], init and
 * threshold half, output bit = state >= half) and the big-endian pack,
 * padding bits zero.  One byte per lane is stored every 8 cycles.  The
 * pool is
 *
 *  - POOL_MAX, the accumulator max pool of blocks.pooling.apc_max_pool:
 *    segment 0 takes candidate 0; segment j > 0 takes the first-index
 *    argmax of the candidates' totals through segment j - 1 (L must be
 *    a multiple of segment);
 *  - POOL_AVG, blocks.pooling.apc_average_pool with "nearest" rounding:
 *    (c0 + c1 + c2 + c3 + 2) >> 2 per cycle, an arithmetic shift, so it
 *    floors as the oracle's // does (callers pass segment = L).
 *
 * Callers pass `pool` as a literal, so each inlined copy keeps only its
 * own pool's code.
 *
 * Lane widths: the state is int64 — before its clamp it reaches
 * min(hi, half + n * t) + n at cycle t, inside int64 for every n_states;
 * the candidates' totals are int64 (they reach n * L), fed by int32
 * sums flushed every segment or SUM32_CYCLES cycles; the counts, their
 * 4-sum and the increment 2*count - n are int32, the increment wrapping
 * as the NumPy oracle's int32 does.  The clamps and the threshold test
 * are sign shifts (x >> 63 is -1 exactly when x < 0), which keeps the
 * serial chain in plain vector arithmetic. */
static inline __attribute__((always_inline)) void
pool_btanh_lanes(int pool, const int32_t *cnt, int64_t Cp, int64_t L,
                 int64_t segment, int64_t n, int64_t hi, int64_t half,
                 int64_t lanes, uint8_t *o, int64_t ostride)
{
    const i64xH zero = {0};
    const i64xH hiv = zero + hi, below = zero + (half - 1);
    const u32xL n32 = (u32xL){0} + (uint32_t)n;
    i64xH s[2] = {zero + half, zero + half}, acc[2] = {zero, zero};
    i64xH tot[4][2] = {{zero, zero}, {zero, zero}, {zero, zero},
                       {zero, zero}};
    /* One-hot source masks: lane i reads candidate k where sel[k][i]. */
    i32xL sel[4] = {{0}, {0}, {0}, {0}};
    sel[0] = sel[0] - 1;
    for (int64_t j0 = 0; j0 < L; j0 += segment) {
        const int64_t j1 = j0 + segment;
        for (int64_t b0 = j0; b0 < j1; b0 += SUM32_CYCLES) {
            const int64_t b1 = j1 - b0 > SUM32_CYCLES ? b0 + SUM32_CYCLES
                                                      : j1;
            i32xL sum[4] = {{0}, {0}, {0}, {0}};
            for (int64_t t = b0; t < b1; t++) {
                i32xL c[4];
                for (int k = 0; k < 4; k++) {
                    memcpy(&c[k], cnt + (k * L + t) * Cp, sizeof c[k]);
                    if (pool == POOL_MAX)
                        sum[k] += c[k];
                }
                u32xL src;
                if (pool == POOL_AVG)
                    src = (u32xL)((c[0] + c[1] + c[2] + c[3] + 2) >> 2);
                else
                    src = (u32xL)((c[0] & sel[0]) | (c[1] & sel[1])
                                  | (c[2] & sel[2]) | (c[3] & sel[3]));
                i32xL inc = (i32xL)(2 * src - n32);
                i64xH d[2] = {LO64(inc), HI64(inc)};
                for (int h = 0; h < 2; h++) {
                    i64xH v = s[h] + d[h];
                    v &= ~(v >> 63);
                    s[h] = v ^ ((v ^ hiv) & ((hiv - v) >> 63));
                    acc[h] = acc[h] + acc[h] - ((below - s[h]) >> 63);
                }
                if ((t & 7) == 7) {
                    i32xL bits = JOIN32(acc[0], acc[1]);
                    store_lane_bytes(&bits, lanes, o + (t >> 3), ostride);
                    acc[0] = acc[1] = zero;
                }
            }
            if (pool == POOL_MAX)
                for (int k = 0; k < 4; k++) {
                    tot[k][0] += LO64(sum[k]);
                    tot[k][1] += HI64(sum[k]);
                }
        }
        if (pool == POOL_AVG)
            continue;
        i64xH m[4][2];
        for (int h = 0; h < 2; h++) {
            i64xH best = tot[0][h];
            i64xH g1 = tot[1][h] > best;
            best = (tot[1][h] & g1) | (best & ~g1);
            i64xH g2 = tot[2][h] > best;
            best = (tot[2][h] & g2) | (best & ~g2);
            i64xH g3 = tot[3][h] > best;
            m[0][h] = ~(g1 | g2 | g3);
            m[1][h] = g1 & ~(g2 | g3);
            m[2][h] = g2 & ~g3;
            m[3][h] = g3;
        }
        for (int k = 0; k < 4; k++)
            sel[k] = JOIN32(m[k][0], m[k][1]);
    }
    if (L & 7) {
        i32xL bits = JOIN32(acc[0], acc[1]) << (8 - (L & 7));
        store_lane_bytes(&bits, lanes, o + (L >> 3), ostride);
    }
}

/* One pooled APC conv stage (ExactBackend._conv_layer): inner product
 * -> APC count -> max or average pool -> Btanh -> pack, per pool
 * window, without the (C, B, P, L) count tensor.
 *
 *   x[b, s, :]       (B, S, nbytes) packed input bank, bias row included
 *   image[q]         (S,) input row at image position q
 *   runs[r]          (R,) bits of tile run r, in tile order (sum n)
 *   sources[p, r]    (P, R) image position of run r's first input at
 *                    conv position p (the run reads sources[p, r] ..
 *                    sources[p, r] + runs[r] - 1)
 *   bank             (words, L, Cp) conv lane bank laid out by
 *                    repro_layout_conv_bank, inputs in tile order
 *   windows[w, 0..3] (Wn, 4) positions in [0, P) of each 2x2 window
 *   pool, segment    POOL_MAX with its segment (L a multiple of it), or
 *                    POOL_AVG (segment unread)
 *   out[b, c, w, :]  (B, C, Wn, nbytes) packed Btanh output bits,
 *                    image-major
 *
 * Per image, the S rows are transposed once, through the image order,
 * into a word-major buffer (transpose_image).  Per window, each of its
 * four positions' tiles is cut out of that buffer by word shifts, one
 * run at a time (cut_tile); the tiles are counted against every channel
 * at once into a (4, L, Cp) int32 scratch, channel-minor
 * (count_lanes); only then does pool_btanh_lanes run per group of LANES
 * channels, storing each channel's byte every 8 cycles.  Finishing the
 * counts first keeps their stores out of the counters' serial clamp
 * chains.  Working set per window: the image buffer
 * 8 * (ceil(S / 64) + 1) * L bytes, tiles 32 * T64 * L bytes, scratch
 * 16 * L * Cp bytes and the bank L * W * Cp bytes — at LeNet-5 layer 1,
 * L = 64: 24 KiB + 16 KiB + 64 KiB in L1/L2 beside a 256 KiB
 * L2-resident bank.  Every allocation is freed on every return. */
API int repro_apc_conv_pool_btanh_pack(const uint8_t *x, int64_t B,
                                       int64_t S, int64_t nbytes,
                                       const int64_t *image,
                                       const int64_t *runs, int64_t R,
                                       const int64_t *sources, int64_t n,
                                       const uint8_t *bank,
                                       int64_t C, int64_t L, int64_t W,
                                       const int64_t *windows, int64_t Wn,
                                       int pool, int64_t segment,
                                       int64_t n_states, uint8_t *out)
{
    const int64_t ws = lane_word(W), words = W / ws, Cp = lane_pad(C);
    const int64_t ob = (L + 7) / 8, lastk = (n - 1) / (8 * ws);
    const int64_t hi = n_states - 1, half = n_states / 2;
    const int64_t T64 = (n + 63) / 64, iw = (S + 63) / 64;
    const uint64_t m64 = (uint64_t)1 << (63 - (n - 1) % 64);
    const uint32_t m32 = (uint32_t)1 << (31 - (n - 1) % 32);
    uint64_t *img = (uint64_t *)malloc((size_t)((iw + 1) * L)
                                       * sizeof(uint64_t));
    uint64_t *tile = (uint64_t *)malloc((size_t)(4 * T64 * L)
                                        * sizeof(uint64_t));
    int32_t *cnt = (int32_t *)calloc((size_t)(4 * L * Cp), sizeof(int32_t));
    if (!img || !tile || !cnt) {
        free(img);
        free(tile);
        free(cnt);
        return -1;
    }
    for (int64_t b = 0; b < B; b++) {
        transpose_image(x + b * S * nbytes, image, S, nbytes, L, img);
        for (int64_t w = 0; w < Wn; w++) {
            for (int k = 0; k < 4; k++)
                cut_tile(img, L, runs, R, sources + windows[4 * w + k] * R,
                         tile + k * T64 * L);
            if (ws == 8)
                count_lanes64(tile, (const uint64_t *)bank, L, T64, C, Cp,
                              words, lastk, m64, n, cnt);
            else
                count_lanes32(tile, (const uint32_t *)bank, L, T64, C, Cp,
                              words, lastk, m32, n, cnt);
            for (int64_t g = 0; g < C; g += LANES) {
                const int64_t lanes = C - g < LANES ? C - g : LANES;
                uint8_t *o = out + ((b * C + g) * Wn + w) * ob;
                if (pool == POOL_AVG)
                    pool_btanh_lanes(POOL_AVG, cnt + g, Cp, L, L, n, hi,
                                     half, lanes, o, Wn * ob);
                else
                    pool_btanh_lanes(POOL_MAX, cnt + g, Cp, L, segment, n,
                                     hi, half, lanes, o, Wn * ob);
            }
        }
    }
    free(img);
    free(tile);
    free(cnt);
    return 0;
}
