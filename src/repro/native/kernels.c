/* Native fused-kernel tier below the NumPy word engine.
 *
 * C99, no Python.h: the library is a plain shared object loaded via
 * ctypes (see repro/native/__init__.py), compiled at build or first
 * import by repro/native/build.py with whatever system toolchain is
 * present.  Every kernel here is a bit-identical re-implementation of a
 * NumPy word-engine loop (repro.sc.ops / adders / fsm / activation, the
 * exact backend's transposed counting, its APC conv stage with max
 * pooling and its APC FC layer) — arming the tier must change zero
 * output bits, which the conformance suite enforces.
 *
 * Three design rules (DESIGN.md, "Native kernel tier"):
 *
 *  1. *Fuse* the loops NumPy cannot: the transpose_pack + popcount_sum
 *     pair becomes one pass that never materializes the transposed
 *     bank (repro_column_counts), the exact backend's inner product
 *     transposes a cache-resident tile and XOR-popcounts it in place
 *     (repro_apc_inner_counts), a pooled APC conv stage runs
 *     gather -> count -> max pool -> Btanh -> pack per pool window
 *     without ever building its count tensor
 *     (repro_apc_conv_max_btanh_pack), and an APC FC layer runs
 *     count -> Btanh -> pack per row tile, or the output layer's count
 *     sums, the same way (repro_apc_fc_btanh_pack).
 *  2. *Tile* to the cache: the inner-product kernels re-read their
 *     transposed input tile once per output channel, so the tile is
 *     sized (TILE_BYTES) to stay resident across the channel loop; the
 *     conv stage's per-window tile and count scratch fit L1/L2 beside
 *     the weight bank.  Counting rows are laid out so the cycle loop
 *     vectorizes (count_layout: word-major for widths that are a
 *     multiple of 8 bytes).
 *  3. *Lay weights out once*: repro_layout_bank writes a weight bank in
 *     the counting layout when the backend is built, and every
 *     counting kernel reads that stored bank — no call copies weights.
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

#if defined(_WIN32)
#define API __declspec(dllexport)
#else
#define API __attribute__((visibility("default")))
#endif

/* ------------------------------------------------------------------ */
/* tables                                                             */
/* ------------------------------------------------------------------ */

/* spread_tab[b]: the 8 bits of b spread into the 8 byte lanes of a
 * uint64 — byte lane t holds bit (7 - t), i.e. *cycle* t of the packed
 * big-endian byte.  Adding spread words accumulates eight per-cycle
 * column counters in parallel; lanes saturate only after 255 adds, so
 * the column counter flushes into int32 totals every 255 streams. */
static uint64_t spread_tab[256];
static uint8_t pc8[256];

static void init_tables(void)
{
    for (int b = 0; b < 256; b++) {
        uint64_t v = 0;
        int ones = 0;
        for (int t = 0; t < 8; t++) {
            uint64_t bit = (uint64_t)((b >> (7 - t)) & 1);
            v |= bit << (8 * t);
            ones += (int)bit;
        }
        spread_tab[b] = v;
        pc8[b] = (uint8_t)ones;
    }
}

#if defined(__GNUC__) || defined(__clang__)
__attribute__((constructor)) static void ctor_tables(void) { init_tables(); }
#else
static int tables_ready = 0;
#define ENSURE_TABLES() do { if (!tables_ready) { init_tables(); tables_ready = 1; } } while (0)
#endif
#ifndef ENSURE_TABLES
#define ENSURE_TABLES() do { } while (0)
#endif

/* ------------------------------------------------------------------ */
/* helpers                                                            */
/* ------------------------------------------------------------------ */

static inline int64_t popcnt64(uint64_t x)
{
#if defined(__GNUC__) || defined(__clang__)
    return (int64_t)__builtin_popcountll(x);
#else
    int64_t c = 0;
    while (x) { x &= x - 1; c++; }
    return c;
#endif
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
        c += pc8[a[i] ^ b[i]];
    return c;
}

/* ------------------------------------------------------------------ */
/* kernels                                                            */
/* ------------------------------------------------------------------ */

/* transpose_pack: packed bank (R, n, nbytes) -> (R, L, W), row t of
 * each output block holding the n streams' bits at cycle t (big-endian,
 * zero-padded to W bytes).  Drop-in for repro.sc.ops.transpose_pack. */
API int repro_transpose_pack(const uint8_t *in, int64_t R, int64_t n,
                             int64_t nbytes, int64_t L, int64_t W,
                             uint8_t *out)
{
    ENSURE_TABLES();
    memset(out, 0, (size_t)(R * L * W));
    for (int64_t r = 0; r < R; r++)
        transpose_rows(in + r * n * nbytes, NULL, n, nbytes, L, W, 8,
                       out + r * L * W);
    return 0;
}

/* Per-row popcount: (rows, nbytes) -> int64 counts.  Backs both
 * ops.popcount and ops.popcount_sum (identical on zero-padded data). */
API int repro_popcount_rows(const uint8_t *in, int64_t rows, int64_t nbytes,
                            int64_t *out)
{
    ENSURE_TABLES();
    for (int64_t r = 0; r < rows; r++) {
        const uint8_t *a = in + r * nbytes;
        int64_t c = 0, i = 0;
        for (; i + 8 <= nbytes; i += 8) {
            uint64_t u;
            memcpy(&u, a + i, 8);
            c += popcnt64(u);
        }
        for (; i < nbytes; i++)
            c += pc8[a[i]];
        out[r] = c;
    }
    return 0;
}

/* Fused transpose_pack + popcount_sum: per-cycle column counts of a
 * packed bank (R, n, nbytes) -> (R, L) int16, without materializing
 * the transposed bank.  Eight cycle counters ride the byte lanes of
 * one uint64 accumulator per byte position (see spread_tab); lanes
 * flush into int32 totals every 255 streams.  `approximate` applies
 * the APC LSB patch: the output LSB is the exact LSB with the last
 * stream's contribution dropped (repro.sc.adders.apc_count).  */
API int repro_column_counts(const uint8_t *in, int64_t R, int64_t n,
                            int64_t nbytes, int64_t L, int approximate,
                            int16_t *out)
{
    ENSURE_TABLES();
    int64_t kmax = (L + 7) / 8;
    if (kmax > nbytes)
        kmax = nbytes;
    int use_tot = n > 255;      /* byte lanes saturate after 255 adds */
    for (int64_t r = 0; r < R; r++) {
        const uint8_t *base = in + r * n * nbytes;
        const uint8_t *last = base + (n - 1) * nbytes;
        /* 64 cycles (8 byte positions) per pass: the 8 lane
         * accumulators live in registers and each stream row
         * contributes one fully-unrolled 8-byte visit. */
        for (int64_t kb = 0; kb < kmax; kb += 8) {
            int64_t kw = (kmax - kb < 8) ? kmax - kb : 8;
            uint64_t a[8] = {0, 0, 0, 0, 0, 0, 0, 0};
            int32_t tot[64];
            if (use_tot)
                memset(tot, 0, sizeof(tot));
            int64_t pending = 0;
            const uint8_t *col = base + kb;
            if (kw == 8 && !use_tot) {
                for (int64_t j = 0; j < n; j++) {
                    const uint8_t *p = col + j * nbytes;
                    a[0] += spread_tab[p[0]];
                    a[1] += spread_tab[p[1]];
                    a[2] += spread_tab[p[2]];
                    a[3] += spread_tab[p[3]];
                    a[4] += spread_tab[p[4]];
                    a[5] += spread_tab[p[5]];
                    a[6] += spread_tab[p[6]];
                    a[7] += spread_tab[p[7]];
                }
            } else {
                for (int64_t j = 0; j < n; j++) {
                    const uint8_t *p = col + j * nbytes;
                    for (int64_t i = 0; i < kw; i++)
                        a[i] += spread_tab[p[i]];
                    if (use_tot && ++pending == 255) {
                        for (int i = 0; i < 8; i++) {
                            for (int t = 0; t < 8; t++)
                                tot[i * 8 + t] +=
                                    (int32_t)((a[i] >> (8 * t)) & 0xFF);
                            a[i] = 0;
                        }
                        pending = 0;
                    }
                }
                if (use_tot && pending)
                    for (int i = 0; i < 8; i++)
                        for (int t = 0; t < 8; t++)
                            tot[i * 8 + t] +=
                                (int32_t)((a[i] >> (8 * t)) & 0xFF);
            }
            for (int64_t i = 0; i < kw; i++) {
                int64_t k = kb + i;
                int64_t t1 = L - 8 * k;
                if (t1 > 8)
                    t1 = 8;
                for (int64_t t = 0; t < t1; t++) {
                    int32_t c = use_tot
                        ? tot[i * 8 + t]
                        : (int32_t)((a[i] >> (8 * t)) & 0xFF);
                    if (approximate) {
                        int32_t b = (last[k] >> (7 - t)) & 1;
                        c = (c & ~1) | ((c ^ b) & 1);
                    }
                    out[r * L + 8 * k + t] = (int16_t)c;
                }
            }
        }
    }
    return 0;
}

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
    int apx;                /* 1 to apply the LSB patch */
    uint64_t lastmask;      /* its bit within the loaded word */
} count_layout;

static count_layout make_layout(int64_t n, int64_t L, int64_t W,
                                int approximate)
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
    cl.apx = approximate ? 1 : 0;
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
 * this once per counting layer at construction; every counting kernel
 * below reads the stored bank as is, so no call copies weights. */
API int repro_layout_bank(const uint8_t *w, int64_t C, int64_t n,
                          int64_t nbytes, int64_t L, int64_t W,
                          uint8_t *out)
{
    const count_layout cl = make_layout(n, L, W, 0);
    memset(out, 0, (size_t)(C * L * W));
    for (int64_t c = 0; c < C; c++)
        transpose_rows(w + c * n * nbytes, NULL, n, nbytes, L, cl.tstride,
                       cl.kstride, out + c * L * W);
    return 0;
}

/* APC counts of one transposed input row block xr against one weight
 * channel wr (both in the layout of cl): out[t], t < L. */
static inline void count_cycles(const count_layout *cl, const uint8_t *xr,
                                const uint8_t *wr, int16_t *out)
{
    const int64_t n = cl->n, L = cl->L, W = cl->W;
    const int apx = cl->apx;
    if (W == 4) {
        const uint32_t m = (uint32_t)cl->lastmask;
        for (int64_t t = 0; t < L; t++) {
            uint32_t ua, ub;
            memcpy(&ua, xr + 4 * t, 4);
            memcpy(&ub, wr + 4 * t, 4);
            uint32_t v = ua ^ ub;
            int64_t cnt = n - popcnt64((uint64_t)v);
            int prod = 1 ^ ((v & m) != 0);
            out[t] = (int16_t)(cnt ^ (prod & apx));
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
        if (apx) {
            const uint8_t *xk = xr + 8 * cl->lastk * L;
            const uint8_t *wk = wr + 8 * cl->lastk * L;
            const uint64_t m = cl->lastmask;
            for (int64_t t = 0; t < L; t++) {
                uint64_t v = load64(xk + 8 * t) ^ load64(wk + 8 * t);
                out[t] = (int16_t)(out[t] ^ (1 ^ ((v & m) != 0)));
            }
        }
    } else {
        const int64_t lastb = cl->lastb;
        const int sh = cl->sh;
        for (int64_t t = 0; t < L; t++) {
            const uint8_t *a = xr + t * W, *b = wr + t * W;
            int64_t cnt = n - popcount_xor(a, b, W);
            int prod = 1 ^ (((a[lastb] ^ b[lastb]) >> sh) & 1);
            out[t] = (int16_t)(cnt ^ (prod & apx));
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
 *
 * max_btanh_pack keeps its own chain: it switches source rows per
 * segment with the pool's accumulator adds riding in the chain's
 * shadow, and moving those adds out to call this helper per segment
 * measured ~15% slower at LeNet-5 layer 0. */
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
 * channel loop of the inner-product kernels. */
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

/* Fused exact-backend inner product (ExactBackend._apc_counts):
 *
 *   counts[c, r, t] = n - popcount(xT[r, t, :] ^ wT[c, t, :])
 *
 * with the APC LSB patch applied from the last input's product bit
 * (read out of the XOR of the transposed rows — no separate last-bit
 * planes).  x is the packed input bank (R, n, nbytes); bank is the
 * weight bank (C, L, W) as repro_layout_bank laid it out; out is
 * (C, R, L) int16.
 *
 * The input is transposed tile-by-tile into a scratch buffer sized to
 * TILE_BYTES, in the counting layout of count_layout, then every
 * output channel streams over the cached tile — the transposition is
 * fused into the counting pass and the working set never leaves the
 * cache. */
API int repro_apc_inner_counts(const uint8_t *x, const uint8_t *bank,
                               int64_t R, int64_t C, int64_t n,
                               int64_t nbytes, int64_t L, int64_t W,
                               int approximate, int16_t *out)
{
    ENSURE_TABLES();
    const count_layout cl = make_layout(n, L, W, approximate);
    const int64_t Rb = tile_rows(R, L, W);
    uint8_t *buf = (uint8_t *)malloc((size_t)(Rb * L * W));
    if (!buf)
        return -1;
    for (int64_t r0 = 0; r0 < R; r0 += Rb) {
        int64_t rn = (R - r0 < Rb) ? R - r0 : Rb;
        transpose_tile(&cl, x, r0, rn, nbytes, buf);
        for (int64_t c = 0; c < C; c++)
            for (int64_t rr = 0; rr < rn; rr++)
                count_cycles(&cl, buf + rr * L * W, bank + c * L * W,
                             out + (c * R + r0 + rr) * L);
    }
    free(buf);
    return 0;
}

/* One APC fully-connected layer (ExactBackend._fc_layer): inner
 * product -> APC count -> Btanh -> pack in one call, without the
 * (C, R, L) count tensor.
 *
 *   x[r, j, :]    (R, n, nbytes) packed input bank, bias row included
 *   bank          (C, L, W) weight bank laid out by repro_layout_bank
 *   bits[r, c, :] (R, C, nbytes) packed Btanh output bits, or, when
 *   sums is not NULL (the decoded output layer),
 *   sums[r, c]    (R, C) the APC counts summed over all L cycles.
 *
 * A row tile is transposed once as in repro_apc_inner_counts; then per
 * channel the counts of every row of the tile go into an Rb x L int16
 * scratch before any Btanh chain starts (a count read right after its
 * vector store stalls the serial chain ~3x), and each row's chain packs
 * straight into its output row, already image-major. */
API int repro_apc_fc_btanh_pack(const uint8_t *x, int64_t R, int64_t n,
                                int64_t nbytes, const uint8_t *bank,
                                int64_t C, int64_t L, int64_t W,
                                int64_t n_states, uint8_t *bits,
                                int64_t *sums)
{
    ENSURE_TABLES();
    const count_layout cl = make_layout(n, L, W, 1);
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

/* Saturating up/down counter scan (repro.sc.fsm.saturating_counter):
 * per row, state += inc[t], clamped into [0, hi]; output bit t is
 * (updated state >= threshold).  int64 and int32 increment variants
 * avoid a cast of the (often large) count tensors. */
#define DEFINE_SATC(name, T)                                              \
API int name(const T *inc, int64_t rows, int64_t Tn, int64_t hi,          \
             int64_t init, int64_t threshold, uint8_t *out)               \
{                                                                         \
    for (int64_t r = 0; r < rows; r++) {                                  \
        const T *a = inc + r * Tn;                                        \
        uint8_t *o = out + r * Tn;                                        \
        int64_t s = init;                                                 \
        for (int64_t t = 0; t < Tn; t++) {                                \
            s += (int64_t)a[t];                                           \
            if (s < 0)                                                    \
                s = 0;                                                    \
            else if (s > hi)                                              \
                s = hi;                                                   \
            o[t] = (uint8_t)(s >= threshold);                             \
        }                                                                 \
    }                                                                     \
    return 0;                                                             \
}

DEFINE_SATC(repro_saturating_counter_i64, int64_t)
DEFINE_SATC(repro_saturating_counter_i32, int32_t)

/* APC-Max-Btanh (Section 4.4) of one pool window of one channel:
 *
 *   row[k] = counts + k * L, k < 4: the window's four APC count rows
 *   o[0 .. nbytes)                 packed Btanh output bits
 *
 * in one pass: the accumulator max pool of blocks.pooling.apc_max_pool
 * (segment 0 takes candidate 0; segment j > 0 takes the first-index
 * argmax of the candidates' totals through segment j - 1), the Btanh
 * saturating counter over the winner's counts (state += 2*count - n
 * clamped into [0, K-1], init and threshold K/2, output bit =
 * state >= K/2) and the big-endian pack, padding bits zero.  The
 * windowed copy, segment sums, increments and bit array of the NumPy
 * composition are never built.  L must be a multiple of segment. */
static void max_btanh_pack(const int16_t *counts, int64_t L,
                           int64_t segment, int64_t n, int64_t n_states,
                           uint8_t *o)
{
    const int64_t hi = n_states - 1, half = n_states / 2;
    const int16_t *row[4];
    for (int k = 0; k < 4; k++)
        row[k] = counts + k * L;
    int64_t tot[4] = {0, 0, 0, 0};
    int64_t s = half;
    unsigned acc = 0;
    int sel = 0;
    for (int64_t j0 = 0; j0 < L; j0 += segment) {
        const int16_t *src = row[sel];
        /* The accumulators' adds ride in the latency shadow of the
         * counter's serial clamp chain. */
        for (int64_t t = j0; t < j0 + segment; t++) {
            tot[0] += row[0][t];
            tot[1] += row[1][t];
            tot[2] += row[2][t];
            tot[3] += row[3][t];
            s += 2 * (int64_t)src[t] - n;
            s = s < 0 ? 0 : s;
            s = s > hi ? hi : s;
            acc = (acc << 1) | (unsigned)(s >= half);
            if ((t & 7) == 7) {
                o[t >> 3] = (uint8_t)acc;
                acc = 0;
            }
        }
        sel = 0;
        for (int k = 1; k < 4; k++)
            if (tot[k] > tot[sel])
                sel = k;
    }
    if (L & 7)
        o[(L + 7) / 8 - 1] = (uint8_t)(acc << (8 - (L & 7)));
}

/* One APC conv stage with max pooling (ExactBackend._conv_layer):
 * inner product -> APC count -> max pool -> Btanh -> pack, per pool
 * window, without the (C, B, P, L) count tensor.
 *
 *   x[b, s, :]       (B, S, nbytes) packed input bank, bias row included
 *   table[p, j]      (P, n) row of x feeding input j of conv position p
 *   bank             (C, L, W) weight bank laid out by repro_layout_bank
 *   windows[w, 0..3] (Wn, 4) positions in [0, P) of each 2x2 window
 *   out[c, b, w, :]  (C, B, Wn, nbytes) packed Btanh output bits
 *
 * Per (image, window): the window's four positions are transposed
 * straight out of x through the table into a 4 x L x W tile; all C x 4
 * x L counts go into an int16 scratch; only then does max_btanh_pack
 * run per channel.  Finishing the counts first keeps the vector stores
 * of count_cycles out of the counter's serial clamp chain (a count read
 * right after its store stalled the chain ~3x).  Working set per
 * window: tile 4*L*W bytes + scratch 8*C*L bytes + the weight bank
 * C*L*W bytes — at LeNet-5 layer 1, L = 64: 16 KiB + 25 KiB in L1/L2
 * beside a 200 KiB L2-resident bank. */
API int repro_apc_conv_max_btanh_pack(const uint8_t *x, int64_t B,
                                      int64_t S, int64_t nbytes,
                                      const int64_t *table, int64_t n,
                                      const uint8_t *bank,
                                      int64_t C, int64_t L, int64_t W,
                                      const int64_t *windows, int64_t Wn,
                                      int64_t segment, int64_t n_states,
                                      uint8_t *out)
{
    ENSURE_TABLES();
    const count_layout cl = make_layout(n, L, W, 1);
    const int64_t ob = (L + 7) / 8;
    uint8_t *tile = (uint8_t *)malloc((size_t)(4 * L * W));
    int16_t *cnt = (int16_t *)malloc((size_t)(C * 4 * L) * sizeof(int16_t));
    if (!tile || !cnt) {
        free(tile);
        free(cnt);
        return -1;
    }
    for (int64_t b = 0; b < B; b++) {
        const uint8_t *xb = x + b * S * nbytes;
        for (int64_t w = 0; w < Wn; w++) {
            memset(tile, 0, (size_t)(4 * L * W));
            for (int k = 0; k < 4; k++)
                transpose_rows(xb, table + windows[4 * w + k] * n, n,
                               nbytes, L, cl.tstride, cl.kstride,
                               tile + k * L * W);
            for (int64_t c = 0; c < C; c++)
                for (int k = 0; k < 4; k++)
                    count_cycles(&cl, tile + k * L * W, bank + c * L * W,
                                 cnt + (c * 4 + k) * L);
            for (int64_t c = 0; c < C; c++)
                max_btanh_pack(cnt + c * 4 * L, L, segment, n, n_states,
                               out + ((c * B + b) * Wn + w) * ob);
        }
    }
    free(tile);
    free(cnt);
    return 0;
}
